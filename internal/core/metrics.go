package core

import "webevolve/internal/obs"

// The engine's metric families. Instrumentation is observational only:
// nothing here may influence scheduling, and nothing prints — crawl
// output is diffed byte-for-byte by the smoke scripts.
//
// Phase timings carry the round's ID into the process trace
// (obs.DefaultTrace) too, one span per phase per round, so the
// pipeline's overlap — round N applying while N+1 and N+2 fetch — is
// reconstructable offline from the JSONL stream.
var (
	engineRounds = obs.Default.Counter("webevolve_engine_rounds_total",
		"dispatch rounds run")
	engineRoundJobs = obs.Default.Histogram("webevolve_engine_round_jobs",
		"jobs per dispatch round", obs.ExpBuckets(1, 2, 12))
	enginePhaseSeconds = obs.Default.HistogramVec("webevolve_engine_phase_seconds",
		"engine wall time by phase (per round: pop, fetch, apply_schedule, push, content_wait; per content-stage apply of one or more rounds: apply_content; per ranking pass: rebuild_wait)",
		obs.LatencyBuckets, "phase")
	engineInflightRounds = obs.Default.Gauge("webevolve_engine_inflight_rounds",
		"rounds currently dispatched and not yet applied")
	engineRankRebuild = obs.Default.Histogram("webevolve_engine_rank_rebuild_seconds",
		"revisit-plan rebuild (scheduler.Optimal.Rebuild) wall time, one sample per ranking pass",
		obs.LatencyBuckets)
	engineContentBacklog = obs.Default.Gauge("webevolve_engine_content_backlog",
		"rounds scheduled and not yet applied by the content stage (being applied, queued, or blocking the engine's hand-off)")
	engineContentRoundsPerWrite = obs.Default.Histogram("webevolve_engine_content_rounds_per_write",
		"rounds whose puts the content stage wrote with each store write; a folded round that drops a page starts a new write",
		[]float64{1, 2, 3})

	dispatchJobs = obs.Default.Counter("webevolve_dispatch_jobs_total",
		"jobs executed by the worker pool")
	dispatchGroups = obs.Default.Counter("webevolve_dispatch_groups_total",
		"job groups executed by the worker pool")
	dispatchBusyWorkers = obs.Default.Gauge("webevolve_dispatch_busy_workers",
		"pool workers currently running a group (utilization against the worker count)")
	dispatchLinePromotions = obs.Default.Counter("webevolve_dispatch_line_promotions_total",
		"groups promoted from a site line after the group ahead finished")

	phasePop           = enginePhaseSeconds.With("pop")
	phaseFetch         = enginePhaseSeconds.With("fetch")
	phaseApplySchedule = enginePhaseSeconds.With("apply_schedule")
	phaseApplyContent  = enginePhaseSeconds.With("apply_content")
	phasePush          = enginePhaseSeconds.With("push")
	phaseContentWait   = enginePhaseSeconds.With("content_wait")
	phaseRebuildWait   = enginePhaseSeconds.With("rebuild_wait")
)
