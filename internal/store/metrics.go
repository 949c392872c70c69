package store

import (
	"webevolve/internal/obs"
	"webevolve/internal/seglog"
)

// The disk store's metric families, totaled across every Disk instance
// in the process (storerd serves many named collections; each one is a
// Disk). Segment-lifecycle counters make descriptor churn visible: a
// hot eviction/reopen ratio means the segment log's handle cap is too
// small for the read pattern.
var (
	storePuts = obs.Default.Counter("webevolve_store_puts_total",
		"records appended (PutBatch items)")
	storeGets = obs.Default.Counter("webevolve_store_gets_total",
		"point reads served from segments")
	storeDeletes = obs.Default.Counter("webevolve_store_deletes_total",
		"tombstones appended")
	storeCompactions = obs.Default.Counter("webevolve_store_compactions_total",
		"live-set rewrites reclaiming garbage segments")
	storeReplayedFrames = obs.Default.Counter("webevolve_store_replayed_frames_total",
		"segment frames replayed at open")
	// diskLogMetrics is the segment lifecycle of every Disk's log.
	diskLogMetrics = seglog.Metrics{
		Opens: obs.Default.Counter("webevolve_store_segment_opens_total",
			"segment files opened (startup replay and fresh segments)"),
		Reopens: obs.Default.Counter("webevolve_store_segment_reopens_total",
			"evicted segment handles reopened for a read"),
		Evictions: obs.Default.Counter("webevolve_store_segment_evictions_total",
			"idle segment handles closed to stay under the descriptor cap"),
		Rolls: obs.Default.Counter("webevolve_store_segment_rolls_total",
			"active segments rolled at the size bound"),
		TornTails: obs.Default.Counter("webevolve_store_torn_tails_total",
			"corrupt or torn segment tails swept at open"),
	}
)
