package cluster

import (
	"fmt"
	"sync/atomic"

	"webevolve/internal/obs"
)

// The cluster's metric families, registered on the process-wide
// registry. Every sample is labeled with the op name, so per-op wire
// latency and bytes (the ROADMAP's "shrink the wire" item needs the
// byte side) are separable at scrape time. Children are cached in
// per-op tables below — a wire op costs atomic updates, never a map
// lookup under the family lock.
var (
	clientOpsVec = obs.Default.CounterVec("webevolve_cluster_client_ops_total",
		"completed client wire ops by op name", "op")
	clientRetriesVec = obs.Default.CounterVec("webevolve_cluster_client_retries_total",
		"client op retries after a transport failure", "op")
	clientRedials = obs.Default.Counter("webevolve_cluster_client_redials_total",
		"reconnects after a broken pooled connection")
	clientOpSecondsVec = obs.Default.HistogramVec("webevolve_cluster_client_op_seconds",
		"client wire op latency (request sent to response read)", obs.LatencyBuckets, "op")
	clientReqBytesVec = obs.Default.HistogramVec("webevolve_cluster_client_request_bytes",
		"client request frame size on the wire", obs.BytesBuckets, "op")
	clientRespBytesVec = obs.Default.HistogramVec("webevolve_cluster_client_response_bytes",
		"client response frame size on the wire", obs.BytesBuckets, "op")

	serverOpsVec = obs.Default.CounterVec("webevolve_cluster_server_ops_total",
		"served wire ops by op name", "op")
	serverErrorsVec = obs.Default.CounterVec("webevolve_cluster_server_errors_total",
		"served wire ops that returned statusError", "op")
	serverOpSecondsVec = obs.Default.HistogramVec("webevolve_cluster_server_op_seconds",
		"server-side op handling latency", obs.LatencyBuckets, "op")
	serverReqBytesVec = obs.Default.HistogramVec("webevolve_cluster_server_request_bytes",
		"request frame size received by the server", obs.BytesBuckets, "op")
	serverRespBytesVec = obs.Default.HistogramVec("webevolve_cluster_server_response_bytes",
		"response frame size sent by the server", obs.BytesBuckets, "op")
	serverConnsGauge = obs.Default.Gauge("webevolve_cluster_server_connections",
		"open server connections")

	walAppends = obs.Default.Counter("webevolve_wal_appends_total",
		"frontier WAL op frames appended")
	walAppendBytes = obs.Default.Counter("webevolve_wal_append_bytes_total",
		"frontier WAL bytes appended (frame overhead included)")
	walReplayedFrames = obs.Default.Counter("webevolve_wal_replayed_frames_total",
		"WAL op frames replayed at startup")
	walCompactions = obs.Default.Counter("webevolve_wal_compactions_total",
		"WAL snapshot compactions")

	// Membership / live-migration families. The entry counters tick in
	// the shared apply path, so a WAL replay of a migration re-counts
	// its entries — the counters measure handoff work performed by this
	// process, not distinct migrations (that is migrationsTotal, which
	// only the migrating client increments).
	migrationExportEntries = obs.Default.Counter("webevolve_membership_export_entries_total",
		"frontier entries extracted by shard-export ops on this server")
	migrationImportEntries = obs.Default.Counter("webevolve_membership_import_entries_total",
		"frontier entries installed by shard-import ops on this server")
	migrationHandoffBytes = obs.Default.HistogramVec("webevolve_membership_handoff_bytes",
		"encoded body bytes per migration export response / import request",
		obs.BytesBuckets, "dir")
	migrationsTotal = obs.Default.Counter("webevolve_membership_migrations_total",
		"shard migrations this client completed (epoch flips it drove)")
)

// opName renders an opcode for metric labels.
func opName(op byte) string {
	switch op {
	case retiredHello:
		return "retired_hello"
	case retiredPush:
		return "retired_push"
	case retiredPopDue:
		return "retired_pop_due"
	case retiredClaimDue:
		return "retired_claim_due"
	case retiredHeadDue:
		return "retired_head_due"
	case retiredPopDueMatch:
		return "retired_pop_due_match"
	case retiredRelease:
		return "retired_release"
	case retiredRemove:
		return "retired_remove"
	case retiredContains:
		return "retired_contains"
	case opLen:
		return "len"
	case opURLs:
		return "urls"
	case retiredPeek:
		return "retired_peek"
	case retiredNextEvent:
		return "retired_next_event"
	case retiredStats:
		return "retired_stats"
	case opReset:
		return "reset"
	case retiredPushBatch:
		return "retired_push_batch"
	case opRound:
		return "round"
	case opShardExport:
		return "shard_export"
	case opShardImport:
		return "shard_import"
	case opShardHello:
		return "shard_hello"
	case retiredWALSetPoliteness:
		return "retired_wal_set_politeness"
	case retiredWALClearClaims:
		return "retired_wal_clear_claims"
	case opStoreHello:
		return "store_hello"
	case retiredStorePutBatch:
		return "retired_store_put_batch"
	case retiredStoreGet:
		return "retired_store_get"
	case opStoreDelete:
		return "store_delete"
	case opStoreLen:
		return "store_len"
	case opStoreURLs:
		return "store_urls"
	case retiredStoreScan:
		return "retired_store_scan"
	case opStoreDrop:
		return "store_drop"
	case opStoreReset:
		return "store_reset"
	case opStoreList:
		return "store_list"
	case opStorePutValues:
		return "store_put_values"
	case opStoreGetValue:
		return "store_get_value"
	case opStoreScanValues:
		return "store_scan_values"
	default:
		return fmt.Sprintf("op_%d", op)
	}
}

// opMetrics is one op's resolved children, cached so the wire paths
// never touch the family maps.
type opMetrics struct {
	clientOps, clientRetries        *obs.Counter
	clientSeconds                   *obs.Histogram
	clientReqBytes, clientRespBytes *obs.Histogram
	serverOps, serverErrors         *obs.Counter
	serverSeconds                   *obs.Histogram
	serverReqBytes, serverRespBytes *obs.Histogram
}

var opMetricsTable [256]atomic.Pointer[opMetrics]

// metricsFor resolves (once per op per process) the cached children.
func metricsFor(op byte) *opMetrics {
	if m := opMetricsTable[op].Load(); m != nil {
		return m
	}
	name := opName(op)
	m := &opMetrics{
		clientOps:       clientOpsVec.With(name),
		clientRetries:   clientRetriesVec.With(name),
		clientSeconds:   clientOpSecondsVec.With(name),
		clientReqBytes:  clientReqBytesVec.With(name),
		clientRespBytes: clientRespBytesVec.With(name),
		serverOps:       serverOpsVec.With(name),
		serverErrors:    serverErrorsVec.With(name),
		serverSeconds:   serverOpSecondsVec.With(name),
		serverReqBytes:  serverReqBytesVec.With(name),
		serverRespBytes: serverRespBytesVec.With(name),
	}
	opMetricsTable[op].Store(m) // losing the race stores an equivalent value
	return m
}
