package server

import (
	"net/http"

	"repro/internal/obs"
)

// Prometheus text exposition of the store metrics (GET /metrics with
// ?format=prometheus or an Accept header asking for text). The catalog
// mirrors the JSON panel — same underlying counters, rendered as metric
// families labeled by store (and endpoint / stage / class where the JSON
// nests maps):
//
//	provd_epoch{store}                     current epoch (gauge)
//	provd_graph_vertices{store}            snapshot vertex count
//	provd_graph_edges{store}               snapshot edge count
//	provd_uptime_seconds{store}            store uptime
//	provd_requests_routed_total{store,endpoint}          routed totals
//	provd_requests_total{store,endpoint,class}           completions by class
//	provd_http_response_bytes_total{store,endpoint}      body bytes written
//	provd_request_latency_seconds{store,endpoint}        histogram
//	provd_request_latency_quantile_seconds{...,quantile} p50/p90/p99 estimates
//	provd_commit_stage_latency_seconds{store,stage}      pipeline histogram
//	provd_commit_stage_latency_quantile_seconds{...}     stage quantiles
//	provd_cache_*{store}, provd_freeze_*{store}          cache / freeze panels
//	provd_wal_*{store}, provd_checkpoint_*{store}        durability panels
//	provd_group_commit_*{store}                          group-commit panel
//	provd_qos_*{store}                                   admission control
//	provd_repl_*{store}                                  replication panel
//	provd_coalescer_*{store}                             shared sync windows
//	provd_slow_queries_total                             slow-ring admissions
//
// Quantile gauges are derived from the same log-spaced buckets Prometheus
// would see (relative error <= 2x), published for dashboards that want
// percentiles without running histogram_quantile.
func (s *Server) writePrometheus(w http.ResponseWriter, stores []*Store) {
	w.Header().Set("Content-Type", obs.PromContentType)
	m := obs.NewMetricWriter(w)
	for _, st := range stores {
		writeStoreProm(m, st)
	}
	m.Header("provd_slow_queries_total", "Requests admitted to the slow-query ring since start.", "counter")
	m.Sample("provd_slow_queries_total", nil, float64(s.slow.Total()))
	// The coalescer is registry-wide (one per data directory), so its
	// series carry no store label — summing a per-store copy would
	// over-count the shared windows.
	if c := s.reg.Coalescer(); c != nil {
		co := c.StatsSnapshot()
		mode := obs.Label{Name: "mode", Value: co.Mode}
		m.Header("provd_coalescer_windows_total", "Device-level sync windows retired across all stores.", "counter")
		m.Sample("provd_coalescer_windows_total", []obs.Label{mode}, float64(co.Windows))
		m.Header("provd_coalescer_requests_total", "Per-store sync requests coalesced into windows.", "counter")
		m.Sample("provd_coalescer_requests_total", []obs.Label{mode}, float64(co.Requests))
		m.Header("provd_coalescer_last_window_size", "Size of the most recent sync window.", "gauge")
		m.Sample("provd_coalescer_last_window_size", nil, float64(co.LastWindowSize))
		m.Header("provd_coalescer_max_window_size", "Largest sync window so far.", "gauge")
		m.Sample("provd_coalescer_max_window_size", nil, float64(co.MaxWindowSize))
		m.Header("provd_coalescer_sync_seconds_total", "Cumulative time retiring sync windows.", "counter")
		m.Sample("provd_coalescer_sync_seconds_total", []obs.Label{mode}, float64(co.SyncTotalNanos)/1e9)
	}
}

// statusClassLabels maps endpointMetrics.classes indices to the class label.
var statusClassLabels = [3]string{"2xx", "4xx", "5xx"}

// quantileGauges are the derived-percentile gauges emitted next to each
// histogram family.
var quantileGauges = []struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}}

func writeStoreProm(m *obs.MetricWriter, st *Store) {
	store := obs.Label{Name: "store", Value: st.Name()}
	ep := st.Epoch()

	m.Header("provd_epoch", "Current committed epoch (one per ingest batch).", "gauge")
	m.Sample("provd_epoch", []obs.Label{store}, float64(ep.N))
	m.Header("provd_graph_vertices", "Vertices in the current snapshot.", "gauge")
	m.Sample("provd_graph_vertices", []obs.Label{store}, float64(ep.Vertices))
	m.Header("provd_graph_edges", "Edges in the current snapshot.", "gauge")
	m.Sample("provd_graph_edges", []obs.Label{store}, float64(ep.Edges))
	m.Header("provd_uptime_seconds", "Store uptime.", "gauge")
	m.Sample("provd_uptime_seconds", []obs.Label{store}, st.Uptime().Seconds())

	m.Header("provd_requests_routed_total", "Requests routed to the store, per endpoint (bumped before the handler runs).", "counter")
	m.Header("provd_requests_total", "Completed requests per endpoint and status class.", "counter")
	m.Header("provd_http_response_bytes_total", "Response body bytes written by completed requests, per endpoint.", "counter")
	m.Header("provd_request_latency_seconds", "Request completion latency per endpoint.", "histogram")
	m.Header("provd_request_latency_quantile_seconds", "Estimated request-latency quantiles per endpoint (log-bucket upper bounds).", "gauge")
	for _, name := range endpointNames {
		epLabel := obs.Label{Name: "endpoint", Value: name}
		st.requests[name].writeProm(m, store, epLabel)
	}

	m.Header("provd_commit_stage_latency_seconds", "Write-pipeline stage latency: enqueue (group-commit queue wait), append (WAL write), fsync, publish.", "histogram")
	m.Header("provd_commit_stage_latency_quantile_seconds", "Estimated stage-latency quantiles (log-bucket upper bounds).", "gauge")
	for _, stage := range stageNames {
		snap := st.stageHistogram(stage).Snapshot()
		labels := []obs.Label{store, {Name: "stage", Value: stage}}
		m.Histogram("provd_commit_stage_latency_seconds", labels, snap)
		if snap.Count > 0 {
			writeQuantiles(m, "provd_commit_stage_latency_quantile_seconds", labels, snap)
		}
	}

	cache := st.CacheStats()
	m.Header("provd_cache_entries", "Segment-cache entries.", "gauge")
	m.Sample("provd_cache_entries", []obs.Label{store}, float64(cache.Entries))
	m.Header("provd_cache_capacity", "Segment-cache capacity.", "gauge")
	m.Sample("provd_cache_capacity", []obs.Label{store}, float64(cache.Capacity))
	m.Header("provd_cache_hits_total", "Segment-cache hits.", "counter")
	m.Sample("provd_cache_hits_total", []obs.Label{store}, float64(cache.Hits))
	m.Header("provd_cache_misses_total", "Segment-cache misses.", "counter")
	m.Sample("provd_cache_misses_total", []obs.Label{store}, float64(cache.Misses))
	m.Header("provd_cache_invalidations_total", "Cache entries purged by ingest deltas.", "counter")
	m.Sample("provd_cache_invalidations_total", []obs.Label{store}, float64(cache.Invalidations))
	m.Header("provd_cache_revalidations_total", "Cache entries carried across epochs by delta revalidation.", "counter")
	m.Sample("provd_cache_revalidations_total", []obs.Label{store}, float64(cache.Revalidations))

	fz := st.FreezeStatsSnapshot()
	m.Header("provd_freeze_total", "Commit snapshot builds, split by incremental CSR extension vs full rebuild.", "counter")
	m.Sample("provd_freeze_total", []obs.Label{store, {Name: "mode", Value: "incremental"}}, float64(fz.Incremental))
	m.Sample("provd_freeze_total", []obs.Label{store, {Name: "mode", Value: "full"}}, float64(fz.Full))
	m.Header("provd_freeze_seconds_total", "Cumulative time in snapshot freezes.", "counter")
	m.Sample("provd_freeze_seconds_total", []obs.Label{store}, float64(fz.TotalNanos)/1e9)
	m.Header("provd_freeze_last_seconds", "Duration of the most recent freeze.", "gauge")
	m.Sample("provd_freeze_last_seconds", []obs.Label{store}, float64(fz.LastNanos)/1e9)
	m.Header("provd_freeze_max_seconds", "Longest freeze so far.", "gauge")
	m.Sample("provd_freeze_max_seconds", []obs.Label{store}, float64(fz.MaxNanos)/1e9)

	qos := st.QoSStatsSnapshot()
	m.Header("provd_qos_admitted_total", "Requests past admission control.", "counter")
	m.Sample("provd_qos_admitted_total", []obs.Label{store}, float64(qos.Admitted))
	m.Header("provd_qos_rejected_total", "Requests rejected by admission control, by cause (rate, concurrency, queue).", "counter")
	m.Sample("provd_qos_rejected_total", []obs.Label{store, {Name: "cause", Value: "rate"}}, float64(qos.RejectedRate))
	m.Sample("provd_qos_rejected_total", []obs.Label{store, {Name: "cause", Value: "concurrency"}}, float64(qos.RejectedConcurrency))
	m.Sample("provd_qos_rejected_total", []obs.Label{store, {Name: "cause", Value: "queue"}}, float64(qos.RejectedQueue))
	m.Header("provd_qos_inflight", "Requests currently in flight (0 without a concurrency cap).", "gauge")
	m.Sample("provd_qos_inflight", []obs.Label{store}, float64(qos.Inflight))
	m.Header("provd_qos_queue_depth", "Batches staged on the commit queue.", "gauge")
	m.Sample("provd_qos_queue_depth", []obs.Label{store}, float64(qos.QueueDepth))
	m.Header("provd_qos_rate_limit", "Configured rate limit in requests/second (0 = unlimited).", "gauge")
	m.Sample("provd_qos_rate_limit", []obs.Label{store}, qos.Config.RatePerSec)
	m.Header("provd_qos_max_concurrent", "Configured concurrency cap (0 = unlimited).", "gauge")
	m.Sample("provd_qos_max_concurrent", []obs.Label{store}, float64(qos.Config.MaxConcurrent))

	if rs := st.ReplStatsSnapshot(); rs != nil {
		follower := 0.0
		if rs.Follower {
			follower = 1.0
		}
		m.Header("provd_repl_follower", "Whether the store is a read-only follower (1) or writable (0).", "gauge")
		m.Sample("provd_repl_follower", []obs.Label{store}, follower)
		m.Header("provd_repl_applied_epoch", "Last epoch applied from the leader's stream.", "gauge")
		m.Sample("provd_repl_applied_epoch", []obs.Label{store}, float64(rs.AppliedEpoch))
		m.Header("provd_repl_leader_epoch", "Leader's head epoch as last reported on the stream.", "gauge")
		m.Sample("provd_repl_leader_epoch", []obs.Label{store}, float64(rs.LeaderEpoch))
		m.Header("provd_repl_lag_records", "Epochs the follower trails the leader by.", "gauge")
		m.Sample("provd_repl_lag_records", []obs.Label{store}, float64(rs.LagRecords))
		m.Header("provd_repl_lag_seconds", "Commit-to-apply latency of the most recent replicated record.", "gauge")
		m.Sample("provd_repl_lag_seconds", []obs.Label{store}, float64(rs.LagNanos)/1e9)
		m.Header("provd_repl_reconnects_total", "Times the applier redialed the leader.", "counter")
		m.Sample("provd_repl_reconnects_total", []obs.Label{store}, float64(rs.Reconnects))
	}

	ds := st.DurabilityStatsSnapshot()
	if ds == nil {
		return
	}
	m.Header("provd_wal_records_total", "Records appended to the write-ahead log.", "counter")
	m.Sample("provd_wal_records_total", []obs.Label{store}, float64(ds.Records))
	m.Header("provd_wal_bytes_total", "Bytes appended to the write-ahead log.", "counter")
	m.Sample("provd_wal_bytes_total", []obs.Label{store}, float64(ds.Bytes))
	m.Header("provd_wal_fsyncs_total", "WAL fsyncs issued.", "counter")
	m.Sample("provd_wal_fsyncs_total", []obs.Label{store}, float64(ds.Fsyncs))
	m.Header("provd_wal_fsync_seconds_total", "Cumulative WAL fsync time.", "counter")
	m.Sample("provd_wal_fsync_seconds_total", []obs.Label{store}, float64(ds.FsyncTotalNanos)/1e9)
	m.Header("provd_wal_fsync_last_seconds", "Duration of the most recent fsync.", "gauge")
	m.Sample("provd_wal_fsync_last_seconds", []obs.Label{store}, float64(ds.FsyncLastNanos)/1e9)
	m.Header("provd_wal_fsync_max_seconds", "Longest fsync so far.", "gauge")
	m.Sample("provd_wal_fsync_max_seconds", []obs.Label{store}, float64(ds.FsyncMaxNanos)/1e9)
	m.Header("provd_wal_sync_failures_total", "Background WAL flushes that failed (the first one disables writes).", "counter")
	m.Sample("provd_wal_sync_failures_total", []obs.Label{store}, float64(ds.SyncFailures))
	m.Header("provd_checkpoints_total", "Checkpoints written.", "counter")
	m.Sample("provd_checkpoints_total", []obs.Label{store}, float64(ds.Checkpoints))
	m.Header("provd_checkpoint_failures_total", "Checkpoint attempts that failed.", "counter")
	m.Sample("provd_checkpoint_failures_total", []obs.Label{store}, float64(ds.CheckpointFailures))
	m.Header("provd_checkpoint_last_epoch", "Epoch of the newest checkpoint.", "gauge")
	m.Sample("provd_checkpoint_last_epoch", []obs.Label{store}, float64(ds.LastCheckpointEpoch))
	m.Header("provd_commits_since_checkpoint", "Commits since the last checkpoint (replay distance).", "gauge")
	m.Sample("provd_commits_since_checkpoint", []obs.Label{store}, float64(ds.SinceCheckpoint))

	gc := ds.GroupCommit
	m.Header("provd_group_commit_enabled", "1 on every durable store: group commit is the only commit path.", "gauge")
	m.Sample("provd_group_commit_enabled", []obs.Label{store}, 1)
	m.Header("provd_group_commit_groups_total", "Fsync groups committed.", "counter")
	m.Sample("provd_group_commit_groups_total", []obs.Label{store}, float64(gc.Groups))
	m.Header("provd_group_commit_records_total", "Records committed through groups.", "counter")
	m.Sample("provd_group_commit_records_total", []obs.Label{store}, float64(gc.Records))
	m.Header("provd_group_commit_last_size", "Size of the most recent group.", "gauge")
	m.Sample("provd_group_commit_last_size", []obs.Label{store}, float64(gc.Last))
	m.Header("provd_group_commit_max_size", "Largest group so far.", "gauge")
	m.Sample("provd_group_commit_max_size", []obs.Label{store}, float64(gc.Max))
	m.Header("provd_group_commit_queue_wait_last_seconds", "Queue wait of the most recent group member.", "gauge")
	m.Sample("provd_group_commit_queue_wait_last_seconds", []obs.Label{store}, float64(gc.QueueWaitLastNanos)/1e9)
	m.Header("provd_group_commit_queue_wait_max_seconds", "Longest queue wait so far.", "gauge")
	m.Sample("provd_group_commit_queue_wait_max_seconds", []obs.Label{store}, float64(gc.QueueWaitMaxNanos)/1e9)
	m.Header("provd_group_commit_queue_wait_seconds_total", "Cumulative queue wait across all group members.", "counter")
	m.Sample("provd_group_commit_queue_wait_seconds_total", []obs.Label{store}, float64(gc.QueueWaitTotalNanos)/1e9)
	m.Header("provd_group_commit_coalesced_total", "Groups retired through a shared device-level sync window.", "counter")
	m.Sample("provd_group_commit_coalesced_total", []obs.Label{store}, float64(gc.CoalescedGroups))
}

// writeProm renders one endpoint's counters: the routed total, the
// status-class completions, the response bytes, and the latency histogram
// with derived
// quantile gauges (quantiles only once the endpoint has traffic, so an
// idle endpoint contributes no misleading zero-percentile series).
func (em *endpointMetrics) writeProm(m *obs.MetricWriter, store, endpoint obs.Label) {
	m.Sample("provd_requests_routed_total", []obs.Label{store, endpoint}, float64(em.total.Load()))
	for i, class := range statusClassLabels {
		m.Sample("provd_requests_total",
			[]obs.Label{store, endpoint, {Name: "class", Value: class}},
			float64(em.classes[i].Load()))
	}
	labels := []obs.Label{store, endpoint}
	m.Sample("provd_http_response_bytes_total", labels, float64(em.respBytes.Load()))
	snap := em.lat.Snapshot()
	m.Histogram("provd_request_latency_seconds", labels, snap)
	if snap.Count > 0 {
		writeQuantiles(m, "provd_request_latency_quantile_seconds", labels, snap)
	}
}

// writeQuantiles emits the p50/p90/p99 gauges derived from a histogram
// snapshot.
func writeQuantiles(m *obs.MetricWriter, name string, labels []obs.Label, snap obs.HistogramSnapshot) {
	base := make([]obs.Label, len(labels), len(labels)+1)
	copy(base, labels)
	for _, qg := range quantileGauges {
		m.Sample(name,
			append(base, obs.Label{Name: "quantile", Value: qg.label}),
			float64(snap.Quantile(qg.q))/1e9)
	}
}
