package server

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Status-class indices of endpointMetrics.classes. Informational and
// redirect statuses count as success — the split exists to make error
// rates observable. A request whose client hung up (statusClientClosed) is
// neither a client nor a server error: it is canceled.
const (
	classOK       = 0 // < 400
	class4xx      = 1
	class5xx      = 2
	classCanceled = 3
)

// endpointMetrics is one endpoint's per-store counters: total requests
// (routed), completions by status class, response body bytes of completed
// requests, and the completion latency histogram.
type endpointMetrics struct {
	total     atomic.Uint64
	classes   [4]atomic.Uint64
	respBytes atomic.Uint64
	lat       obs.Histogram
}

// statusClass maps an HTTP status to its counter index.
func statusClass(status int) int {
	switch {
	case status == statusClientClosed:
		return classCanceled
	case status >= 500:
		return class5xx
	case status >= 400:
		return class4xx
	default:
		return classOK
	}
}

// countRequest bumps the request total of an endpoint (an index into
// endpoints). Called at routing time (before the handler runs), so a
// /metrics response includes the request that produced it.
func (s *Store) countRequest(endpoint int) { s.requests[endpoint].total.Add(1) }

// observeRequest records a completed request: its status class, the body
// bytes written to the client and its latency. Totals are bumped at routing
// time instead, so between the two a request is visibly in flight (total
// exceeds the class sum by the in-flight count).
func (s *Store) observeRequest(endpoint, status int, respBytes uint64, d time.Duration) {
	m := &s.requests[endpoint]
	m.classes[statusClass(status)].Add(1)
	m.respBytes.Add(respBytes)
	m.lat.Observe(d)
}

// EndpointStats is one endpoint's /metrics panel: the routed total, the
// status-class split of completions, the response body bytes written by
// completed requests, and the completion-latency digest.
type EndpointStats struct {
	Total         uint64             `json:"total"`
	OK            uint64             `json:"2xx"`
	ClientErr     uint64             `json:"4xx"`
	ServerErr     uint64             `json:"5xx"`
	Canceled      uint64             `json:"canceled"`
	ResponseBytes uint64             `json:"response_bytes"`
	Latency       obs.LatencySummary `json:"latency"`
}

// StoreMetrics is one read of a store's counters: the JSON panel GET
// /metrics encodes, plus the histogram snapshots its latency digests were
// derived from, which the Prometheus exposition renders as histograms.
type StoreMetrics struct {
	MetricsResponse
	// The histograms, in endpoints and stageNames order.
	EndpointLatency [numEndpoints]obs.HistogramSnapshot
	StageLatency    [len(stageNames)]obs.HistogramSnapshot
}

// Metrics snapshots the store's counters once; both /metrics formats render
// from the result.
func (s *Store) Metrics() StoreMetrics {
	ep := s.Epoch()
	// The incremental count before the histogram: a build counts there
	// first, so full (the rest) never underflows.
	incr := s.freezeIncr.Load()
	fz := s.freeze.Snapshot()
	m := StoreMetrics{MetricsResponse: MetricsResponse{
		Store:        s.name,
		Epoch:        ep.N,
		Vertices:     ep.Vertices,
		Edges:        ep.Edges,
		UptimeMillis: time.Since(s.started).Milliseconds(),
		Cache:        s.cache.stats(),
		Freeze: FreezeStats{
			Incremental: incr,
			Full:        fz.Count - incr,
			LastNanos:   fz.LastNanos,
			MaxNanos:    fz.MaxNanos,
			TotalNanos:  fz.SumNanos,
		},
		Requests:  make(map[string]uint64, numEndpoints),
		Endpoints: make(map[string]EndpointStats, numEndpoints),
		Stages:    make(map[string]obs.LatencySummary, len(stageNames)),
		QoS: QoSStats{
			Admitted:            s.qosAdmitted.Load(),
			RejectedRate:        s.qosRejectedRate.Load(),
			RejectedConcurrency: s.qosRejectedConc.Load(),
			RejectedQueue:       s.qosRejectedQueue.Load(),
			QueueDepth:          len(s.commitCh),
		},
	}}
	m.QoS.Rejected = m.QoS.RejectedRate + m.QoS.RejectedConcurrency + m.QoS.RejectedQueue
	if l := s.qos.Load(); l != nil {
		m.QoS.Config, m.QoS.Inflight = l.cfg, l.inflight.Load()
	}
	for i := range endpoints {
		name, em := endpoints[i].name, &s.requests[i]
		es := EndpointStats{
			OK:            em.classes[classOK].Load(),
			ClientErr:     em.classes[class4xx].Load(),
			ServerErr:     em.classes[class5xx].Load(),
			Canceled:      em.classes[classCanceled].Load(),
			ResponseBytes: em.respBytes.Load(),
		}
		// The total after the classes: it is bumped at routing and they at
		// completion, so the snapshot never shows a negative in-flight count.
		es.Total = em.total.Load()
		m.EndpointLatency[i] = em.lat.Snapshot()
		es.Latency = m.EndpointLatency[i].Summary()
		m.Requests[name], m.Endpoints[name] = es.Total, es
	}
	for i, name := range stageNames {
		m.StageLatency[i] = s.stages[i].Snapshot()
		m.Stages[name] = m.StageLatency[i].Summary()
	}
	if s.wal != nil {
		enqueue := &m.StageLatency[stageEnqueue]
		m.WAL = &DurabilityStats{
			ManagerStats:       s.wal.StatsSnapshot(),
			CheckpointEvery:    s.checkpointEvery,
			SinceCheckpoint:    s.sinceCkpt.Load(),
			CheckpointFailures: s.ckptFails.Load(),
			GroupCommit: GroupCommitStats{
				Enabled:             true,
				Groups:              s.groups.Load(),
				Records:             s.groupRecords.Load(),
				Last:                s.groupLast.Load(),
				Max:                 s.groupMax.Load(),
				QueueWaitLastNanos:  enqueue.LastNanos,
				QueueWaitMaxNanos:   enqueue.MaxNanos,
				QueueWaitTotalNanos: enqueue.SumNanos,
			},
		}
		if s.coal != nil {
			cs := s.coal.StatsSnapshot()
			m.WAL.Coalescer = &cs
			m.WAL.GroupCommit.CoalescedGroups = m.WAL.GroupCommit.Groups
		}
	}
	if s.leaderURL != "" {
		leader, lag := uint64(s.replLeaderEp.Load()), s.replLag.Snapshot()
		m.Repl = &ReplStats{
			Follower:     s.Follower(),
			LeaderURL:    s.leaderURL,
			AppliedEpoch: ep.N,
			LeaderEpoch:  leader,
			LagRecords:   max(int64(leader)-int64(ep.N), 0),
			LagNanos:     lag.LastNanos,
			Reconnects:   s.replReconnects.Load(),
			Lag:          lag.Summary(),
		}
	}
	return m
}

// writePrometheus serves the Prometheus text exposition (GET /metrics with
// ?format=prometheus or an Accept header asking for text) over stores.
func (s *Server) writePrometheus(w http.ResponseWriter, stores []*Store) {
	snaps := make([]StoreMetrics, len(stores))
	for i, st := range stores {
		snaps[i] = st.Metrics()
	}
	reg := promRow{slow: s.slow.Total()}
	if c := s.reg.Coalescer(); c != nil {
		cs := c.StatsSnapshot()
		reg.coalescer = &cs
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	renderPrometheus(w, snaps, reg)
}

// promScope is what a family has one row per. A scope whose panel may be
// absent has no row where it is.
type promScope int

const (
	perStore     promScope = iota
	perEndpoint            // each endpoint of a store
	perStage               // each commit stage of a store
	perRepl                // a store with a repl panel
	perWAL                 // a durable store
	perRegistry            // the exposition as a whole
	perCoalescer           // a registry whose stores share a coalescer
)

// promRow is the row a family renders: a store's snapshot with, on
// endpoint and stage rows, the index into endpoints or stageNames; or,
// with no store, the registry-wide counters.
type promRow struct {
	*StoreMetrics
	i int
	// slow counts slow-ring admissions. coalescer is the registry's shared
	// sync windows, nil without one; its series carry no store label, as
	// summing per-store copies would over-count the shared windows.
	slow      uint64
	coalescer *wal.CoalescerStats
}

// rows returns the label that tells scope's rows at r apart, and its value
// on each row: none where the scope's panel is absent.
func (r promRow) rows(scope promScope) (string, []string) {
	switch {
	case (scope >= perRegistry) != (r.StoreMetrics == nil),
		scope == perRepl && r.Repl == nil,
		scope == perWAL && r.WAL == nil,
		scope == perCoalescer && r.coalescer == nil:
		return "", nil
	case scope == perEndpoint:
		names := make([]string, len(endpoints))
		for i := range endpoints {
			names[i] = endpoints[i].name
		}
		return "endpoint", names
	case scope == perStage:
		return "stage", stageNames[:]
	}
	return "", []string{""}
}

func (r promRow) endpoint() EndpointStats { return r.Endpoints[endpoints[r.i].name] }

func (r promRow) mode() obs.Label { return obs.Label{Name: "mode", Value: r.coalescer.Mode} }

// emitFn takes one sample: its value and the labels it adds to its row's.
type emitFn = func(v float64, labels ...obs.Label)

// promFamily is one entry of the catalogue: samples yields a row's samples.
// Histogram families and their derived quantile gauges read hist instead.
type promFamily struct {
	name, help, typ string
	scope           promScope
	samples         func(r promRow, e emitFn)
	hist            func(r promRow) *obs.HistogramSnapshot
}

// split emits one sample per value, the i-th labelled key=names[i].
func split(e emitFn, key string, names []string, vals ...uint64) {
	for i, v := range vals {
		e(float64(v), obs.Label{Name: key, Value: names[i]})
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// quantiles are the percentiles each histogram family's derived gauges
// estimate, from the same log-spaced buckets Prometheus sees (relative
// error <= 2x), for dashboards that do not run histogram_quantile.
var quantiles = []float64{0.5, 0.9, 0.99}

// promCatalogue is every Prometheus family, in exposition order. Store
// families carry a store label, endpoint and stage families an endpoint or
// stage label after it.
var promCatalogue = []promFamily{
	{"provd_epoch", "Current committed epoch (one per ingest batch).", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.Epoch)) }, nil},
	{"provd_graph_vertices", "Vertices in the current snapshot.", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.Vertices)) }, nil},
	{"provd_graph_edges", "Edges in the current snapshot.", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.Edges)) }, nil},
	{"provd_uptime_seconds", "Store uptime.", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.UptimeMillis) / 1e3) }, nil},
	{"provd_requests_routed_total", "Requests routed to the store, per endpoint (bumped before the handler runs).", "counter", perEndpoint, func(r promRow, e emitFn) { e(float64(r.endpoint().Total)) }, nil},
	{"provd_requests_total", "Completed requests per endpoint and status class (canceled: the client hung up first).", "counter", perEndpoint, func(r promRow, e emitFn) {
		split(e, "class", []string{"2xx", "4xx", "5xx", "canceled"}, r.endpoint().OK, r.endpoint().ClientErr, r.endpoint().ServerErr, r.endpoint().Canceled)
	}, nil},
	{"provd_http_response_bytes_total", "Response body bytes written by completed requests, per endpoint.", "counter", perEndpoint, func(r promRow, e emitFn) { e(float64(r.endpoint().ResponseBytes)) }, nil},
	{"provd_request_latency_seconds", "Request completion latency per endpoint.", "histogram", perEndpoint, nil, func(r promRow) *obs.HistogramSnapshot { return &r.EndpointLatency[r.i] }},
	{"provd_request_latency_quantile_seconds", "Estimated request-latency quantiles per endpoint (log-bucket upper bounds).", "gauge", perEndpoint, nil, func(r promRow) *obs.HistogramSnapshot { return &r.EndpointLatency[r.i] }},
	{"provd_commit_stage_latency_seconds", "Write-pipeline stage latency: enqueue (group-commit queue wait), append (WAL write), fsync, publish.", "histogram", perStage, nil, func(r promRow) *obs.HistogramSnapshot { return &r.StageLatency[r.i] }},
	{"provd_commit_stage_latency_quantile_seconds", "Estimated stage-latency quantiles (log-bucket upper bounds).", "gauge", perStage, nil, func(r promRow) *obs.HistogramSnapshot { return &r.StageLatency[r.i] }},
	{"provd_cache_entries", "Segment-cache entries.", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Entries)) }, nil},
	{"provd_cache_capacity", "Segment-cache capacity.", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Capacity)) }, nil},
	{"provd_cache_bytes", "Heap held by the resident segment-cache entries (keys and packed segments).", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Bytes)) }, nil},
	{"provd_cache_hits_total", "Segment-cache hits.", "counter", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Hits)) }, nil},
	{"provd_cache_misses_total", "Segment-cache misses.", "counter", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Misses)) }, nil},
	{"provd_cache_invalidations_total", "Cache entries purged by ingest deltas.", "counter", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Invalidations)) }, nil},
	{"provd_cache_revalidations_total", "Cache entries carried across epochs by delta revalidation.", "counter", perStore, func(r promRow, e emitFn) { e(float64(r.Cache.Revalidations)) }, nil},
	{"provd_freeze_total", "Commit snapshot builds, split by incremental CSR extension vs full rebuild.", "counter", perStore, func(r promRow, e emitFn) {
		split(e, "mode", []string{"incremental", "full"}, r.Freeze.Incremental, r.Freeze.Full)
	}, nil},
	{"provd_freeze_seconds_total", "Cumulative time in snapshot freezes.", "counter", perStore, func(r promRow, e emitFn) { e(seconds(r.Freeze.TotalNanos)) }, nil},
	{"provd_freeze_last_seconds", "Duration of the most recent freeze.", "gauge", perStore, func(r promRow, e emitFn) { e(seconds(r.Freeze.LastNanos)) }, nil},
	{"provd_freeze_max_seconds", "Longest freeze so far.", "gauge", perStore, func(r promRow, e emitFn) { e(seconds(r.Freeze.MaxNanos)) }, nil},
	{"provd_qos_admitted_total", "Requests past admission control.", "counter", perStore, func(r promRow, e emitFn) { e(float64(r.QoS.Admitted)) }, nil},
	{"provd_qos_rejected_total", "Requests rejected by admission control, by cause (rate, concurrency, queue).", "counter", perStore, func(r promRow, e emitFn) {
		split(e, "cause", []string{"rate", "concurrency", "queue"}, r.QoS.RejectedRate, r.QoS.RejectedConcurrency, r.QoS.RejectedQueue)
	}, nil},
	{"provd_qos_inflight", "Requests currently in flight (0 without a concurrency cap).", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.QoS.Inflight)) }, nil},
	{"provd_qos_queue_depth", "Batches staged on the commit queue.", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.QoS.QueueDepth)) }, nil},
	{"provd_qos_rate_limit", "Configured rate limit in requests/second (0 = unlimited).", "gauge", perStore, func(r promRow, e emitFn) { e(r.QoS.Config.RatePerSec) }, nil},
	{"provd_qos_max_concurrent", "Configured concurrency cap (0 = unlimited).", "gauge", perStore, func(r promRow, e emitFn) { e(float64(r.QoS.Config.MaxConcurrent)) }, nil},
	{"provd_repl_follower", "Whether the store is a read-only follower (1) or writable (0).", "gauge", perRepl, func(r promRow, e emitFn) { e(boolGauge(r.Repl.Follower)) }, nil},
	{"provd_repl_applied_epoch", "Last epoch applied from the leader's stream.", "gauge", perRepl, func(r promRow, e emitFn) { e(float64(r.Repl.AppliedEpoch)) }, nil},
	{"provd_repl_leader_epoch", "Leader's head epoch as last reported on the stream.", "gauge", perRepl, func(r promRow, e emitFn) { e(float64(r.Repl.LeaderEpoch)) }, nil},
	{"provd_repl_lag_records", "Epochs the follower trails the leader by.", "gauge", perRepl, func(r promRow, e emitFn) { e(float64(r.Repl.LagRecords)) }, nil},
	{"provd_repl_lag_seconds", "Commit-to-apply latency of the most recent replicated record.", "gauge", perRepl, func(r promRow, e emitFn) { e(seconds(r.Repl.LagNanos)) }, nil},
	{"provd_repl_reconnects_total", "Times the applier redialed the leader.", "counter", perRepl, func(r promRow, e emitFn) { e(float64(r.Repl.Reconnects)) }, nil},
	{"provd_wal_records_total", "Records appended to the write-ahead log.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.Records)) }, nil},
	{"provd_wal_bytes_total", "Bytes appended to the write-ahead log.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.Bytes)) }, nil},
	{"provd_wal_fsyncs_total", "WAL fsyncs issued.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.Fsyncs)) }, nil},
	{"provd_wal_fsync_seconds_total", "Cumulative WAL fsync time.", "counter", perWAL, func(r promRow, e emitFn) { e(seconds(r.WAL.FsyncTotalNanos)) }, nil},
	{"provd_wal_fsync_last_seconds", "Duration of the most recent fsync.", "gauge", perWAL, func(r promRow, e emitFn) { e(seconds(r.WAL.FsyncLastNanos)) }, nil},
	{"provd_wal_fsync_max_seconds", "Longest fsync so far.", "gauge", perWAL, func(r promRow, e emitFn) { e(seconds(r.WAL.FsyncMaxNanos)) }, nil},
	{"provd_wal_sync_failures_total", "Background WAL flushes that failed (the first one disables writes).", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.SyncFailures)) }, nil},
	{"provd_checkpoints_total", "Checkpoints written.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.Checkpoints)) }, nil},
	{"provd_checkpoint_failures_total", "Checkpoint attempts that failed.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.CheckpointFailures)) }, nil},
	{"provd_checkpoint_last_epoch", "Epoch of the newest checkpoint.", "gauge", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.LastCheckpointEpoch)) }, nil},
	{"provd_commits_since_checkpoint", "Commits since the last checkpoint (replay distance).", "gauge", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.SinceCheckpoint)) }, nil},
	{"provd_group_commit_enabled", "1 on every durable store: group commit is the only commit path.", "gauge", perWAL, func(r promRow, e emitFn) { e(boolGauge(r.WAL.GroupCommit.Enabled)) }, nil},
	{"provd_group_commit_groups_total", "Fsync groups committed.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.GroupCommit.Groups)) }, nil},
	{"provd_group_commit_records_total", "Records committed through groups.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.GroupCommit.Records)) }, nil},
	{"provd_group_commit_last_size", "Size of the most recent group.", "gauge", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.GroupCommit.Last)) }, nil},
	{"provd_group_commit_max_size", "Largest group so far.", "gauge", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.GroupCommit.Max)) }, nil},
	{"provd_group_commit_queue_wait_last_seconds", "Queue wait of the most recent group member.", "gauge", perWAL, func(r promRow, e emitFn) { e(seconds(r.WAL.GroupCommit.QueueWaitLastNanos)) }, nil},
	{"provd_group_commit_queue_wait_max_seconds", "Longest queue wait so far.", "gauge", perWAL, func(r promRow, e emitFn) { e(seconds(r.WAL.GroupCommit.QueueWaitMaxNanos)) }, nil},
	{"provd_group_commit_queue_wait_seconds_total", "Cumulative queue wait across all group members.", "counter", perWAL, func(r promRow, e emitFn) { e(seconds(r.WAL.GroupCommit.QueueWaitTotalNanos)) }, nil},
	{"provd_group_commit_coalesced_total", "Groups retired through a shared device-level sync window.", "counter", perWAL, func(r promRow, e emitFn) { e(float64(r.WAL.GroupCommit.CoalescedGroups)) }, nil},
	{"provd_slow_queries_total", "Requests admitted to the slow-query ring since start.", "counter", perRegistry, func(r promRow, e emitFn) { e(float64(r.slow)) }, nil},
	{"provd_coalescer_windows_total", "Device-level sync windows retired across all stores.", "counter", perCoalescer, func(r promRow, e emitFn) { e(float64(r.coalescer.Windows), r.mode()) }, nil},
	{"provd_coalescer_requests_total", "Per-store sync requests coalesced into windows.", "counter", perCoalescer, func(r promRow, e emitFn) { e(float64(r.coalescer.Requests), r.mode()) }, nil},
	{"provd_coalescer_last_window_size", "Size of the most recent sync window.", "gauge", perCoalescer, func(r promRow, e emitFn) { e(float64(r.coalescer.LastWindowSize)) }, nil},
	{"provd_coalescer_max_window_size", "Largest sync window so far.", "gauge", perCoalescer, func(r promRow, e emitFn) { e(float64(r.coalescer.MaxWindowSize)) }, nil},
	{"provd_coalescer_sync_seconds_total", "Cumulative time retiring sync windows.", "counter", perCoalescer, func(r promRow, e emitFn) { e(seconds(r.coalescer.SyncTotalNanos), r.mode()) }, nil},
}

// renderPrometheus writes the catalogue over each store's snapshot, then
// over the registry row. A family declares its HELP and TYPE once across
// stores. Endpoint and stage families interleave by row (one endpoint's
// routed, class, byte, histogram and quantile samples together) and declare
// their whole run up front, so a family whose rows are all idle is still
// declared; any other family declares itself with its first sample.
func renderPrometheus(w io.Writer, stores []StoreMetrics, reg promRow) error {
	m := obs.NewMetricWriter(w)
	for i := range stores {
		st := &stores[i]
		renderRows(m, promRow{StoreMetrics: st}, []obs.Label{{Name: "store", Value: st.Store}})
	}
	renderRows(m, reg, nil)
	return m.Err()
}

// renderRows writes every run of same-scope families that has rows at r.
func renderRows(m *obs.MetricWriter, r promRow, base []obs.Label) {
	for fams := promCatalogue; len(fams) > 0; {
		n := 1
		for n < len(fams) && fams[n].scope == fams[0].scope {
			n++
		}
		run := fams[:n]
		fams = fams[n:]
		key, rows := r.rows(run[0].scope)
		if key != "" {
			for _, f := range run {
				m.Header(f.name, f.help, f.typ)
			}
		}
		for i, row := range rows {
			r.i = i
			labels := base
			if key != "" {
				labels = append(base[:len(base):len(base)], obs.Label{Name: key, Value: row})
			}
			for _, f := range run {
				f.render(m, r, labels)
			}
		}
	}
}

// render writes the family's samples for one row.
func (f *promFamily) render(m *obs.MetricWriter, r promRow, labels []obs.Label) {
	with := func(extra ...obs.Label) []obs.Label {
		return append(labels[:len(labels):len(labels)], extra...)
	}
	if f.hist == nil {
		f.samples(r, func(v float64, extra ...obs.Label) {
			m.Header(f.name, f.help, f.typ)
			m.Sample(f.name, with(extra...), v)
		})
		return
	}
	switch h := f.hist(r); {
	case f.typ == "histogram":
		m.Histogram(f.name, labels, *h)
	case h.Count > 0: // an idle row has no percentiles to estimate
		for _, q := range quantiles {
			m.Sample(f.name, with(obs.Label{Name: "quantile", Value: strconv.FormatFloat(q, 'g', -1, 64)}), seconds(h.Quantile(q)))
		}
	}
}
