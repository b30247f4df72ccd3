package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/repl"
)

// Limits protecting the service from oversized or runaway requests.
const (
	// maxBodyBytes bounds request bodies.
	maxBodyBytes = 8 << 20
	// defaultCypherTimeout applies when a /query request names none.
	defaultCypherTimeout = 10 * time.Second
	// maxCypherTimeout is the ceiling a request can ask for.
	maxCypherTimeout = 60 * time.Second
	// defaultCypherMaxRows bounds intermediate binding tables when the
	// request names no budget (the Cypher baseline is exponential on
	// variable-length path joins; an unbounded query could exhaust memory).
	defaultCypherMaxRows = 1_000_000
	// maxSumTypeRadius and maxSumSegments bound one /summarize request:
	// every unit of type_radius is a refinement pass over all segment
	// edges, every spec a PgSeg solve, and neither can be cancelled once
	// started.
	maxSumTypeRadius = 8
	maxSumSegments   = 64
	// maxQueryVertices bounds every vertex list of a PgSeg query — src, dst
	// and each expansion's within, on /segment, /adjust and every /summarize
	// spec: Segment solves the destination classes in parallel, so an
	// unbounded list would hold every core.
	maxQueryVertices = 4096
	// maxAggKeys bounds each /summarize agg_* list, and maxAggKeyBytes each
	// key in it: PgSum spells every key into every segment vertex's
	// signature.
	maxAggKeys     = 16
	maxAggKeyBytes = 256
)

// checkQueryLists refuses, before any solve, a query whose src, dst or any
// expansion's within lists more than maxQueryVertices ids.
func checkQueryLists(src, dst []uint32, exps []ExpansionSpec) error {
	over := func(name string, n int) error {
		return fmt.Errorf("%s lists %d vertices (at most %d)", name, n, maxQueryVertices)
	}
	switch {
	case len(src) > maxQueryVertices:
		return over("src", len(src))
	case len(dst) > maxQueryVertices:
		return over("dst", len(dst))
	}
	for i, ex := range exps {
		if len(ex.Within) > maxQueryVertices {
			return over(fmt.Sprintf("expansions[%d].within", i), len(ex.Within))
		}
	}
	return nil
}

// Server is the provd HTTP API over a Registry of named stores (shards).
//
// Endpoints (every store-scoped endpoint exists twice: the unprefixed
// legacy spelling against the default store, and /stores/{name}/... against
// the named store; an unknown or invalid name is a 404 with a JSON error):
//
//	POST [/stores/{name}]/segment    PgSeg query                     (read)
//	POST [/stores/{name}]/summarize  PgSum over segment queries      (read)
//	POST [/stores/{name}]/query      Cypher-subset query             (read)
//	POST [/stores/{name}]/adjust     interactive adjust of a cached segment (read)
//	POST [/stores/{name}]/ingest     lifecycle mutation batch        (write)
//	GET  [/stores/{name}]/stats      graph + cache statistics        (read)
//	GET  [/stores/{name}]/metrics    store counters (epoch, cache, requests)
//	GET  [/stores/{name}]/healthz    liveness probe
//	GET  [/stores/{name}]/export     whole-graph export: ?format=prov-json | dot | pg
//	PUT  /stores/{name}              create the named store (idempotent); the
//	                                 optional JSON body sets its QoS limits
//	GET  /stores                     list stores
//
// All reads run lock-free against the routed store's current epoch
// snapshot; only /ingest takes that store's write mutex — shards never
// serialize behind each other.
//
// Observability (see internal/obs): every store-scoped request is assigned
// a request id (the client's X-Request-ID if acceptable, else generated)
// that is echoed in the response, propagated via context through the write
// path into the group committer, and attached to the structured request
// log; per-endpoint status-class counters and latency histograms are
// recorded per store; requests at or over the slow threshold land in a
// bounded ring dumped at GET /debug/slow; and GET /metrics serves either
// the JSON panel (default) or Prometheus text exposition
// (?format=prometheus, or an Accept header naming text/plain /
// openmetrics).
//
// Admission control (see qos.go): a store configured with rate /
// concurrency limits rejects over-limit requests with 429 + Retry-After
// before the handler runs (metrics and health probes are exempt), and a
// bounded commit queue rejects ingest with 429 before the batch mutates
// the graph. Rejections flow through the same observability wrapper as
// successes: the request id is echoed and the status-class counters and
// latency histograms stay exact.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	// logger receives one structured line per request (Debug level for
	// successes, Warn for 4xx/slow, Error for 5xx); nil disables.
	logger *slog.Logger
	// slow collects requests at or over slowThresh; slowThresh <= 0
	// disables capture.
	slow       *obs.SlowRing
	slowThresh time.Duration
}

// Options configures the server's observability surfaces.
type Options struct {
	// SlowThreshold is the duration at or over which a request enters the
	// slow-query ring. 0 selects the 500ms default; negative disables
	// capture.
	SlowThreshold time.Duration
	// Logger, when non-nil, receives per-request structured log lines.
	Logger *slog.Logger
}

// defaultSlowThreshold is the slow-query capture threshold when Options
// names none.
const defaultSlowThreshold = 500 * time.Millisecond

// slowRingCap bounds the slow-query ring (entries).
const slowRingCap = 128

// NewServer builds the HTTP API over a single memory-resident store, which
// becomes the default store of a one-entry memory-only registry.
func NewServer(store *Store) *Server {
	store.name = DefaultStore
	return NewMultiServerWith(&Registry{stores: map[string]*Store{DefaultStore: store}}, Options{})
}

// NewMultiServerWith builds the HTTP API over a registry of named stores.
func NewMultiServerWith(reg *Registry, opts Options) *Server {
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = defaultSlowThreshold
	}
	s := &Server{
		reg:        reg,
		mux:        http.NewServeMux(),
		logger:     opts.Logger,
		slow:       obs.NewSlowRing(slowRingCap),
		slowThresh: opts.SlowThreshold,
	}
	for _, ep := range []endpointDef{
		{"POST", "/segment", "segment", s.handleSegment},
		{"POST", "/summarize", "summarize", s.handleSummarize},
		{"POST", "/query", "query", s.handleQuery},
		{"POST", "/adjust", "adjust", s.handleAdjust},
		{"POST", "/ingest", "ingest", s.handleIngest},
		{"GET", "/stats", "stats", s.handleStats},
		{"GET", "/metrics", "metrics", s.handleMetrics},
		{"GET", "/healthz", "healthz", s.handleHealthz},
		{"GET", "/export", "export", s.handleExport},
		{"GET", "/wal", "wal", s.handleWALStream},
		{"POST", "/promote", "promote", s.handlePromote},
	} {
		ep, slot := ep, slices.Index(endpointNames[:], ep.name)
		s.mux.HandleFunc(ep.method+" "+ep.path, func(w http.ResponseWriter, r *http.Request) {
			s.serveEndpoint(s.reg.Default(), ep, slot, w, r)
		})
		s.mux.HandleFunc(ep.method+" /stores/{store}"+ep.path, func(w http.ResponseWriter, r *http.Request) {
			st, err := s.reg.Get(r.PathValue("store"))
			if err != nil {
				writeErr(w, http.StatusNotFound, "%v", err)
				return
			}
			s.serveEndpoint(st, ep, slot, w, r)
		})
	}
	s.mux.HandleFunc("PUT /stores/{store}", s.handleStoreCreate)
	s.mux.HandleFunc("GET /stores", s.handleStoreList)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	return s
}

// endpointDef is one store-scoped endpoint registration.
type endpointDef struct {
	method, path, name string
	h                  func(*Store, http.ResponseWriter, *http.Request)
}

// statusWriter captures the response status and sums the body bytes for
// the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  uint64
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += uint64(n)
	return n, err
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so chunked streams (the wal
// endpoint) can push frames through the metrics wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admissionExempt reports endpoints that bypass the store's QoS limits:
// health probes and metrics scrapes must keep answering on an overloaded
// (or deliberately throttled) store — they are how the overload is seen.
// Replication streams are exempt too: a wal tail lives for hours and would
// otherwise pin a concurrency slot, and promote is the failover control
// path — exactly when a store may be throttled.
func admissionExempt(endpoint string) bool {
	switch endpoint {
	case "metrics", "healthz", "wal", "promote":
		return true
	}
	return false
}

// Read-your-writes wait bounds: how long a request holding an X-Min-Epoch
// token may park for the applier by default, and the cap on what
// X-Min-Epoch-Wait-Ms can ask for.
const (
	defaultMinEpochWait = 2 * time.Second
	maxMinEpochWait     = 10 * time.Second
)

// minEpochSatisfied enforces the read-your-writes token: a request
// presenting X-Min-Epoch waits (bounded) for the store's published epoch
// to reach it. On timeout the reply is 412 with the leader's address — the
// client can retry there, where the token is satisfied by construction.
// Returns false when the response has been written.
func minEpochSatisfied(st *Store, w http.ResponseWriter, r *http.Request) bool {
	v := r.Header.Get(repl.HeaderMinEpoch)
	if v == "" {
		return true
	}
	min, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad %s %q: %v", repl.HeaderMinEpoch, v, err)
		return false
	}
	wait := defaultMinEpochWait
	if ms := r.Header.Get(repl.HeaderMinEpochWait); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad %s %q", repl.HeaderMinEpochWait, ms)
			return false
		}
		wait = time.Duration(n) * time.Millisecond
		if wait > maxMinEpochWait {
			wait = maxMinEpochWait
		}
	}
	if st.WaitEpoch(min, wait) {
		return true
	}
	if leader := st.LeaderURL(); leader != "" {
		w.Header().Set(repl.HeaderLeader, leader)
	}
	writeErr(w, http.StatusPreconditionFailed,
		"store %q: epoch %d not reached (at %d)", st.Name(), min, st.Epoch().N)
	return false
}

// retryAfterSeconds renders a Retry-After hint in the header's
// delay-seconds form: an integer, rounded up, at least 1 (a "0" invites an
// immediate identical retry).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// serveEndpoint runs one store-scoped request through the observability
// wrapper: request-id resolution and echo, per-endpoint counters and
// latency histogram, slow-query capture and the structured request log.
// The total counter bumps before the handler (so a /metrics response counts
// itself, as it always has); status class and latency record on completion.
// Admission control runs inside the wrapper: a 429 carries the request id
// and counts in the endpoint's status-class and latency metrics exactly
// like any other completion. slot is ep's index into endpointNames.
func (s *Server) serveEndpoint(st *Store, ep endpointDef, slot int, w http.ResponseWriter, r *http.Request) {
	st.countRequest(slot)

	id := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(id) {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	ctx := obs.WithRequestID(r.Context(), id)
	ctx, stages := obs.WithStages(ctx)

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	if admissionExempt(ep.name) {
		ep.h(st, sw, r.WithContext(ctx))
	} else if release, retry, ok := st.Admit(); ok {
		if minEpochSatisfied(st, sw, r) {
			ep.h(st, sw, r.WithContext(ctx))
		}
		release()
	} else {
		sw.Header().Set("Retry-After", retryAfterSeconds(retry))
		writeErr(sw, http.StatusTooManyRequests,
			"store %q: over its admission limits (rate or concurrency)", st.Name())
	}
	d := time.Since(start)
	st.observeRequest(slot, sw.status, sw.bytes, d)

	slow := s.slowThresh > 0 && d >= s.slowThresh
	if slow {
		entry := obs.SlowEntry{
			Time:          start,
			RequestID:     id,
			Store:         st.Name(),
			Endpoint:      ep.name,
			Shape:         r.Method + " " + r.URL.Path,
			Status:        sw.status,
			DurationNanos: d.Nanoseconds(),
		}
		if ep.name == "ingest" {
			entry.Stages = stages
		}
		s.slow.Add(entry)
	}
	if s.logger != nil {
		lvl := slog.LevelDebug
		switch {
		case sw.status >= 500:
			lvl = slog.LevelError
		case sw.status >= 400 || slow:
			lvl = slog.LevelWarn
		}
		s.logger.LogAttrs(ctx, lvl, "request",
			slog.String("request_id", id),
			slog.String("store", st.Name()),
			slog.String("endpoint", ep.name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Uint64("epoch", st.Epoch().N),
			slog.Int64("duration_us", d.Microseconds()),
			slog.Bool("slow", slow),
		)
	}
}

// Store returns the default store (the one the legacy endpoints serve).
func (s *Server) Store() *Store { return s.reg.Default() }

// Registry returns the registry the server routes over.
func (s *Server) Registry() *Registry { return s.reg }

// ServeHTTP dispatches to the endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeSegmentReply streams a /segment or /adjust result, solved at ep, in
// the requested format. Once the 200 is out a failed write can only mean the
// client is gone; the encode stops there and nothing is logged.
func writeSegmentReply(w http.ResponseWriter, ep *Epoch, seg *core.Segment, cached bool, format string) {
	var dot strings.Builder
	if format == FormatDOT {
		if err := seg.WriteDOT(&dot); err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = writeSegmentJSON(w, ep.replies, seg, cached, dot.String())
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode parses the request body into v, enforcing the body size limit.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// queryErrCode maps an operator error to an HTTP status.
func queryErrCode(err error) int {
	switch {
	case errors.Is(err, cypher.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, cypher.ErrRowBudget), errors.Is(err, core.ErrNotDAG), errors.As(err, new(*core.BudgetError)):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// --- endpoint handlers ---

func (s *Server) handleSegment(st *Store, w http.ResponseWriter, r *http.Request) {
	var req SegmentRequest
	if !decode(w, r, &req) {
		return
	}
	format := strings.ToLower(req.Format)
	if format != "" && format != FormatJSON && format != FormatDOT {
		// Reject before the (potentially expensive) solve runs.
		writeErr(w, http.StatusBadRequest, "unknown format %q (want json, dot)", req.Format)
		return
	}
	q, opts, err := req.toQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ep := st.Epoch()
	seg, cached, err := st.segmentAt(core.NewWork(r.Context()), ep, q, opts, !req.NoCache)
	if err != nil {
		writeErr(w, queryErrCode(err), "segment: %v", err)
		return
	}
	writeSegmentReply(w, ep, seg, cached, format)
}

// handleAdjust serves the paper's interactive adjust step: the base PgSeg
// query is resolved through the segment cache, then the requested
// AdjustExclude / AdjustExpand refinements derive the adjusted segment
// without re-running the solver.
func (s *Server) handleAdjust(st *Store, w http.ResponseWriter, r *http.Request) {
	var req AdjustRequest
	if !decode(w, r, &req) {
		return
	}
	format := strings.ToLower(req.Format)
	if format != "" && format != FormatJSON && format != FormatDOT {
		writeErr(w, http.StatusBadRequest, "unknown format %q (want json, dot)", req.Format)
		return
	}
	q, opts, err := req.Segment.toQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rels, err := parseRels(req.ExcludeRels)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	kinds, err := parseKinds(req.ExcludeKinds)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkQueryLists(nil, nil, req.Expansions); err != nil {
		writeErr(w, http.StatusBadRequest, "adjust: %v", err)
		return
	}
	excl := core.Boundary{ExcludeRels: rels}
	if len(kinds) > 0 {
		excl.VertexFilters = []core.VertexFilter{func(p *prov.Graph, v graph.VertexID) bool {
			for _, k := range kinds {
				if p.IsKind(v, k) {
					return false
				}
			}
			return true
		}}
	}
	exps := make([]core.Expansion, 0, len(req.Expansions))
	for _, ex := range req.Expansions {
		exps = append(exps, core.Expansion{Within: toVertexIDs(ex.Within), K: ex.K})
	}
	if len(rels) == 0 && len(kinds) == 0 && len(exps) == 0 {
		writeErr(w, http.StatusBadRequest, "adjust: needs exclude_rels, exclude_kinds or expansions")
		return
	}
	ep := st.Epoch()
	seg, cached, err := st.adjustAt(core.NewWork(r.Context()), ep, q, opts, excl, exps)
	if err != nil {
		writeErr(w, queryErrCode(err), "adjust: %v", err)
		return
	}
	writeSegmentReply(w, ep, seg, cached, format)
}

func (s *Server) handleSummarize(st *Store, w http.ResponseWriter, r *http.Request) {
	var req SummarizeRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Segments) == 0 {
		writeErr(w, http.StatusBadRequest, "summarize: needs at least one segment spec")
		return
	}
	if len(req.Segments) > maxSumSegments {
		writeErr(w, http.StatusBadRequest, "summarize: %d segment specs (at most %d)", len(req.Segments), maxSumSegments)
		return
	}
	if req.TypeRadius < 0 || req.TypeRadius > maxSumTypeRadius {
		writeErr(w, http.StatusBadRequest, "summarize: type_radius %d out of range [0, %d]", req.TypeRadius, maxSumTypeRadius)
		return
	}
	format := strings.ToLower(req.Format)
	if format != "" && format != FormatJSON && format != FormatDOT {
		// Reject before the (potentially expensive) solves run.
		writeErr(w, http.StatusBadRequest, "unknown format %q (want json, dot)", req.Format)
		return
	}
	for _, agg := range [...]struct {
		name string
		keys *[]string
	}{{"agg_entity", &req.AggEntity}, {"agg_activity", &req.AggActivity}, {"agg_agent", &req.AggAgent}} {
		var err error
		if *agg.keys, err = parseAggKeys(agg.name, *agg.keys); err != nil {
			writeErr(w, http.StatusBadRequest, "summarize: %v", err)
			return
		}
	}
	queries := make([]core.Query, 0, len(req.Segments))
	for i, spec := range req.Segments {
		if err := checkQueryLists(spec.Src, spec.Dst, nil); err != nil {
			writeErr(w, http.StatusBadRequest, "segment %d: %v", i, err)
			return
		}
		rels, err := parseRels(spec.ExcludeRels)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "segment %d: %v", i, err)
			return
		}
		queries = append(queries, core.Query{
			Src:      toVertexIDs(spec.Src),
			Dst:      toVertexIDs(spec.Dst),
			Boundary: core.Boundary{ExcludeRels: rels},
		})
	}
	sumOpts := core.SumOptions{
		TypeRadius: req.TypeRadius,
		K: core.Aggregation{
			Entity:   req.AggEntity,
			Activity: req.AggActivity,
			Agent:    req.AggAgent,
		},
	}
	psg, err := st.summarizeAt(core.NewWork(r.Context()), queries, core.Options{}, sumOpts)
	if err != nil {
		writeErr(w, queryErrCode(err), "summarize: %v", err)
		return
	}
	var dot strings.Builder
	if format == FormatDOT {
		if err := psg.WriteDOT(&dot); err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = writePsgJSON(w, psg, dot.String()) // as in writeSegmentReply: the client is gone
}

func (s *Server) handleQuery(st *Store, w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeErr(w, http.StatusBadRequest, "query: empty query text")
		return
	}
	timeout := defaultCypherTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > maxCypherTimeout {
			timeout = maxCypherTimeout
		}
	}
	maxRows := defaultCypherMaxRows
	if req.MaxRows > 0 && req.MaxRows < maxRows {
		maxRows = req.MaxRows
	}
	opts := cypher.Options{Timeout: timeout, MaxRows: maxRows, MaxPathLen: req.MaxPathLen}
	// Evaluated and rendered at one pinned snapshot; a client that hangs up
	// stops the evaluation.
	ep := st.Epoch()
	res, err := st.cypherAt(r.Context(), ep, req.Query, opts)
	if err != nil {
		writeErr(w, queryErrCode(err), "query: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, encodeResult(ep.P, res))
}

func (s *Server) handleIngest(st *Store, w http.ResponseWriter, r *http.Request) {
	if st.Follower() {
		redirectToLeader(st.LeaderURL(), w, r)
		return
	}
	var req IngestRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "ingest: empty op batch")
		return
	}
	resp := IngestResponse{Results: make([]IngestResult, 0, len(req.Ops))}
	epoch, err := st.updateEpoch(r.Context(), func(rec *prov.Recorder) error {
		// Validate the whole batch against the pre-batch graph first so the
		// batch applies atomically: either every op commits or none does.
		// Input ids must reference vertices that existed before the batch
		// (chain across batches using the returned ids).
		for i, op := range req.Ops {
			if err := validateOp(rec.P, op); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		for _, op := range req.Ops {
			switch op.Op {
			case "agent":
				resp.Results = append(resp.Results, IngestResult{ID: uint32(rec.Agent(op.Agent))})
			case "import":
				resp.Results = append(resp.Results, IngestResult{ID: uint32(rec.Import(op.Agent, op.Artifact, op.URL))})
			case "snapshot":
				resp.Results = append(resp.Results, IngestResult{ID: uint32(rec.Snapshot(op.Artifact))})
			case "run":
				a, outs := rec.Run(op.Agent, op.Command, toVertexIDs(op.Inputs), op.Outputs)
				res := IngestResult{ID: uint32(a)}
				for _, o := range outs {
					res.Outputs = append(res.Outputs, uint32(o))
				}
				resp.Results = append(resp.Results, res)
			}
		}
		// Snapshot the totals while still holding the write lock so the
		// reply reflects exactly this batch's commit point, not later
		// concurrent batches.
		resp.Vertices = rec.P.NumVertices()
		resp.Edges = rec.P.NumEdges()
		return nil
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrBackpressure):
			// The batch was rejected before mutating anything; the committer
			// drains the queue continuously, so a short fixed hint suffices.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "ingest: %v", err)
		case errors.Is(err, ErrStoreClosed):
			writeErr(w, http.StatusServiceUnavailable, "ingest: %v", err)
		default:
			writeErr(w, http.StatusBadRequest, "ingest: %v", err)
		}
		return
	}
	// The committed epoch doubles as a read-your-writes token: pass it back
	// as X-Min-Epoch on a follower read and the reply is guaranteed to
	// reflect this batch.
	resp.Epoch = epoch
	writeJSON(w, http.StatusOK, &resp)
}

// redirectToLeader answers a write aimed at a follower store: 307 with a
// Location on the leader (same path, so a client that follows redirects
// just works) plus the X-Repl-Leader header for clients that re-aim
// themselves.
func redirectToLeader(leader string, w http.ResponseWriter, r *http.Request) {
	w.Header().Set(repl.HeaderLeader, leader)
	w.Header().Set("Location", leader+r.URL.Path)
	writeErr(w, http.StatusTemporaryRedirect,
		"store is a read-only follower; write to the leader at %s", leader)
}

// validateOp checks one ingest op against the current graph; it must reject
// anything that would make the recorder panic (bad input kinds, out-of-range
// ids).
func validateOp(p *prov.Graph, op IngestOp) error {
	switch op.Op {
	case "agent":
		if op.Agent == "" {
			return errors.New(`"agent" op needs a non-empty agent name`)
		}
	case "import":
		if op.Agent == "" || op.Artifact == "" {
			return errors.New(`"import" op needs agent and artifact`)
		}
	case "snapshot":
		if op.Artifact == "" {
			return errors.New(`"snapshot" op needs an artifact name`)
		}
	case "run":
		if op.Agent == "" || op.Command == "" {
			return errors.New(`"run" op needs agent and command`)
		}
		if len(op.Outputs) == 0 {
			return errors.New(`"run" op needs at least one output artifact`)
		}
		for _, out := range op.Outputs {
			if out == "" {
				// An empty artifact name would create a nameless snapshot
				// whose version chain is lost on reload (WrapRecorder keys
				// versions by filename).
				return errors.New(`"run" op output artifact names must be non-empty`)
			}
		}
		for _, in := range op.Inputs {
			if int(in) >= p.NumVertices() {
				return fmt.Errorf("input vertex %d out of range", in)
			}
			if !p.IsKind(graph.VertexID(in), prov.KindEntity) {
				return fmt.Errorf("input vertex %d is not an entity", in)
			}
		}
	default:
		return fmt.Errorf("unknown op %q (want agent, import, snapshot, run)", op.Op)
	}
	return nil
}

func (s *Server) handleStats(st *Store, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, st.Stats())
}

// wantsPrometheus reports whether a /metrics request asked for the text
// exposition format: ?format=prometheus wins, else an Accept header naming
// text/plain or an openmetrics type. The JSON panel stays the default so
// existing consumers (and curl without headers) see what they always did.
func wantsPrometheus(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("format")) {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := strings.ToLower(r.Header.Get("Accept"))
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(st *Store, w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		// The unprefixed endpoint is the scrape target: one exposition over
		// every store. The /stores/{name}/metrics spelling scopes to its
		// store.
		stores := []*Store{st}
		if r.PathValue("store") == "" {
			stores = s.reg.List()
		}
		s.writePrometheus(w, stores)
		return
	}
	writeJSON(w, http.StatusOK, st.Metrics().MetricsResponse)
}

// handleWALStream serves GET /stores/{name}/wal?from=N: the replication
// stream — checkpoint (if the ring no longer covers from+1) followed by the
// live log tail, framed exactly as on-disk WAL records. Works on any store,
// including followers (chained replication reads the replicated ring).
func (s *Server) handleWALStream(st *Store, w http.ResponseWriter, r *http.Request) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad from %q: %v", v, err)
			return
		}
		from = n
	}
	repl.ServeStream(w, r, repl.ServeOptions{
		From:          from,
		Hub:           st.EnableRepl(),
		Snapshot:      st.SnapshotBytes,
		ForceSnapshot: from == 0 && st.nonEmptyBase.Load(),
	})
}

// handlePromote serves POST /stores/{name}/promote: seal the follower's
// applier and open the write path. Idempotence is deliberate one-way —
// promoting a store that is already a leader is a 409, so an operator
// script that raced another promotion finds out.
func (s *Server) handlePromote(st *Store, w http.ResponseWriter, r *http.Request) {
	if err := st.Promote(); err != nil {
		writeErr(w, http.StatusConflict, "promote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Store: st.Name(), Epoch: st.Epoch().N})
}

// handleSlow serves GET /debug/slow: the slow-query ring, newest first,
// each entry carrying its request id, query shape, status and — for ingest
// — the commit-pipeline stage breakdown.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SlowResponse{
		ThresholdMillis: s.slowThresh.Milliseconds(),
		Total:           s.slow.Total(),
		Entries:         s.slow.Snapshot(),
	})
}

func (s *Server) handleHealthz(st *Store, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStoreCreate serves PUT /stores/{name}: open (or return) the named
// store, optionally (re)configuring its admission policy from the request
// body. Creation is idempotent — a retried PUT reports created=false — and
// everything is validated before the data directory is touched: a hostile
// name or a malformed body gets a uniform JSON 400 with no store created.
func (s *Server) handleStoreCreate(w http.ResponseWriter, r *http.Request) {
	if leader := s.reg.opts.Leader; leader != "" {
		// Follower registries mirror the leader's store set via discovery;
		// creating here would fork the topology.
		redirectToLeader(leader, w, r)
		return
	}
	name := r.PathValue("store")
	if !ValidStoreName(name) {
		writeErr(w, http.StatusBadRequest, "invalid store name %q (want 1-%d chars of [a-zA-Z0-9_-])", name, maxStoreName)
		return
	}
	var req StoreCreateRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if req.QoS != nil {
			if err := req.QoS.Validate(); err != nil {
				writeErr(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
	}
	st, created, err := s.reg.Create(name)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "create store: %v", err)
		return
	}
	if req.QoS != nil {
		if err := st.SetQoS(*req.QoS); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, StoreCreateResponse{
		Store: name, Created: created, Epoch: st.Epoch().N,
		QoS: st.QoSConfigSnapshot(),
	})
}

// handleStoreList serves GET /stores: every store with its headline state.
func (s *Server) handleStoreList(w http.ResponseWriter, r *http.Request) {
	stores := s.reg.List()
	resp := StoreListResponse{Stores: make([]StoreInfo, 0, len(stores))}
	for _, st := range stores {
		ep := st.Epoch()
		resp.Stores = append(resp.Stores, StoreInfo{
			Name:     st.Name(),
			Epoch:    ep.N,
			Vertices: ep.Vertices,
			Edges:    ep.Edges,
			Durable:  st.Durable(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExport(st *Store, w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	var contentType string
	var export func(io.Writer) error
	switch strings.ToLower(format) {
	case "", "prov-json":
		contentType, export = "application/json", st.ExportJSON
	case "dot":
		contentType, export = "text/vnd.graphviz", st.ExportDOT
	case "pg":
		contentType, export = "application/octet-stream", st.Save
	default:
		writeErr(w, http.StatusBadRequest, "unknown format %q (want prov-json, dot, pg)", format)
		return
	}
	w.Header().Set("Content-Type", contentType)
	cw := &countingWriter{w: w}
	if err := export(cw); err != nil && cw.n == 0 {
		// Nothing streamed yet, so the status line is still ours to set.
		// After the first byte (e.g. the client hung up mid-stream) an
		// error status can no longer be delivered; just drop the request.
		writeErr(w, http.StatusInternalServerError, "export: %v", err)
	}
}

// countingWriter tracks whether any bytes reached the response.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
