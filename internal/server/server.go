package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/obs"
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
	for i, ep := range endpoints {
		s.mux.HandleFunc(ep.method+" /"+ep.name, func(w http.ResponseWriter, r *http.Request) {
			s.serveEndpoint(s.reg.Default(), i, w, r)
		})
		s.mux.HandleFunc(ep.method+" /stores/{store}/"+ep.name, func(w http.ResponseWriter, r *http.Request) {
			st, err := s.reg.Get(r.PathValue("store"))
			if err != nil {
				writeErr(w, http.StatusNotFound, "%v", err)
				return
			}
			s.serveEndpoint(st, i, w, r)
		})
	}
	s.mux.HandleFunc("PUT /stores/{store}", s.handleStoreCreate)
	s.mux.HandleFunc("GET /stores", s.handleStoreList)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	return s
}

// endpoint is one store-scoped endpoint: its method and name (routed at
// /<name> and /stores/{store}/<name>), its handler and its policy.
type endpoint struct {
	method, name string
	serve        func(*Server, *Store, *statusWriter, *http.Request)
	policy       endpointPolicy
}

// endpointPolicy is the set of ways serveEndpoint treats an endpoint's
// requests beyond the defaults.
type endpointPolicy uint8

const (
	// unmetered endpoints bypass the store's QoS limits: health probes and
	// metrics scrapes must keep answering on an overloaded (or deliberately
	// throttled) store — they are how the overload is seen. Replication
	// streams are exempt too: a wal tail lives for hours and would otherwise
	// pin a concurrency slot, and promote is the failover control path —
	// exactly when a store may be throttled.
	unmetered endpointPolicy = 1 << iota
	// commitStages endpoints write: their slow-ring entries carry the
	// request's commit-stage record.
	commitStages
)

// numEndpoints is the number of store-scoped endpoints.
const numEndpoints = 11

// endpoints is every store-scoped endpoint, in the order /metrics and the
// Prometheus exposition list them; a store's request counters are indexed
// by position. It is filled by init because /metrics reads it back: a
// package-level initializer naming handleMetrics would depend on itself.
var endpoints [numEndpoints]endpoint

func init() {
	endpoints = [...]endpoint{
		{"POST", "segment", (*Server).handleSegment, 0},
		{"POST", "summarize", (*Server).handleSummarize, 0},
		{"POST", "query", (*Server).handleQuery, 0},
		{"POST", "adjust", (*Server).handleAdjust, 0},
		{"POST", "ingest", (*Server).handleIngest, commitStages},
		{"GET", "stats", (*Server).handleStats, 0},
		{"GET", "metrics", (*Server).handleMetrics, unmetered},
		{"GET", "healthz", (*Server).handleHealthz, unmetered},
		{"GET", "export", (*Server).handleExport, 0},
		{"GET", "wal", (*Server).handleWALStream, unmetered},
		{"POST", "promote", (*Server).handlePromote, unmetered},
	}
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
// itself); status class and latency record on completion. Admission
// control runs inside the wrapper: a 429 carries the request id and counts
// in the endpoint's status-class and latency metrics exactly like any other
// completion. slot is the endpoint's index into endpoints.
func (s *Server) serveEndpoint(st *Store, slot int, w http.ResponseWriter, r *http.Request) {
	ep := &endpoints[slot]
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
	if ep.policy&unmetered != 0 {
		ep.serve(s, st, sw, r.WithContext(ctx))
	} else if release, retry, ok := st.Admit(); ok {
		if minEpochSatisfied(st, sw, r) {
			ep.serve(s, st, sw, r.WithContext(ctx))
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
		if ep.policy&commitStages != 0 {
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

// statusClientClosed is the status recorded for a request whose client
// hung up before the reply (nginx's 499): nothing is written to the closed
// connection, and /metrics counts it as canceled, not as a client error.
const statusClientClosed = 499

// writeOpErr answers an error of op (a query or a write) with errStatus's
// status and an error body, or, when the client hung up (the request's
// context is canceled), records statusClientClosed and writes nothing.
func writeOpErr(w *statusWriter, err error, op string) {
	if errors.Is(err, context.Canceled) {
		w.status = statusClientClosed
		return
	}
	code := errStatus(err)
	if code == http.StatusTooManyRequests {
		// A batch refused for backpressure mutated nothing; the committer
		// drains the queue continuously, so a short fixed hint suffices.
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, code, "%s: %v", op, err)
}

// errStatus maps an operator or write error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrStoreClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFollower):
		return http.StatusConflict
	case errors.Is(err, cypher.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, cypher.ErrRowBudget), errors.Is(err, core.ErrNotDAG), errors.As(err, new(*core.BudgetError)):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}
