package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/repl"
)

// wantsDOT checks a /segment, /adjust or /summarize request's format
// before the (potentially expensive) solve runs: it reports whether the
// reply carries a DOT rendering, or writes a 400 and reports ok false.
func wantsDOT(w http.ResponseWriter, format string) (dot, ok bool) {
	switch strings.ToLower(format) {
	case "", FormatJSON:
		return false, true
	case FormatDOT:
		return true, true
	}
	writeErr(w, http.StatusBadRequest, "unknown format %q (want json, dot)", format)
	return false, false
}

// writeReply streams a /segment, /adjust or /summarize result: body writes
// its JSON, carrying g's DOT rendering when dot is set. Once the 200 is out
// a failed write can only mean the client is gone; the encode stops there
// and nothing is logged.
func writeReply(w http.ResponseWriter, dot bool, g interface{ WriteDOT(io.Writer) error }, body func(w io.Writer, dot string) error) {
	var b strings.Builder
	if dot {
		if err := g.WriteDOT(&b); err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = body(w, b.String())
}

func (s *Server) handleSegment(st *Store, w *statusWriter, r *http.Request) {
	var req SegmentRequest
	if !decode(w, r, &req) {
		return
	}
	dot, ok := wantsDOT(w, req.Format)
	if !ok {
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
		writeOpErr(w, err, "segment")
		return
	}
	writeReply(w, dot, seg, func(w io.Writer, d string) error { return writeSegmentJSON(w, ep.replies, seg, cached, d) })
}

// handleAdjust serves the paper's interactive adjust step: the base PgSeg
// query is resolved through the segment cache, then the requested
// AdjustExclude / AdjustExpand refinements derive the adjusted segment
// without re-running the solver.
func (s *Server) handleAdjust(st *Store, w *statusWriter, r *http.Request) {
	var req AdjustRequest
	if !decode(w, r, &req) {
		return
	}
	dot, ok := wantsDOT(w, req.Format)
	if !ok {
		return
	}
	q, opts, err := req.Segment.toQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rels, err := parseLetters("relationship", wireRels, req.ExcludeRels)
	var kinds []prov.Kind
	if err == nil {
		kinds, err = parseLetters("vertex kind", wireKinds, req.ExcludeKinds)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	exps, err := toExpansions(req.Expansions)
	if err != nil {
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
	if len(rels) == 0 && len(kinds) == 0 && len(exps) == 0 {
		writeErr(w, http.StatusBadRequest, "adjust: needs exclude_rels, exclude_kinds or expansions")
		return
	}
	ep := st.Epoch()
	seg, cached, err := st.adjustAt(core.NewWork(r.Context()), ep, q, opts, excl, exps)
	if err != nil {
		writeOpErr(w, err, "adjust")
		return
	}
	writeReply(w, dot, seg, func(w io.Writer, d string) error { return writeSegmentJSON(w, ep.replies, seg, cached, d) })
}

func (s *Server) handleSummarize(st *Store, w *statusWriter, r *http.Request) {
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
	dot, ok := wantsDOT(w, req.Format)
	if !ok {
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
	queries := make([]core.Query, len(req.Segments))
	for i, spec := range req.Segments {
		var err error
		if queries[i], _, err = (&SegmentRequest{Src: spec.Src, Dst: spec.Dst, ExcludeRels: spec.ExcludeRels}).toQuery(); err != nil {
			writeErr(w, http.StatusBadRequest, "segment %d: %v", i, err)
			return
		}
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
		writeOpErr(w, err, "summarize")
		return
	}
	writeReply(w, dot, psg, func(w io.Writer, d string) error { return writePsgJSON(w, psg, d) })
}

func (s *Server) handleQuery(st *Store, w *statusWriter, r *http.Request) {
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
	res, err := cypher.NewProvEvaluator(ep.P, opts).Run(r.Context(), req.Query)
	if err != nil {
		writeOpErr(w, err, "query")
		return
	}
	writeJSON(w, http.StatusOK, encodeResult(ep.P, res))
}

func (s *Server) handleIngest(st *Store, w *statusWriter, r *http.Request) {
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
		// Check the whole batch against the pre-batch graph first so the
		// batch applies atomically: either every op commits or none does.
		// Input ids must reference vertices that existed before the batch
		// (chain across batches using the returned ids).
		steps := make([]func(*prov.Recorder) IngestResult, len(req.Ops))
		for i, op := range req.Ops {
			var err error
			if steps[i], err = ingestOp(rec.P, op); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		for _, step := range steps {
			resp.Results = append(resp.Results, step(rec))
		}
		// Snapshot the totals while still holding the write lock so the
		// reply reflects exactly this batch's commit point, not later
		// concurrent batches.
		resp.Vertices = rec.P.NumVertices()
		resp.Edges = rec.P.NumEdges()
		return nil
	})
	if err != nil {
		writeOpErr(w, err, "ingest")
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

// ingestOp checks one ingest op against the pre-batch graph and returns
// the step that records it. The check must reject anything that would make
// the recorder panic (bad input kinds, out-of-range ids).
func ingestOp(p *prov.Graph, op IngestOp) (func(*prov.Recorder) IngestResult, error) {
	switch op.Op {
	case "agent":
		if op.Agent == "" {
			return nil, errors.New(`"agent" op needs a non-empty agent name`)
		}
		return func(rec *prov.Recorder) IngestResult { return IngestResult{ID: uint32(rec.Agent(op.Agent))} }, nil
	case "import":
		if op.Agent == "" || op.Artifact == "" {
			return nil, errors.New(`"import" op needs agent and artifact`)
		}
		return func(rec *prov.Recorder) IngestResult {
			return IngestResult{ID: uint32(rec.Import(op.Agent, op.Artifact, op.URL))}
		}, nil
	case "snapshot":
		if op.Artifact == "" {
			return nil, errors.New(`"snapshot" op needs an artifact name`)
		}
		return func(rec *prov.Recorder) IngestResult { return IngestResult{ID: uint32(rec.Snapshot(op.Artifact))} }, nil
	case "run":
		if op.Agent == "" || op.Command == "" {
			return nil, errors.New(`"run" op needs agent and command`)
		}
		if len(op.Outputs) == 0 {
			return nil, errors.New(`"run" op needs at least one output artifact`)
		}
		for _, out := range op.Outputs {
			if out == "" {
				// An empty artifact name would create a nameless snapshot
				// whose version chain is lost on reload (WrapRecorder keys
				// versions by filename).
				return nil, errors.New(`"run" op output artifact names must be non-empty`)
			}
		}
		for _, in := range op.Inputs {
			if int(in) >= p.NumVertices() {
				return nil, fmt.Errorf("input vertex %d out of range", in)
			}
			if !p.IsKind(graph.VertexID(in), prov.KindEntity) {
				return nil, fmt.Errorf("input vertex %d is not an entity", in)
			}
		}
		return func(rec *prov.Recorder) IngestResult {
			a, outs := rec.Run(op.Agent, op.Command, toVertexIDs(op.Inputs), op.Outputs)
			res := IngestResult{ID: uint32(a)}
			for _, o := range outs {
				res.Outputs = append(res.Outputs, uint32(o))
			}
			return res
		}, nil
	}
	return nil, fmt.Errorf("unknown op %q (want agent, import, snapshot, run)", op.Op)
}

func (s *Server) handleStats(st *Store, w *statusWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, st.Stats())
}

// wantsPrometheus reports whether a /metrics request asked for the text
// exposition format: ?format=prometheus wins, else an Accept header naming
// text/plain or an openmetrics type. The JSON panel stays the default for
// consumers that name no format (curl without headers, scripts reading the
// JSON keys).
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

func (s *Server) handleMetrics(st *Store, w *statusWriter, r *http.Request) {
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
func (s *Server) handleWALStream(st *Store, w *statusWriter, r *http.Request) {
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
func (s *Server) handlePromote(st *Store, w *statusWriter, r *http.Request) {
	if err := st.Promote(); err != nil {
		writeOpErr(w, err, "promote")
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

func (s *Server) handleHealthz(st *Store, w *statusWriter, r *http.Request) {
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
	// An empty (or all-blank) body is no value at all, io.EOF: it keeps the
	// store's configuration.
	var req StoreCreateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.QoS != nil {
		if err := req.QoS.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
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

func (s *Server) handleExport(st *Store, w *statusWriter, r *http.Request) {
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
	if err := export(w); err != nil && w.bytes == 0 {
		// Nothing streamed yet, so the status line is still ours to set.
		// After the first byte (e.g. the client hung up mid-stream) an
		// error status can no longer be delivered; just drop the request.
		writeErr(w, http.StatusInternalServerError, "export: %v", err)
	}
}
