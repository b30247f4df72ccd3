package server

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prov"
)

// Wire types: the JSON request/response schema of every endpoint. Vertex and
// edge ids are the dense uint32 ids of the underlying property graph;
// relationship types use the paper's one-letter convention (U, G, S, A, D).

// Output formats.
const (
	// FormatJSON is the default structured response.
	FormatJSON = "json"
	// FormatDOT renders the result subgraph in graphviz DOT.
	FormatDOT = "dot"
)

// ExpansionSpec is one expansion boundary b_x(Within, K).
type ExpansionSpec struct {
	Within []uint32 `json:"within"`
	K      int      `json:"k"`
}

// SegmentRequest is the POST /segment body.
type SegmentRequest struct {
	Src []uint32 `json:"src"`
	Dst []uint32 `json:"dst"`
	// ExcludeRels lists PROV edge types excluded by the boundary (one-letter
	// names: U, G, S, A, D).
	ExcludeRels []string        `json:"exclude_rels,omitempty"`
	Expansions  []ExpansionSpec `json:"expansions,omitempty"`
	// Solver names the VC2 algorithm; "tst" (SimProvTst, the default) is the
	// only one served. The baselines SimProvAlg and CflrB stay in the library
	// and the CLIs: CflrB alone runs out of memory at Pd-50k.
	Solver string `json:"solver,omitempty"`
	// Format is "json" (default) or "dot".
	Format string `json:"format,omitempty"`
	// NoCache bypasses the segment result cache.
	NoCache bool `json:"no_cache,omitempty"`
}

// VertexInfo describes one segment vertex.
type VertexInfo struct {
	ID   uint32 `json:"id"`
	Kind string `json:"kind"` // E, A, or U
	Name string `json:"name,omitempty"`
	Rule string `json:"rule,omitempty"` // induction rule that contributed it
}

// EdgeInfo describes one segment edge.
type EdgeInfo struct {
	ID  uint32 `json:"id"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	Rel string `json:"rel"` // U, G, S, A, or D
}

// SegmentResponse is the POST /segment reply.
type SegmentResponse struct {
	NumVertices int          `json:"num_vertices"`
	NumEdges    int          `json:"num_edges"`
	Vertices    []VertexInfo `json:"vertices,omitempty"`
	Edges       []EdgeInfo   `json:"edges,omitempty"`
	// Cached reports whether the result was served from the LRU cache.
	Cached bool `json:"cached"`
	// DOT carries the graphviz rendering when format=dot.
	DOT string `json:"dot,omitempty"`
}

// AdjustRequest is the POST /adjust body: the base segmentation query
// (resolved through the segment cache) plus the interactive adjustment to
// apply to its result — additional relationship-type exclusions
// (AdjustExclude) and/or expansion boundaries (AdjustExpand). At least one
// adjustment must be given.
type AdjustRequest struct {
	Segment SegmentRequest `json:"segment"`
	// ExcludeRels are additional PROV edge types to exclude from the cached
	// segment (one-letter names: U, G, S, A, D).
	ExcludeRels []string `json:"exclude_rels,omitempty"`
	// ExcludeKinds are PROV vertex kinds to exclude (one-letter names: E,
	// A, U — e.g. "U" hides all agents). Query vertices always survive.
	ExcludeKinds []string `json:"exclude_kinds,omitempty"`
	// Expansions grow the segment by ancestry within k activities of the
	// given entities.
	Expansions []ExpansionSpec `json:"expansions,omitempty"`
	// Format is "json" (default) or "dot".
	Format string `json:"format,omitempty"`
}

// StoreCreateRequest is the optional PUT /stores/{name} body. An empty
// body keeps the store's current configuration (the original creation
// API), so existing clients are unaffected.
type StoreCreateRequest struct {
	// QoS, when present, replaces the store's admission policy — on the
	// store being created, or on an existing store (the PUT is the
	// configuration surface as well as the creation one). A zero config
	// removes all limits.
	QoS *QoSConfig `json:"qos,omitempty"`
}

// StoreCreateResponse is the PUT /stores/{name} reply.
type StoreCreateResponse struct {
	Store string `json:"store"`
	// Created reports whether this request created the store (false: it
	// already existed; the PUT is idempotent).
	Created bool   `json:"created"`
	Epoch   uint64 `json:"epoch"`
	// QoS echoes the store's admission policy after this request (zero
	// when unlimited).
	QoS QoSConfig `json:"qos"`
}

// StoreInfo is one store's headline state in the GET /stores listing.
type StoreInfo struct {
	Name     string `json:"name"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Durable  bool   `json:"durable"`
}

// StoreListResponse is the GET /stores reply, default store first.
type StoreListResponse struct {
	Stores []StoreInfo `json:"stores"`
}

// MetricsResponse is the GET /metrics payload: one snapshot (Store.Metrics)
// of the counters of the store the request was routed to — epoch and graph
// size, the cache, freeze, durability (omitted on memory-only stores), QoS
// and replication panels, and per-endpoint and per-stage traffic.
type MetricsResponse struct {
	Store        string            `json:"store,omitempty"`
	Epoch        uint64            `json:"epoch"`
	Vertices     int               `json:"vertices"`
	Edges        int               `json:"edges"`
	UptimeMillis int64             `json:"uptime_ms"`
	Cache        CacheStats        `json:"cache"`
	Freeze       FreezeStats       `json:"freeze"`
	WAL          *DurabilityStats  `json:"wal,omitempty"`
	Requests     map[string]uint64 `json:"requests"`
	// Endpoints breaks each endpoint's traffic down by status class with a
	// latency summary (p50/p90/p99/max) from the per-endpoint histogram.
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Stages summarizes the write pipeline per commit stage (enqueue =
	// group-commit queue wait, append = WAL write, fsync, publish). All four
	// keys are always present; a stage the store never ran is all zeros.
	Stages map[string]obs.LatencySummary `json:"stages"`
	// QoS is the admission-control panel: the active limits, the
	// admitted/rejected split (rejections by cause), and the in-flight /
	// commit-queue-depth pressure gauges.
	QoS QoSStats `json:"qos"`
	// Repl is the replication panel: applied/leader epochs, record and time
	// lag, and reconnects. Present on followers and promoted ex-followers;
	// omitted on stores that never followed anyone.
	Repl *ReplStats `json:"repl,omitempty"`
}

// SlowResponse is the GET /debug/slow payload: the bounded in-memory ring
// of requests that ran at or over the slow threshold, newest first.
type SlowResponse struct {
	ThresholdMillis int64           `json:"threshold_ms"`
	Total           uint64          `json:"total"`
	Entries         []obs.SlowEntry `json:"entries"`
}

// SegmentSpec identifies one input segment of a summarization request.
type SegmentSpec struct {
	Src         []uint32 `json:"src"`
	Dst         []uint32 `json:"dst"`
	ExcludeRels []string `json:"exclude_rels,omitempty"`
}

// SummarizeRequest is the POST /summarize body.
type SummarizeRequest struct {
	Segments []SegmentSpec `json:"segments"`
	// TypeRadius is Rk's k (provenance-type neighborhood radius).
	TypeRadius int `json:"type_radius,omitempty"`
	// AggActivity / AggEntity / AggAgent are the property-aggregation keys K.
	AggActivity []string `json:"agg_activity,omitempty"`
	AggEntity   []string `json:"agg_entity,omitempty"`
	AggAgent    []string `json:"agg_agent,omitempty"`
	// Format is "json" (default) or "dot".
	Format string `json:"format,omitempty"`
}

// PsgNodeInfo is one summary vertex.
type PsgNodeInfo struct {
	Label   string `json:"label"`
	Members int    `json:"members"`
}

// PsgEdgeInfo is one frequency-annotated summary edge.
type PsgEdgeInfo struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Rel  string  `json:"rel"`
	Freq float64 `json:"freq"`
}

// SummarizeResponse is the POST /summarize reply.
type SummarizeResponse struct {
	Nodes           []PsgNodeInfo `json:"nodes,omitempty"`
	Edges           []PsgEdgeInfo `json:"edges,omitempty"`
	InputVertices   int           `json:"input_vertices"`
	Segments        int           `json:"segments"`
	CompactionRatio float64       `json:"compaction_ratio"`
	DOT             string        `json:"dot,omitempty"`
}

// QueryRequest is the POST /query (Cypher) body.
type QueryRequest struct {
	Query string `json:"query"`
	// TimeoutMillis caps evaluation time (default and ceiling set by the
	// server, see maxCypherTimeout).
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// MaxRows caps intermediate binding tables.
	MaxRows int `json:"max_rows,omitempty"`
	// MaxPathLen caps variable-length path expansion.
	MaxPathLen int `json:"max_path_len,omitempty"`
}

// QueryResponse is the POST /query reply. Each row cell is a rendered value:
// vertices as {"id", "kind", "name"}, paths as {"verts", "edges"}, scalars as
// their JSON form.
type QueryResponse struct {
	NumRows int     `json:"num_rows"`
	Rows    [][]any `json:"rows"`
}

// IngestOp is one lifecycle mutation. Op selects the shape:
//
//   - "agent":    Agent — ensure an agent exists
//   - "import":   Agent, Artifact, URL — record an external artifact
//   - "snapshot": Artifact — record a new version of an artifact
//   - "run":      Agent, Command, Inputs, Outputs — record an activity
type IngestOp struct {
	Op       string   `json:"op"`
	Agent    string   `json:"agent,omitempty"`
	Artifact string   `json:"artifact,omitempty"`
	URL      string   `json:"url,omitempty"`
	Command  string   `json:"command,omitempty"`
	Inputs   []uint32 `json:"inputs,omitempty"`
	Outputs  []string `json:"outputs,omitempty"`
}

// IngestRequest is the POST /ingest body: a batch of lifecycle operations
// applied atomically under the write lock.
type IngestRequest struct {
	Ops []IngestOp `json:"ops"`
}

// IngestResult reports the vertices created by one op: the primary vertex
// (agent, entity, or activity) and, for "run", the output entities.
type IngestResult struct {
	ID      uint32   `json:"id"`
	Outputs []uint32 `json:"outputs,omitempty"`
}

// IngestResponse is the POST /ingest reply. Epoch is the batch's commit
// epoch — a read-your-writes token: present it as X-Min-Epoch on a later
// read (typically against a follower) and the reply is guaranteed to
// reflect this batch or the request fails with 412 naming the leader.
type IngestResponse struct {
	Results  []IngestResult `json:"results"`
	Vertices int            `json:"vertices"`
	Edges    int            `json:"edges"`
	Epoch    uint64         `json:"epoch"`
}

// PromoteResponse is the POST /stores/{name}/promote reply: the store is
// now writable at Epoch.
type PromoteResponse struct {
	Store string `json:"store"`
	Epoch uint64 `json:"epoch"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- decoding helpers ---

func toVertexIDs(ids []uint32) []graph.VertexID {
	out := make([]graph.VertexID, len(ids))
	for i, id := range ids {
		out[i] = graph.VertexID(id)
	}
	return out
}

// The one-letter wire names (prov's String forms) of the relationship types
// and vertex kinds a request may list, in the order errors name them.
var (
	wireRels  = []prov.Rel{prov.RelUsed, prov.RelGen, prov.RelAssoc, prov.RelAttr, prov.RelDeriv}
	wireKinds = []prov.Kind{prov.KindEntity, prov.KindActivity, prov.KindAgent}
)

// parseLetters maps one-letter names (any case, spaces trimmed) to the
// values of all they spell, each at most once, in first-seen order: an 8 MB
// body can repeat a name millions of times, the segment cache key sorts the
// relationship list, and /adjust's vertex filter scans the kind list once
// per segment vertex. what names the list in the error.
func parseLetters[T interface {
	comparable
	String() string
}](what string, all []T, names []string) ([]T, error) {
	var out []T
	for _, n := range names {
		name := strings.ToUpper(strings.TrimSpace(n))
		i := slices.IndexFunc(all, func(v T) bool { return v.String() == name })
		if i < 0 {
			letters := make([]string, len(all))
			for j, v := range all {
				letters[j] = v.String()
			}
			return nil, fmt.Errorf("unknown %s %q (want %s)", what, n, strings.Join(letters, ", "))
		}
		if !slices.Contains(out, all[i]) {
			out = append(out, all[i])
		}
	}
	return out, nil
}

// parseAggKeys keeps each key of a /summarize agg_* list once, in first-seen
// order, and refuses more than maxAggKeys distinct keys and any key longer
// than maxAggKeyBytes: PgSum spells every kept key and its value into every
// segment vertex's signature.
func parseAggKeys(name string, keys []string) ([]string, error) {
	var out []string
	for _, k := range keys {
		if len(k) > maxAggKeyBytes {
			return nil, fmt.Errorf("%s has a key of %d bytes (at most %d)", name, len(k), maxAggKeyBytes)
		}
		if slices.Contains(out, k) {
			continue
		}
		if len(out) == maxAggKeys {
			return nil, fmt.Errorf("%s lists more than %d distinct keys", name, maxAggKeys)
		}
		out = append(out, k)
	}
	return out, nil
}

// parseSolver maps the wire solver name to core options. The baseline
// solvers are refused here, before any solve: one CflrB request at paper
// scale can exhaust the daemon's memory.
func parseSolver(name string) (core.SolverKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "tst":
		return core.SolverTst, nil
	}
	return 0, fmt.Errorf("unknown solver %q (want tst)", name)
}

// toQuery converts a SegmentRequest into the core query + options. A list
// over its cap is refused before its ids are converted.
func (r *SegmentRequest) toQuery() (core.Query, core.Options, error) {
	var q core.Query
	var opts core.Options
	err := checkQueryLists(r.Src, r.Dst)
	if err == nil {
		q.Boundary.Expansions, err = toExpansions(r.Expansions)
	}
	if err == nil {
		q.Boundary.ExcludeRels, err = parseLetters("relationship", wireRels, r.ExcludeRels)
	}
	if err == nil {
		opts.Solver, err = parseSolver(r.Solver)
	}
	if err != nil {
		return core.Query{}, core.Options{}, err
	}
	q.Src, q.Dst = toVertexIDs(r.Src), toVertexIDs(r.Dst)
	return q, opts, nil
}

// checkQueryLists refuses, before any solve, a src or dst list of more than
// maxQueryVertices ids; toExpansions refuses a within list the same way.
func checkQueryLists(src, dst []uint32) error {
	switch {
	case len(src) > maxQueryVertices:
		return tooManyVertices("src", len(src))
	case len(dst) > maxQueryVertices:
		return tooManyVertices("dst", len(dst))
	}
	return nil
}

func tooManyVertices(list string, n int) error {
	return fmt.Errorf("%s lists %d vertices (at most %d)", list, n, maxQueryVertices)
}

// toExpansions converts expansion specs into boundaries b_x(Within, K).
func toExpansions(specs []ExpansionSpec) ([]core.Expansion, error) {
	var out []core.Expansion
	for i, ex := range specs {
		if len(ex.Within) > maxQueryVertices {
			return nil, tooManyVertices(fmt.Sprintf("expansions[%d].within", i), len(ex.Within))
		}
		out = append(out, core.Expansion{Within: toVertexIDs(ex.Within), K: ex.K})
	}
	return out, nil
}

// --- encoding helpers for the small replies; the megabyte-sized ones
// (SegmentResponse, SummarizeResponse) are streamed by reply.go ---

// encodeValue renders one Cypher runtime value as a JSON-friendly any.
func encodeValue(p *prov.Graph, v cypher.Value) any {
	switch v.Kind {
	case cypher.KindVertex:
		return map[string]any{
			"id":   uint32(v.V),
			"kind": p.KindOf(v.V).String(),
			"name": p.Name(v.V),
		}
	case cypher.KindEdge:
		g := p.PG()
		return map[string]any{
			"id":  uint32(v.E),
			"src": uint32(g.Src(v.E)),
			"dst": uint32(g.Dst(v.E)),
			"rel": p.RelOf(v.E).String(),
		}
	case cypher.KindPath:
		verts := make([]uint32, len(v.P.Verts))
		for i, pv := range v.P.Verts {
			verts[i] = uint32(pv)
		}
		edges := make([]uint32, len(v.P.Edges))
		for i, pe := range v.P.Edges {
			edges[i] = uint32(pe)
		}
		return map[string]any{"verts": verts, "edges": edges}
	case cypher.KindList:
		out := make([]any, len(v.L))
		for i, lv := range v.L {
			out[i] = encodeValue(p, lv)
		}
		return out
	case cypher.KindString:
		return v.S
	case cypher.KindInt:
		return v.I
	case cypher.KindBool:
		return v.B
	}
	return nil
}

// encodeResult renders a Cypher result table.
func encodeResult(p *prov.Graph, res *cypher.Result) *QueryResponse {
	resp := &QueryResponse{NumRows: len(res.Rows), Rows: make([][]any, 0, len(res.Rows))}
	for _, row := range res.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = encodeValue(p, v)
		}
		resp.Rows = append(resp.Rows, cells)
	}
	return resp
}
