// Package provdb is a provenance management and querying library for data
// science lifecycles, reproducing "Understanding Data Science Lifecycle
// Provenance via Graph Segmentation and Summarization" (Miao & Deshpande,
// ICDE 2019).
//
// It stores W3C PROV provenance graphs in an embedded property graph and
// provides the paper's two high-level query operators:
//
//   - PgSeg — graph segmentation: given source and destination entities and
//     flexible boundary criteria, induce the subgraph explaining how the
//     destinations were generated, including "similar path" ancestors
//     defined by the context-free language L(SimProv).
//
//   - PgSum — graph summarization: combine multiple segments into a
//     provenance summary graph that merges equivalent vertices (under a
//     property aggregation and a k-hop provenance type) while preserving
//     the path-label language exactly.
//
// Quickstart:
//
//	g := provdb.New()
//	data := g.Import("alice", "dataset", "http://example.com/faces")
//	model := g.Import("alice", "model", "")
//	_, outs := g.Run("alice", "train", []provdb.VertexID{data, model}, []string{"weights", "logs"})
//	seg, _ := g.Segment(provdb.Query{Src: []provdb.VertexID{data}, Dst: outs[:1]})
//	seg.Render(os.Stdout)
//
// The implementation lives in internal/ packages (one per subsystem: the
// property graph store, the PROV model, compressed bitmaps, CFL
// reachability, the operators, baselines, and workload generators); this
// package is the stable facade examples and benchmarks use.
package provdb

import (
	"context"
	"io"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/psum"
)

// Re-exported identifier and model types.
type (
	// VertexID identifies a vertex in a provenance graph.
	VertexID = graph.VertexID
	// EdgeID identifies an edge.
	EdgeID = graph.EdgeID
	// Value is a property value (String / Int / Float / Bool).
	Value = graph.Value
	// Kind is a PROV vertex kind (entity, activity, agent).
	Kind = prov.Kind
	// Rel is a PROV relationship type.
	Rel = prov.Rel
)

// Re-exported PROV constants.
const (
	KindEntity   = prov.KindEntity
	KindActivity = prov.KindActivity
	KindAgent    = prov.KindAgent

	RelUsed  = prov.RelUsed
	RelGen   = prov.RelGen
	RelAssoc = prov.RelAssoc
	RelAttr  = prov.RelAttr
	RelDeriv = prov.RelDeriv
)

// Property value constructors.
var (
	// String wraps a string property value.
	String = graph.String
	// Int wraps an integer property value.
	Int = graph.Int
	// Float wraps a float property value.
	Float = graph.Float
	// Bool wraps a boolean property value.
	Bool = graph.Bool
)

// Segmentation (PgSeg) types.
type (
	// Query is the PgSeg 3-tuple (Vsrc, Vdst, Boundary).
	Query = core.Query
	// Boundary holds exclusion filters and expansion specifications.
	Boundary = core.Boundary
	// Expansion asks for ancestry within K activities of the Within set.
	Expansion = core.Expansion
	// VertexFilter is the vertex exclusion predicate. It is called from
	// several goroutines during one Segment; it must be safe for concurrent
	// use.
	VertexFilter = core.VertexFilter
	// EdgeFilter is the edge exclusion predicate. It is called from several
	// goroutines during one Segment; it must be safe for concurrent use.
	EdgeFilter = core.EdgeFilter
	// Segment is a PgSeg result subgraph.
	Segment = core.Segment
	// SegmentOptions select the VC2 solver and its knobs.
	SegmentOptions = core.Options
	// SolverKind names a VC2 algorithm.
	SolverKind = core.SolverKind
)

// VC2 solver kinds.
const (
	// SolverTst is SimProvTst, the default per-destination linear solver.
	SolverTst = core.SolverTst
	// SolverAlg is SimProvAlg on the rewritten grammar.
	SolverAlg = core.SolverAlg
	// SolverCflrB is the generic CFLR baseline.
	SolverCflrB = core.SolverCflrB
)

// Summarization (PgSum) types.
type (
	// SumOptions configure PgSum: property aggregation K and provenance
	// type radius Rk.
	SumOptions = core.SumOptions
	// Aggregation is K = (K_E, K_A, K_U).
	Aggregation = core.Aggregation
	// Psg is a provenance summary graph.
	Psg = core.Psg
	// PsgNode / PsgEdge are its elements.
	PsgNode = core.PsgNode
	// PsgEdge is a frequency-annotated summary edge.
	PsgEdge = core.PsgEdge
)

// Generator configurations (paper Sec. V).
type (
	// PdConfig parameterizes the lifecycle graph generator.
	PdConfig = gen.PdConfig
	// SdConfig parameterizes the similar-segment generator.
	SdConfig = gen.SdConfig
)

// Fast-set factories for SegmentOptions.Sets.
var (
	// BitsetSets uses dense bitsets (default).
	BitsetSets = bitmap.Factory(bitmap.BitsetFactory)
	// RoaringSets uses compressed bitmaps (the paper's Cbm variants). Only
	// SimProvAlg and CflrB read SegmentOptions.Sets; SimProvTst's runners
	// keep their own scratch.
	RoaringSets = bitmap.Factory(bitmap.RoaringFactory)
)

// Graph is a provenance graph with lifecycle-recording conveniences.
type Graph struct {
	rec *prov.Recorder
}

// New returns an empty provenance graph.
func New() *Graph {
	return &Graph{rec: prov.NewRecorder()}
}

// wrap adapts an existing PROV graph, rebuilding the lifecycle indexes so
// recording resumes where the loaded graph left off (artifact versions keep
// counting, agents are reused instead of duplicated).
func wrap(p *prov.Graph) *Graph {
	return &Graph{rec: prov.WrapRecorder(p)}
}

// Prov exposes the underlying PROV-typed graph. Add edges through its
// prov.Graph methods (prov.Graph.AddRel types each one): PgSeg follows only
// the relations a vertex's kind can have, so an edge appended through the
// raw property graph (PG) that breaks the PROV typing is invisible to some
// of its walks. Validate checks a graph changed that way.
func (g *Graph) Prov() *prov.Graph { return g.rec.P }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.rec.P.NumVertices() }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.rec.P.NumEdges() }

// Validate checks PROV well-formedness (typed endpoints, acyclicity).
func (g *Graph) Validate() error { return g.rec.P.Validate() }

// --- lifecycle recording (Fig. 1's ingestion surface) ---

// Agent returns (creating if needed) the agent vertex for a team member.
func (g *Graph) Agent(name string) VertexID { return g.rec.Agent(name) }

// Import records an externally added artifact snapshot attributed to agent.
func (g *Graph) Import(agent, artifact, url string) VertexID {
	return g.rec.Import(agent, artifact, url)
}

// Snapshot records a new version of an artifact without a generating
// activity.
func (g *Graph) Snapshot(artifact string) VertexID { return g.rec.Snapshot(artifact) }

// Run records an activity by agent that used inputs and generated new
// snapshots of the named output artifacts.
func (g *Graph) Run(agent, command string, inputs []VertexID, outputs []string) (VertexID, []VertexID) {
	return g.rec.Run(agent, command, inputs, outputs)
}

// Latest returns the newest snapshot of an artifact.
func (g *Graph) Latest(artifact string) (VertexID, bool) { return g.rec.Latest(artifact) }

// Version returns the n-th (1-based) snapshot of an artifact.
func (g *Graph) Version(artifact string, n int) (VertexID, bool) { return g.rec.Version(artifact, n) }

// SetProp sets a vertex property.
func (g *Graph) SetProp(v VertexID, key string, val Value) {
	g.rec.P.PG().SetVertexProp(v, key, val)
}

// Prop reads a vertex property.
func (g *Graph) Prop(v VertexID, key string) Value { return g.rec.P.PG().VertexProp(v, key) }

// Name returns the display name of a vertex.
func (g *Graph) Name(v VertexID) string { return g.rec.P.Name(v) }

// --- querying ---

// Segment evaluates a PgSeg query with default options (SimProvTst). It
// assumes the graph is PROV-typed, as every edge added through the facade or
// prov.Graph.AddRel is and as Load checks (see Prov).
func (g *Graph) Segment(q Query) (*Segment, error) {
	return g.SegmentWith(q, SegmentOptions{})
}

// SegmentWith evaluates a PgSeg query with explicit solver options.
func (g *Graph) SegmentWith(q Query, opts SegmentOptions) (*Segment, error) {
	return core.NewEngine(g.rec.P, opts).Segment(q)
}

// NewSegment builds a segment from an explicit vertex set (externally
// delimited slices enter PgSum this way).
func (g *Graph) NewSegment(vertices []VertexID) *Segment {
	return core.NewSegment(g.rec.P, vertices)
}

// AdjustExclude applies extra exclusion boundaries to a cached segment.
func (g *Graph) AdjustExclude(s *Segment, b Boundary) *Segment {
	return core.NewEngine(g.rec.P, SegmentOptions{}).AdjustExclude(s, b)
}

// AdjustExpand grows a cached segment by an expansion specification.
func (g *Graph) AdjustExpand(s *Segment, ex Expansion) (*Segment, error) {
	return core.NewEngine(g.rec.P, SegmentOptions{}).AdjustExpand(s, ex)
}

// Summarize evaluates PgSum over a set of segments.
func Summarize(segs []*Segment, opts SumOptions) (*Psg, error) {
	return core.Summarize(segs, opts)
}

// PSumBaseline runs the pSum answer-graph summarization baseline and
// returns its compaction ratio (for comparison experiments).
func PSumBaseline(segs []*Segment, k Aggregation) float64 {
	return psum.Summarize(segs, psum.Options{K: k}).CompactionRatio()
}

// CypherOptions bound the baseline Cypher evaluator.
type CypherOptions = cypher.Options

// CypherResult is a baseline query result.
type CypherResult = cypher.Result

// Cypher evaluates a query in the supported Cypher subset (the paper's
// Neo4j baseline; exponential on variable-length path joins).
func (g *Graph) Cypher(query string, opts CypherOptions) (*CypherResult, error) {
	return cypher.NewProvEvaluator(g.rec.P, opts).Run(context.Background(), query)
}

// --- persistence & interchange ---

// Save writes the graph in the binary property-graph format.
func (g *Graph) Save(w io.Writer) error { return g.rec.P.PG().Save(w) }

// Load reads a graph written by Save and checks it as a PROV graph
// (prov.Graph.Validate: PROV labels, endpoint kinds, acyclicity).
func Load(r io.Reader) (*Graph, error) {
	pg, err := graph.Load(r)
	if err != nil {
		return nil, err
	}
	p := prov.Wrap(pg)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return wrap(p), nil
}

// ExportJSON writes the PROV-JSON-style interchange document.
func (g *Graph) ExportJSON(w io.Writer) error { return g.rec.P.ExportJSON(w) }

// ImportJSON reads a PROV-JSON-style document.
func ImportJSON(r io.Reader) (*Graph, error) {
	p, err := prov.ImportJSON(r)
	if err != nil {
		return nil, err
	}
	return wrap(p), nil
}

// --- generators ---

// GeneratePd builds a synthetic lifecycle provenance graph (paper Sec.
// V(a)).
func GeneratePd(cfg PdConfig) *Graph { return wrap(gen.Pd(cfg)) }

// GenerateSd builds |S| conceptually similar segments over one graph
// (paper Sec. V(b)).
func GenerateSd(cfg SdConfig) (*Graph, []*Segment) {
	p, segs := gen.Sd(cfg)
	return wrap(p), segs
}

// DefaultPdQuery returns the paper's most challenging query on a Pd graph:
// first two entities as sources, last two as destinations.
func DefaultPdQuery(g *Graph) (src, dst []VertexID) { return gen.DefaultQuery(g.rec.P) }

// PdQueryAtRank places the sources at a percentile of the entity order of
// being (Fig. 5d).
func PdQueryAtRank(g *Graph, percent int) (src, dst []VertexID) {
	return gen.QueryAtRank(g.rec.P, percent)
}

// SdSumOptions returns the summarization options the Sd experiments use.
func SdSumOptions() SumOptions { return gen.SdSumOptions() }

// ExcludeRels builds a boundary that excludes whole PROV edge types.
func ExcludeRels(rels ...Rel) Boundary { return Boundary{ExcludeRels: rels} }
