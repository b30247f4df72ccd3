package graph

import "sync/atomic"

// Freeze-time degree statistics. Snapshots are immutable, so one cheap
// counting pass per freeze (or a delta-sized update per incremental
// extension) yields exact per-label edge counts the query planners can
// trust for the snapshot's whole lifetime: the traversal engine sizes its
// top-down/bottom-up direction switch with them, and the Cypher planner
// orders labels and prices pattern anchors without touching a single row.
//
// The stats must stay byte-for-byte consistent between a full Freeze and an
// ExtendFrozen chain — the difftest harness diffs them at every epoch.

// DegreeStats are the per-snapshot adjacency statistics.
type DegreeStats struct {
	// labelEdges counts the edges carrying each label, indexed by Label.
	// Every edge has exactly one out- and one in-occurrence, so the count
	// serves both directions.
	labelEdges []int
	vertices   int
	edges      int
}

// EdgesWithLabel returns the number of edges carrying the label.
func (s *DegreeStats) EdgesWithLabel(l Label) int {
	if s == nil || int(l) >= len(s.labelEdges) {
		return 0
	}
	return s.labelEdges[int(l)]
}

// NumVertices returns the snapshot's vertex count at freeze time.
func (s *DegreeStats) NumVertices() int {
	if s == nil {
		return 0
	}
	return s.vertices
}

// NumEdges returns the snapshot's edge count at freeze time.
func (s *DegreeStats) NumEdges() int {
	if s == nil {
		return 0
	}
	return s.edges
}

// AvgDegree returns the mean per-vertex row length of the label's block in
// either direction: edges of the label over all vertices. This is the
// expected cost of scattering one frontier vertex's row top-down, and of
// probing one unvisited vertex bottom-up.
func (s *DegreeStats) AvgDegree(l Label) float64 {
	if s == nil || s.vertices == 0 {
		return 0
	}
	return float64(s.EdgesWithLabel(l)) / float64(s.vertices)
}

// Degrees returns the snapshot's degree statistics, or nil on a live graph
// (the statistics are only exact — and only safely shareable — on an
// immutable snapshot).
func (g *Graph) Degrees() *DegreeStats { return g.degrees }

// clone returns an independent copy an incremental extension can update.
func (s *DegreeStats) clone(nl int) *DegreeStats {
	le := make([]int, nl)
	copy(le, s.labelEdges)
	return &DegreeStats{labelEdges: le, vertices: s.vertices, edges: s.edges}
}

// Row-read instrumentation. The query engines' contract is that a
// boundary excluding a relation (or a planner proving a label irrelevant)
// skips that label's CSR blocks outright — no row of an excluded block is
// ever fetched. Tests pin that contract by installing a hook that observes
// every per-label row read on frozen snapshots. The hook is test-only: the
// hot path pays one atomic pointer load, which is a plain MOV on the
// architectures we run, and nil-skips in steady state.
var rowReadHook atomic.Pointer[func(Label, bool)]

// SetRowReadHook installs fn to observe every per-label CSR row read
// (label, direction) on frozen graphs, returning a restore function that
// removes it. Passing nil clears the hook. Intended for tests only; the
// hook must be race-free or the calling test must not read graphs
// concurrently.
func SetRowReadHook(fn func(label Label, out bool)) (restore func()) {
	if fn == nil {
		rowReadHook.Store(nil)
		return func() {}
	}
	p := &fn
	rowReadHook.Store(p)
	return func() { rowReadHook.CompareAndSwap(p, nil) }
}

func hookRowRead(label Label, out bool) {
	if fn := rowReadHook.Load(); fn != nil {
		(*fn)(label, out)
	}
}
