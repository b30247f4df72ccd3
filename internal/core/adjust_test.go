package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// TestAdjustExclude: the interactive adjust step filters a cached segment
// without re-induction; query vertices survive any filter.
func TestAdjustExclude(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 300, Seed: 3}).Freeze()
	src, dst := gen.DefaultQuery(p)
	eng := core.NewEngine(p, core.Options{})
	seg, err := eng.Segment(core.Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	// Exclude all agents.
	out := eng.AdjustExclude(seg, core.Boundary{
		VertexFilters: []core.VertexFilter{func(p *prov.Graph, v graph.VertexID) bool {
			return !p.IsKind(v, prov.KindAgent)
		}},
	})
	for _, v := range out.Vertices() {
		if p.IsKind(v, prov.KindAgent) {
			t.Fatal("agent survived exclusion")
		}
	}
	if out.NumVertices() >= seg.NumVertices() {
		t.Fatal("exclusion removed nothing")
	}
	// Survivors carry their rule over, still parallel to Vertices.
	if len(out.Rules) != len(out.Vertices()) {
		t.Fatalf("Rules not parallel to the vertex runs: %d vs %d", len(out.Rules), len(out.Vertices()))
	}
	for i, v := range out.Vertices() {
		if r, ok := seg.RuleOf(v); !ok || r != out.Rules[i] {
			t.Fatalf("vertex %d: rule %v after exclusion, %v (%v) before", v, out.Rules[i], r, ok)
		}
	}
	// Edges incident to removed vertices are gone.
	g := p.PG()
	for _, e := range out.Edges() {
		if !out.Contains(g.Src(e)) || !out.Contains(g.Dst(e)) {
			t.Fatal("dangling edge after exclusion")
		}
	}
	// A filter that rejects everything still keeps the query vertices.
	all := eng.AdjustExclude(seg, core.Boundary{
		VertexFilters: []core.VertexFilter{func(*prov.Graph, graph.VertexID) bool { return false }},
	})
	for _, v := range append(append([]graph.VertexID{}, src...), dst...) {
		if !all.Contains(v) {
			t.Fatal("query vertex dropped by exclusion")
		}
	}
}

// TestAdjustExpand: expansion grows the cached segment monotonically and
// matches re-running the query with the expansion in the boundary.
func TestAdjustExpand(t *testing.T) {
	g, names := fig2(t)
	eng := core.NewEngine(g, core.Options{})
	base := core.Query{
		Src:      []graph.VertexID{names["dataset"]},
		Dst:      []graph.VertexID{names["weights2"]},
		Boundary: core.Boundary{ExcludeRels: []prov.Rel{prov.RelAttr, prov.RelDeriv}},
	}
	seg, err := eng.Segment(base)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := eng.AdjustExpand(seg, core.Expansion{Within: []graph.VertexID{names["weights2"]}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AdjustExpand(seg, core.Expansion{Within: []graph.VertexID{1 << 30}, K: 1}); err == nil {
		t.Fatal("out-of-range expansion vertex accepted")
	}
	if grown.NumVertices() <= seg.NumVertices() {
		t.Fatal("expansion grew nothing")
	}
	for _, v := range seg.Vertices() {
		if !grown.Contains(v) {
			t.Fatal("expansion lost a vertex")
		}
	}
	// Rule attribution merges: old vertices keep theirs, new ones are C2.
	if len(grown.Rules) != len(grown.Vertices()) {
		t.Fatalf("Rules not parallel to the vertex runs: %d vs %d", len(grown.Rules), len(grown.Vertices()))
	}
	for i, v := range grown.Vertices() {
		want := core.RuleC2
		if r, ok := seg.RuleOf(v); ok {
			want = r
		}
		if grown.Rules[i] != want {
			t.Fatalf("vertex %d: rule %v after expansion, want %v", v, grown.Rules[i], want)
		}
	}
	if _, ok := seg.RuleOf(names["update2"]); ok {
		t.Fatal("RuleOf reports a vertex outside the segment")
	}
	if !grown.Contains(names["update2"]) || !grown.Contains(names["model1"]) {
		t.Fatal("expansion missed the k=2 ancestry")
	}
}

// fig2 builds the paper's Fig. 2 graph at the core level (without the root
// facade, to keep the test inside the operator package's external suite).
func fig2(t *testing.T) (*prov.Graph, map[string]graph.VertexID) {
	t.Helper()
	rc := prov.NewRecorder()
	names := map[string]graph.VertexID{}
	names["dataset"] = rc.Import("Alice", "dataset", "http://x")
	names["model1"] = rc.Import("Alice", "model", "")
	names["solver1"] = rc.Import("Alice", "solver", "")
	_, o1 := rc.Run("Alice", "train", []graph.VertexID{names["model1"], names["solver1"], names["dataset"]}, []string{"logs", "weights"})
	names["weights1"] = o1[1]
	up2, mo := rc.Run("Alice", "update", []graph.VertexID{names["model1"]}, []string{"model"})
	names["update2"] = up2
	names["model2"] = mo[0]
	_, o2 := rc.Run("Alice", "train", []graph.VertexID{names["model2"], names["solver1"], names["dataset"]}, []string{"logs", "weights"})
	names["weights2"] = o2[1]
	return rc.P.Freeze(), names
}

// TestSegmentErrors: malformed queries are rejected.
func TestSegmentErrors(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 100, Seed: 1}).Freeze()
	eng := core.NewEngine(p, core.Options{})
	if _, err := eng.Segment(core.Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
	ents := p.Entities()
	if _, err := eng.Segment(core.Query{Src: []graph.VertexID{ents[0]}, Dst: []graph.VertexID{graph.VertexID(1 << 30)}}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	acts := p.Activities()
	if _, err := eng.Segment(core.Query{Src: []graph.VertexID{acts[0]}, Dst: []graph.VertexID{ents[0]}}); err == nil {
		t.Fatal("non-entity query vertex accepted")
	}
}

// TestSrcEqualsDst: the paper allows Vsrc = Vdst (program-issued slicing);
// the zero-length palindrome must anchor the vertex itself.
func TestSrcEqualsDst(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 200, Seed: 5}).Freeze()
	ents := p.Entities()
	v := ents[len(ents)-1]
	eng := core.NewEngine(p, core.Options{})
	seg, err := eng.Segment(core.Query{Src: []graph.VertexID{v}, Dst: []graph.VertexID{v}})
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Contains(v) {
		t.Fatal("self-query lost its vertex")
	}
	// All three solvers agree on self-queries.
	for _, kind := range []core.SolverKind{core.SolverAlg, core.SolverCflrB} {
		e2 := core.NewEngine(p, core.Options{Solver: kind})
		s2, err := e2.Segment(core.Query{Src: []graph.VertexID{v}, Dst: []graph.VertexID{v}})
		if err != nil {
			t.Fatal(err)
		}
		if s2.NumVertices() != seg.NumVertices() {
			t.Fatalf("%v: self-query differs: %d vs %d", kind, s2.NumVertices(), seg.NumVertices())
		}
	}
}
