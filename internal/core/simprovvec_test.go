package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/cflr"
	"repro/internal/graph"
	"repro/internal/prov"
)

// White-box coverage of the set-at-a-time VC2 solvers (simprovvec.go): the
// level-synchronous SimProvTst and the round-grouped SimProvAlg must match
// their scalar counterparts exactly on every query shape the gate admits —
// including excluded relations, disabled early stopping, non-monotone
// ingestion and the fact-budget error path — and the regime choice itself
// must pick the side the options and the snapshot statistics dictate.

// vc2Set runs SimilarPaths under the given options and returns the result
// as a map.
func vc2Set(t *testing.T, p *prov.Graph, q Query, opts Options) map[uint32]bool {
	t.Helper()
	set, err := NewEngine(p, opts).SimilarPaths(q)
	if err != nil {
		t.Fatalf("SimilarPaths(%+v): %v", opts, err)
	}
	m := map[uint32]bool{}
	set.Iterate(func(x uint32) bool { m[x] = true; return true })
	return m
}

func diffSets(t *testing.T, label string, want, got map[uint32]bool) {
	t.Helper()
	for v := range want {
		if !got[v] {
			t.Errorf("%s: vectorized solver missing vertex %d", label, v)
		}
	}
	for v := range got {
		if !want[v] {
			t.Errorf("%s: vectorized solver has extra vertex %d", label, v)
		}
	}
}

// solverPair diffs the forced-vectorized solver against the scalar one on a
// frozen snapshot for both SimProvTst and SimProvAlg.
func solverPair(t *testing.T, label string, fz *prov.Graph, q Query, base Options) {
	t.Helper()
	for _, solver := range []SolverKind{SolverTst, SolverAlg} {
		scalar, vec := base, base
		scalar.Solver, vec.Solver = solver, solver
		scalar.ScalarTraversal = true
		vec.ForceVecSolver = true
		diffSets(t, fmt.Sprintf("%s/%v", label, solver),
			vc2Set(t, fz, q, scalar), vc2Set(t, fz, q, vec))
	}
}

func TestVecSolversAgreeOnLifecycle(t *testing.T) {
	for rounds := 1; rounds <= 6; rounds++ {
		p, src, dst := smallLifecycle(rounds)
		fz := p.Freeze()
		q := Query{Src: src, Dst: dst}
		solverPair(t, fmt.Sprintf("rounds=%d", rounds), fz, q, Options{})
		solverPair(t, fmt.Sprintf("rounds=%d/noearlystop", rounds), fz, q, Options{NoEarlyStop: true})
	}
}

func TestVecSolversExcludedRels(t *testing.T) {
	p, src, dst := smallLifecycle(5)
	fz := p.Freeze()
	for _, excl := range [][]prov.Rel{
		{prov.RelGen},
		{prov.RelUsed},
		{prov.RelGen, prov.RelUsed},
		{prov.RelDeriv, prov.RelAssoc},
	} {
		q := Query{Src: src, Dst: dst, Boundary: Boundary{ExcludeRels: excl}}
		solverPair(t, fmt.Sprintf("excl=%v", excl), fz, q, Options{})
	}
}

// TestVecSolversNonMonotone: out-of-order ingestion (an ancestry edge toward
// a newer id) bars the depth/height bitvec path for the scalar solver, but
// the level-synchronous solver mirrors the class-chain iteration and stays
// exact.
func TestVecSolversNonMonotone(t *testing.T) {
	p := prov.New()
	// Activities created before their inputs: Used edges point old -> new.
	a1 := p.NewActivity("a1")
	a2 := p.NewActivity("a2")
	src := p.NewEntity("src")
	mid := p.NewEntity("mid")
	dst := p.NewEntity("dst")
	p.Used(a1, src)
	p.WasGeneratedBy(mid, a1)
	p.Used(a2, mid)
	p.WasGeneratedBy(dst, a2)
	eng := NewEngine(p, Options{})
	if eng.ancestryMonotone() {
		t.Fatal("graph should be non-monotone")
	}
	fz := p.Freeze()
	q := Query{Src: []graph.VertexID{src}, Dst: []graph.VertexID{dst}}
	solverPair(t, "nonmonotone", fz, q, Options{})
	solverPair(t, "nonmonotone/noearlystop", fz, q, Options{NoEarlyStop: true})
}

// wideLifecycle records enough ancestry edges to clear vecSolverMinEdges,
// with fan-in across artifacts so VC2 is non-trivial.
func wideLifecycle(runs int) (*prov.Graph, []graph.VertexID, []graph.VertexID) {
	rc := prov.NewRecorder()
	d := rc.Import("a", "data", "")
	m := rc.Import("a", "model", "")
	cur := []graph.VertexID{d, m}
	for i := 0; i < runs; i++ {
		_, out := rc.Run("a", "step", cur, []string{"o1", "o2", "o3"})
		cur = []graph.VertexID{out[i%3], out[(i+1)%3], d}
	}
	_, final := rc.Run("a", "final", cur, []string{"result"})
	return rc.P, []graph.VertexID{d, m}, final
}

// TestVecSolverRegimeChoice pins the DegreeStats heuristic: the set-at-a-time
// path engages by default exactly when the snapshot's ancestry blocks reach
// vecSolverMinEdges, and never on live graphs, scalar-forced engines, or
// property-constrained queries.
func TestVecSolverRegimeChoice(t *testing.T) {
	small, _, _ := smallLifecycle(3)
	big, _, _ := wideLifecycle(800) // ~4800 U+G edges
	ad := func(p *prov.Graph) *adjacency { return newAdjacency(p, Boundary{}) }

	cases := []struct {
		name string
		p    *prov.Graph
		opts Options
		want bool
	}{
		{"small-default", small.Freeze(), Options{}, false},
		{"small-forced", small.Freeze(), Options{ForceVecSolver: true}, true},
		{"big-default", big.Freeze(), Options{}, true},
		{"big-scalar", big.Freeze(), Options{ScalarTraversal: true}, false},
		{"live-forced", big, Options{ForceVecSolver: true}, false},
		{"big-matchprop", big.Freeze(), Options{MatchActivityProp: "x"}, false},
	}
	for _, tc := range cases {
		if got := NewEngine(tc.p, tc.opts).vecSolverChosen(ad(tc.p)); got != tc.want {
			t.Errorf("%s: vecSolverChosen = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Filtered boundaries are never vectorized.
	fz := big.Freeze()
	adf := newAdjacency(fz, Boundary{VertexFilters: []VertexFilter{
		func(*prov.Graph, graph.VertexID) bool { return true },
	}})
	if NewEngine(fz, Options{ForceVecSolver: true}).vecSolverChosen(adf) {
		t.Error("filtered boundary must stay scalar")
	}
}

// TestVecSolverDefaultAboveThreshold: above the edge threshold the default
// engine takes the vectorized path; its results must still match a forced
// scalar run (the dispatch itself, not just the forced variants).
func TestVecSolverDefaultAboveThreshold(t *testing.T) {
	p, src, dst := wideLifecycle(800)
	fz := p.Freeze()
	eng := NewEngine(fz, Options{})
	if !eng.vecSolverChosen(newAdjacency(fz, Boundary{})) {
		t.Fatal("threshold graph should choose the vectorized solver by default")
	}
	q := Query{Src: src, Dst: dst}
	for _, solver := range []SolverKind{SolverTst, SolverAlg} {
		diffSets(t, fmt.Sprintf("default/%v", solver),
			vc2Set(t, fz, q, Options{Solver: solver, ScalarTraversal: true}),
			vc2Set(t, fz, q, Options{Solver: solver}))
	}
}

// TestVecSolverExcludedBlocksNotRead pins the block-skipping contract: a
// boundary excluding a relation must keep the vectorized solvers from ever
// acquiring that relation's CSR block.
func TestVecSolverExcludedBlocksNotRead(t *testing.T) {
	p, src, dst := smallLifecycle(4)
	fz := p.Freeze()
	genLabel := fz.RelLabel(prov.RelGen)
	for _, solver := range []SolverKind{SolverTst, SolverAlg} {
		sawGen := false
		restore := graph.SetRowReadHook(func(l graph.Label, out bool) {
			if l == genLabel {
				sawGen = true
			}
		})
		q := Query{Src: src, Dst: dst, Boundary: Boundary{ExcludeRels: []prov.Rel{prov.RelGen}}}
		_, err := NewEngine(fz, Options{Solver: solver, ForceVecSolver: true}).SimilarPaths(q)
		restore()
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if sawGen {
			t.Errorf("%v: excluded G block was read", solver)
		}
	}
}

// TestVecAlgFactBudget: the vectorized SimProvAlg honors MaxFacts.
func TestVecAlgFactBudget(t *testing.T) {
	p, src, dst := smallLifecycle(5)
	fz := p.Freeze()
	opts := Options{Solver: SolverAlg, ForceVecSolver: true, MaxFacts: 2}
	_, err := NewEngine(fz, opts).SimilarPaths(Query{Src: src, Dst: dst})
	if !errors.Is(err, cflr.ErrFactBudget) {
		t.Fatalf("want ErrFactBudget, got %v", err)
	}
}

// TestVecAlgFallsBackOnCustomSets: an explicitly chosen set representation
// (the Roaring ablation) must keep the scalar worklist even when the
// vectorized gate would otherwise fire — and the results still agree.
func TestVecAlgFallsBackOnCustomSets(t *testing.T) {
	p, src, dst := smallLifecycle(5)
	fz := p.Freeze()
	q := Query{Src: src, Dst: dst}
	roaring := vc2Set(t, fz, q, Options{
		Solver: SolverAlg, ForceVecSolver: true, Sets: bitmap.RoaringFactory,
	})
	diffSets(t, "roaring-fallback",
		vc2Set(t, fz, q, Options{Solver: SolverAlg, ScalarTraversal: true}), roaring)
}

// TestVecSolverSegmentParity diffs whole segments (vertices, edges, rule
// attribution) between forced-vectorized and scalar engines.
func TestVecSolverSegmentParity(t *testing.T) {
	p, src, dst := smallLifecycle(6)
	fz := p.Freeze()
	q := Query{Src: src, Dst: dst}
	for _, solver := range []SolverKind{SolverTst, SolverAlg} {
		sv, err := NewEngine(fz, Options{Solver: solver, ScalarTraversal: true}).Segment(q)
		if err != nil {
			t.Fatal(err)
		}
		vv, err := NewEngine(fz, Options{Solver: solver, ForceVecSolver: true}).Segment(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(sv.Vertices) != len(vv.Vertices) || len(sv.Edges) != len(vv.Edges) {
			t.Fatalf("%v: segment size mismatch: %d/%d vertices, %d/%d edges",
				solver, len(sv.Vertices), len(vv.Vertices), len(sv.Edges), len(vv.Edges))
		}
		for i, v := range sv.Vertices {
			if vv.Vertices[i] != v {
				t.Fatalf("%v: vertex %d: %d vs %d", solver, i, v, vv.Vertices[i])
			}
			if sv.Rules[i] != vv.Rules[i] {
				t.Errorf("%v: rule mismatch at %d: %v vs %v", solver, v, sv.Rules[i], vv.Rules[i])
			}
		}
		for i, eid := range sv.Edges {
			if vv.Edges[i] != eid {
				t.Fatalf("%v: edge %d: %d vs %d", solver, i, eid, vv.Edges[i])
			}
		}
	}
}
