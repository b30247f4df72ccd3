package core_test

import (
	"fmt"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// bruteForceVC2 computes VC2 directly from the language semantics: both
// halves of an L(SimProv) path are ancestry paths from some vj in Vdst with
// identical label sequences, which on a plain-labeled PROV graph means
// identical activity-depth. So for each vj and each depth m at which a
// source entity is reachable by an alternating G/U ancestry path, VC2
// contains every vertex on every alternating ancestry path of exactly m
// activity-steps from vj.
//
// Every path is enumerated twice rather than stored: the first enumeration
// records the depths that reach a source, the second marks the DFS stack at
// each path end of such a depth.
func bruteForceVC2(p *prov.Graph, src, dst []graph.VertexID, maxDepth int) map[graph.VertexID]bool {
	srcSet := make([]bool, p.NumVertices())
	for _, s := range src {
		srcSet[s] = true
	}
	marked := make([]bool, p.NumVertices())
	// stack holds the current path vj, a1, e1, ..., a_depth, e_depth; the
	// per-depth neighbor buffers are reused across the whole enumeration.
	var stack []graph.VertexID
	acts := make([][]graph.VertexID, maxDepth+1)
	ins := make([][]graph.VertexID, maxDepth+1)
	var walk func(depth int, visit func(depth int))
	walk = func(depth int, visit func(depth int)) {
		visit(depth)
		if depth == maxDepth {
			return
		}
		cur := stack[len(stack)-1]
		acts[depth] = p.GeneratorsOf(cur, acts[depth][:0])
		for _, a := range acts[depth] {
			ins[depth] = p.InputsOf(a, ins[depth][:0])
			for _, e := range ins[depth] {
				stack = append(stack, a, e)
				walk(depth+1, visit)
				stack = stack[:len(stack)-2]
			}
		}
	}
	for _, vj := range dst {
		stack = append(stack[:0], vj)
		hasSrc := make([]bool, maxDepth+1)
		walk(0, func(depth int) {
			if srcSet[stack[len(stack)-1]] {
				hasSrc[depth] = true
			}
		})
		walk(0, func(depth int) {
			if hasSrc[depth] {
				for _, v := range stack {
					marked[v] = true
				}
			}
		})
	}
	out := make(map[graph.VertexID]bool)
	for v, m := range marked {
		if m {
			out[graph.VertexID(v)] = true
		}
	}
	return out
}

func setFromBitset(b *bitmap.Bitset) map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool)
	b.Iterate(func(x uint32) bool {
		out[graph.VertexID(x)] = true
		return true
	})
	return out
}

func sameVertexSet(t *testing.T, name string, got, want map[graph.VertexID]bool) {
	t.Helper()
	for v := range want {
		if !got[v] {
			t.Errorf("%s: missing vertex %d", name, v)
		}
	}
	for v := range got {
		if !want[v] {
			t.Errorf("%s: extra vertex %d", name, v)
		}
	}
}

func vc2With(t *testing.T, p *prov.Graph, opts core.Options, q core.Query) map[graph.VertexID]bool {
	t.Helper()
	e := core.NewEngine(p, opts)
	set, err := e.SimilarPaths(q)
	if err != nil {
		t.Fatalf("%v: %v", opts.Solver, err)
	}
	return setFromBitset(set)
}

// TestSolverEquivalenceOnPd cross-checks SimProvTst, SimProvAlg and CflrB
// against each other and against the brute-force semantics on a family of
// small random lifecycle graphs.
func TestSolverEquivalenceOnPd(t *testing.T) {
	depthCap := 14
	sizes := []int{40, 80, 150}
	if testing.Short() {
		sizes = []int{40, 80}
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range sizes {
			p := gen.Pd(gen.PdConfig{N: n, Seed: seed})
			if err := p.Validate(); err != nil {
				t.Fatalf("seed=%d n=%d: invalid graph: %v", seed, n, err)
			}
			src, dst := gen.DefaultQuery(p)
			q := core.Query{Src: src, Dst: dst}

			want := bruteForceVC2(p, src, dst, depthCap)
			for _, kind := range []core.SolverKind{core.SolverTst, core.SolverAlg, core.SolverCflrB} {
				got := vc2With(t, p, core.Options{Solver: kind}, q)
				sameVertexSet(t, fmt.Sprintf("seed=%d n=%d %v", seed, n, kind), got, want)
			}
		}
	}
}

// TestSolverEquivalenceRoaring checks the Cbm (compressed bitmap) variants
// give identical answers.
func TestSolverEquivalenceRoaring(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 150, Seed: 3})
	src, dst := gen.DefaultQuery(p)
	q := core.Query{Src: src, Dst: dst}
	want := vc2With(t, p, core.Options{Solver: core.SolverAlg}, q)
	for _, kind := range []core.SolverKind{core.SolverAlg, core.SolverCflrB} {
		got := vc2With(t, p, core.Options{Solver: kind, Sets: bitmap.RoaringFactory}, q)
		sameVertexSet(t, fmt.Sprintf("%v+cbm", kind), got, want)
	}
}

// TestEarlyStopAndPruningPreserveAnswers verifies the optimizations are
// semantics-preserving (they only skip work that cannot contribute).
func TestEarlyStopAndPruningPreserveAnswers(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := gen.Pd(gen.PdConfig{N: 120, Seed: seed})
		// Sources in the middle make early stopping actually fire.
		src, dst := gen.QueryAtRank(p, 50)
		q := core.Query{Src: src, Dst: dst}
		want := vc2With(t, p, core.Options{Solver: core.SolverAlg, NoEarlyStop: true, NoPruning: true}, q)
		got := vc2With(t, p, core.Options{Solver: core.SolverAlg}, q)
		sameVertexSet(t, "alg early-stop", got, want)
		gotTst := vc2With(t, p, core.Options{Solver: core.SolverTst}, q)
		sameVertexSet(t, "tst early-stop", gotTst, want)
		gotTstNo := vc2With(t, p, core.Options{Solver: core.SolverTst, NoEarlyStop: true}, q)
		sameVertexSet(t, "tst no-early-stop", gotTstNo, want)
	}
}

// TestBoundaryExclusionConsistency checks that all solvers agree under
// vertex-exclusion boundaries.
func TestBoundaryExclusionConsistency(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 120, Seed: 7})
	src, dst := gen.DefaultQuery(p)
	q := core.Query{
		Src: src,
		Dst: dst,
		Boundary: core.Boundary{
			VertexFilters: []core.VertexFilter{func(p *prov.Graph, v graph.VertexID) bool {
				return v%7 != 3
			}},
		},
	}
	want := vc2With(t, p, core.Options{Solver: core.SolverAlg}, q)
	for _, kind := range []core.SolverKind{core.SolverTst, core.SolverCflrB} {
		got := vc2With(t, p, core.Options{Solver: kind}, q)
		sameVertexSet(t, fmt.Sprintf("boundary %v", kind), got, want)
	}
}

// TestPropertyConstrainedMatch checks the sigma(a_i,p)=sigma(a_j,p)
// generalization: SimProvAlg and SimProvTst must agree, and constrained
// results must be a subset of unconstrained ones.
func TestPropertyConstrainedMatch(t *testing.T) {
	seeds, n := int64(5), 150
	if testing.Short() {
		// SimProvAlg on Pd150 dominates short runs (~3s/seed); one smaller
		// seed still exercises the constrained-match path end to end.
		seeds, n = 1, 100
	}
	for seed := int64(1); seed <= seeds; seed++ {
		p := gen.Pd(gen.PdConfig{N: n, Seed: seed})
		src, dst := gen.DefaultQuery(p)
		q := core.Query{Src: src, Dst: dst}
		optsA := core.Options{Solver: core.SolverAlg, MatchActivityProp: prov.PropCommand}
		optsT := core.Options{Solver: core.SolverTst, MatchActivityProp: prov.PropCommand}
		got := vc2With(t, p, optsA, q)
		gotT := vc2With(t, p, optsT, q)
		sameVertexSet(t, "prop-match alg vs tst", gotT, got)

		unconstrained := vc2With(t, p, core.Options{Solver: core.SolverAlg}, q)
		for v := range got {
			if !unconstrained[v] {
				t.Errorf("seed=%d: constrained result has vertex %d outside unconstrained set", seed, v)
			}
		}
	}
}

// TestSegmentAssemblyAcrossSolvers checks the full PgSeg result (all four
// induction rules) is identical for every solver.
func TestSegmentAssemblyAcrossSolvers(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 200, Seed: 11})
	src, dst := gen.DefaultQuery(p)
	q := core.Query{Src: src, Dst: dst}
	ref, err := core.NewEngine(p, core.Options{Solver: core.SolverTst}).Segment(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Vertices) == 0 || len(ref.Edges) == 0 {
		t.Fatalf("reference segment empty: %d vertices %d edges", len(ref.Vertices), len(ref.Edges))
	}
	for _, kind := range []core.SolverKind{core.SolverAlg, core.SolverCflrB} {
		seg, err := core.NewEngine(p, core.Options{Solver: kind}).Segment(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Vertices) != len(ref.Vertices) || len(seg.Edges) != len(ref.Edges) {
			t.Fatalf("%v: segment differs: %d/%d vertices, %d/%d edges",
				kind, len(seg.Vertices), len(ref.Vertices), len(seg.Edges), len(ref.Edges))
		}
		for i, v := range seg.Vertices {
			if ref.Vertices[i] != v {
				t.Fatalf("%v: vertex list differs at %d", kind, i)
			}
		}
	}
}

// TestQueryValidation: SimilarPaths and Segment index their scratch by the
// query's vertex ids, so both refuse, with the same errors, what the other
// refuses — ids the graph does not have (SimilarPaths used to die with an
// index out of range inside the sweep), non-entities, empty sides.
func TestQueryValidation(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 300, Seed: 1}).Freeze()
	src, dst := gen.DefaultQuery(p)
	beyond := graph.VertexID(p.NumVertices() + 5)
	activity := p.Activities()[0]
	for _, tc := range []struct {
		name string
		q    core.Query
		want string
	}{
		{"src out of range", core.Query{Src: []graph.VertexID{beyond}, Dst: dst}, fmt.Sprintf("core: query vertex %d out of range", beyond)},
		{"dst out of range", core.Query{Src: src, Dst: []graph.VertexID{beyond}}, fmt.Sprintf("core: query vertex %d out of range", beyond)},
		{"dst huge", core.Query{Src: src, Dst: []graph.VertexID{1<<32 - 1}}, "core: query vertex 4294967295 out of range"},
		{"src not an entity", core.Query{Src: []graph.VertexID{activity}, Dst: dst}, fmt.Sprintf("core: query vertex %d is not an entity", activity)},
		{"dst not an entity", core.Query{Src: src, Dst: []graph.VertexID{dst[0], activity}}, fmt.Sprintf("core: query vertex %d is not an entity", activity)},
		{"empty src", core.Query{Dst: dst}, core.ErrEmptyQuery.Error()},
		{"empty dst", core.Query{Src: src}, core.ErrEmptyQuery.Error()},
		{"expansion out of range", core.Query{Src: src, Dst: dst, Boundary: core.Boundary{Expansions: []core.Expansion{{Within: []graph.VertexID{beyond}, K: 1}}}}, fmt.Sprintf("core: expansion vertex %d out of range", beyond)},
	} {
		for _, solver := range []core.SolverKind{core.SolverTst, core.SolverAlg, core.SolverCflrB} {
			eng := core.NewEngine(p, core.Options{Solver: solver})
			if _, err := eng.SimilarPaths(tc.q); err == nil || err.Error() != tc.want {
				t.Errorf("%s/%v: SimilarPaths error %v, want %q", tc.name, solver, err, tc.want)
			}
			if _, err := eng.Segment(tc.q); err == nil || err.Error() != tc.want {
				t.Errorf("%s/%v: Segment error %v, want %q", tc.name, solver, err, tc.want)
			}
		}
	}
	if _, err := core.NewEngine(p, core.Options{}).SimilarPaths(core.Query{Src: src, Dst: dst}); err != nil {
		t.Fatalf("valid query refused: %v", err)
	}
}
