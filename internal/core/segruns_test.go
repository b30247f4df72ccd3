package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// TestSegmentRuns: on every kind of segment core builds, the vertex and
// edge runs are strictly ascending and maximal, their lengths sum to the
// counts and Rules is parallel to them, Contains and RuleOf agree with
// Vertices on every id up to past the last run (the gaps between runs
// included), Edges expands the edge runs, and Rebase shares the runs, Rules
// and the support set.
func TestSegmentRuns(t *testing.T) {
	other := prov.New().Freeze()
	check := func(t *testing.T, tag string, s *core.Segment) {
		t.Helper()
		if err := maximal(s.VertexRuns); err != nil {
			t.Fatalf("%s: vertex runs: %v", tag, err)
		}
		if err := maximal(s.EdgeRuns); err != nil {
			t.Fatalf("%s: edge runs: %v", tag, err)
		}
		vs, es := s.Vertices(), s.Edges()
		if runIDs(s.VertexRuns) != s.NumVertices() || len(vs) != s.NumVertices() || len(s.Rules) != s.NumVertices() {
			t.Fatalf("%s: %d vertices in runs, %d listed, %d rules, NumVertices %d", tag, runIDs(s.VertexRuns), len(vs), len(s.Rules), s.NumVertices())
		}
		if runIDs(s.EdgeRuns) != s.NumEdges() || len(es) != s.NumEdges() || !slices.IsSorted(es) {
			t.Fatalf("%s: %d edges in runs, %d listed, NumEdges %d", tag, runIDs(s.EdgeRuns), len(es), s.NumEdges())
		}
		if !slices.IsSorted(vs) {
			t.Fatalf("%s: Vertices is not ascending", tag)
		}
		k, end := 0, graph.VertexID(2)
		if len(vs) > 0 {
			end += vs[len(vs)-1]
		}
		for v := graph.VertexID(0); v < end; v++ {
			in := k < len(vs) && vs[k] == v
			r, ok := s.RuleOf(v)
			if s.Contains(v) != in || ok != in || in && r != s.Rules[k] {
				t.Fatalf("%s: vertex %d: Contains %v, RuleOf %v %v; listed %v", tag, v, s.Contains(v), r, ok, in)
			}
			if in {
				k++
			}
		}
		r := s.Rebase(other)
		if r.P != other || s.P == other || r.Support() != s.Support() ||
			len(s.Rules) > 0 && &r.Rules[0] != &s.Rules[0] ||
			len(s.VertexRuns) > 0 && &r.VertexRuns[0] != &s.VertexRuns[0] ||
			len(s.EdgeRuns) > 0 && &r.EdgeRuns[0] != &s.EdgeRuns[0] {
			t.Fatalf("%s: the rebased copy does not share the segment's runs, Rules and support set", tag)
		}
	}

	for _, n := range []int{2000, 20000} {
		eng, qs := pdPoolQueries(t, n, 16)
		var vs, vruns, es, eruns int
		for i, q := range qs {
			s, err := eng.Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("Pd-%d pool query %d", n, i), s)
			vs, vruns, es, eruns = vs+s.NumVertices(), vruns+len(s.VertexRuns), es+s.NumEdges(), eruns+len(s.EdgeRuns)
		}
		t.Logf("Pd-%d pool: a segment averages %d vertices in %d runs, %d edges in %d runs",
			n, vs/len(qs), vruns/len(qs), es/len(qs), eruns/len(qs))
	}

	_, segs := gen.Sd(gen.SdConfig{Segments: 4, Seed: 3})
	for i, s := range segs {
		check(t, fmt.Sprintf("Sd segment %d", i), s)
	}

	p := gen.Pd(gen.PdConfig{N: 300, Seed: 3}).Freeze()
	src, dst := gen.DefaultQuery(p)
	eng := core.NewEngine(p, core.Options{})
	s, err := eng.Segment(core.Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "Pd-300 default query", s)
	excl := eng.AdjustExclude(s, core.Boundary{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAttr}})
	if excl.Support() != nil {
		t.Fatal("an adjusted segment has a support set")
	}
	check(t, "AdjustExclude", excl)
	grown, err := eng.AdjustExpand(excl, core.Expansion{Within: dst, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "AdjustExpand", grown)
	exp, err := eng.Segment(core.Query{Src: src, Dst: dst, Boundary: core.Boundary{
		ExcludeRels: []prov.Rel{prov.RelAttr},
		Expansions:  []core.Expansion{{Within: dst, K: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "query with expansions", exp)

	one, err := core.NewSegment(p, []graph.VertexID{dst[0]})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "single vertex", one)
}

// maximal reports a run that is empty, out of order, or that ends one
// below the next run's First (two runs that should be one).
func maximal[ID ~uint32](runs []core.Run[ID]) error {
	for i, r := range runs {
		if r.First > r.Last {
			return fmt.Errorf("run %d is %v", i, r)
		}
		if i > 0 && runs[i-1].Last+1 >= r.First {
			return fmt.Errorf("runs %d and %d are %v and %v", i-1, i, runs[i-1], r)
		}
	}
	return nil
}

// runIDs is the number of ids in runs.
func runIDs[ID ~uint32](runs []core.Run[ID]) int {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	return n
}
