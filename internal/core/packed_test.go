package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// TestPackRoundTrip: a packed segment unpacks to one that reflect.DeepEquals
// the original (vertex set and support set included) on every kind of
// segment core builds, shares the original's Rules and support set, and
// holds its ids as runs: one per break in the ascending ids.
func TestPackRoundTrip(t *testing.T) {
	check := func(t *testing.T, tag string, s *core.Segment) {
		t.Helper()
		p := s.Pack()
		if got := p.Unpack(); !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: the unpacked segment differs from the original", tag)
		}
		if p.NumVertices() != s.NumVertices() || p.NumEdges() != s.NumEdges() {
			t.Fatalf("%s: packed counts %d/%d, segment %d/%d", tag, p.NumVertices(), p.NumEdges(), s.NumVertices(), s.NumEdges())
		}
		if p.Support() != s.Support() || len(s.Rules) > 0 && &p.Rules[0] != &s.Rules[0] {
			t.Fatalf("%s: the packed form copied the Rules or the support set", tag)
		}
		if want := breaks(s.Vertices); len(p.VertexRuns) != want {
			t.Fatalf("%s: %d vertex runs for %d runs of ids", tag, len(p.VertexRuns), want)
		}
		if want := breaks(s.Edges); len(p.EdgeRuns) != want {
			t.Fatalf("%s: %d edge runs for %d runs of ids", tag, len(p.EdgeRuns), want)
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
			p := s.Pack()
			vs, vruns, es, eruns = vs+len(s.Vertices), vruns+len(p.VertexRuns), es+len(s.Edges), eruns+len(p.EdgeRuns)
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

// breaks counts the runs of consecutive ids in ascending ids.
func breaks[ID ~uint32](ids []ID) int {
	n := 0
	for i := range ids {
		if i == 0 || ids[i] != ids[i-1]+1 {
			n++
		}
	}
	return n
}
