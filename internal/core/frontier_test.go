package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// diffSegs fails the test unless the two segments are identical in every
// externally observable dimension.
func diffSegs(t *testing.T, tag string, a, b *core.Segment) {
	t.Helper()
	if fmt.Sprint(a.Vertices) != fmt.Sprint(b.Vertices) {
		t.Fatalf("%s: vertex sets differ: %d vs %d vertices", tag, len(a.Vertices), len(b.Vertices))
	}
	if fmt.Sprint(a.Edges) != fmt.Sprint(b.Edges) {
		t.Fatalf("%s: edge sets differ: %d vs %d edges", tag, len(a.Edges), len(b.Edges))
	}
	if len(a.Rules) != len(a.Vertices) || len(b.Rules) != len(b.Vertices) {
		t.Fatalf("%s: Rules not parallel to Vertices: %d/%d vs %d/%d", tag, len(a.Rules), len(a.Vertices), len(b.Rules), len(b.Vertices))
	}
	for i, v := range a.Vertices {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("%s: rule attribution differs at %d: %v vs %v", tag, v, a.Rules[i], b.Rules[i])
		}
		if r, ok := b.RuleOf(v); !ok || r != a.Rules[i] {
			t.Fatalf("%s: RuleOf(%d) = %v, %v; want %v", tag, v, r, ok, a.Rules[i])
		}
	}
	as, bs := a.Support(), b.Support()
	if fmt.Sprint(as.ToSlice()) != fmt.Sprint(bs.ToSlice()) {
		t.Fatalf("%s: support sets differ", tag)
	}
}

// TestFrontierMatchesScalar runs PgSeg with the vectorized frontier engine
// and with ScalarTraversal forced, over a spread of plain boundaries, and
// requires bit-identical segments. (The randomized corpus lives in
// graph/difftest; this is the in-package smoke with targeted boundaries.)
func TestFrontierMatchesScalar(t *testing.T) {
	for _, n := range []int{60, 400, 1500} {
		p := gen.Pd(gen.PdConfig{N: n, Seed: int64(n)}).Freeze()
		src, dst := gen.DefaultQuery(p)
		boundaries := []core.Boundary{
			{},
			{ExcludeRels: []prov.Rel{prov.RelDeriv}},
			{ExcludeRels: []prov.Rel{prov.RelAttr, prov.RelAssoc}},
			{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelUsed}},
			{Expansions: []core.Expansion{{Within: dst, K: 3}}},
			{ExcludeRels: []prov.Rel{prov.RelDeriv}, Expansions: []core.Expansion{{Within: src, K: 2}, {Within: dst, K: 5}}},
		}
		for bi, b := range boundaries {
			q := core.Query{Src: src, Dst: dst, Boundary: b}
			vec, err := core.NewEngine(p, core.Options{}).Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			sca, err := core.NewEngine(p, core.Options{ScalarTraversal: true}).Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			diffSegs(t, fmt.Sprintf("n=%d boundary=%d", n, bi), vec, sca)
		}
	}
}

// TestFrontierClosureMatchesScalar pins the closure building block in both
// directions, with and without derivation edges.
func TestFrontierClosureMatchesScalar(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 800, Seed: 2}).Freeze()
	src, dst := gen.DefaultQuery(p)
	for _, excl := range []bool{false, true} {
		vecEng := core.NewEngine(p, core.Options{VC1ExcludeDerivations: excl})
		scaEng := core.NewEngine(p, core.Options{VC1ExcludeDerivations: excl, ScalarTraversal: true})
		for _, fwd := range []bool{true, false} {
			seeds := dst
			if !fwd {
				seeds = src
			}
			b := core.Boundary{ExcludeRels: []prov.Rel{prov.RelAttr}}
			v := vecEng.AncestryClosure(seeds, b, fwd)
			s := scaEng.AncestryClosure(seeds, b, fwd)
			if fmt.Sprint(v.ToSlice()) != fmt.Sprint(s.ToSlice()) {
				t.Fatalf("closure(fwd=%v exclD=%v): %d vs %d vertices", fwd, excl, v.Cardinality(), s.Cardinality())
			}
		}
	}
}

// TestAdjustExpandMatchesScalar covers the adjust surface, whose expand and
// induced-edge sweeps also dispatch to the frontier engine.
func TestAdjustExpandMatchesScalar(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 500, Seed: 9}).Freeze()
	src, dst := gen.DefaultQuery(p)
	q := core.Query{Src: src, Dst: dst, Boundary: core.Boundary{ExcludeRels: []prov.Rel{prov.RelDeriv}}}
	vecEng := core.NewEngine(p, core.Options{})
	scaEng := core.NewEngine(p, core.Options{ScalarTraversal: true})
	vseg, err := vecEng.Segment(q)
	if err != nil {
		t.Fatal(err)
	}
	sseg, err := scaEng.Segment(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.Expansion{Within: src, K: 4}
	vout, err := vecEng.AdjustExpand(vseg, ex)
	if err != nil {
		t.Fatal(err)
	}
	sout, err := scaEng.AdjustExpand(sseg, ex)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(vout.Vertices) != fmt.Sprint(sout.Vertices) || fmt.Sprint(vout.Edges) != fmt.Sprint(sout.Edges) {
		t.Fatal("AdjustExpand diverges between frontier and scalar paths")
	}
}

// TestExcludedBlocksNeverRead pins the block-skip contract: segmenting with
// excluded relations must not read a single CSR row of those labels.
func TestExcludedBlocksNeverRead(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 400, Seed: 4}).Freeze()
	src, dst := gen.DefaultQuery(p)
	excluded := []prov.Rel{prov.RelDeriv, prov.RelAttr}
	bad := map[graph.Label]bool{}
	for _, r := range excluded {
		bad[p.RelLabel(r)] = true
	}
	reads := map[graph.Label]int{}
	restore := graph.SetRowReadHook(func(l graph.Label, out bool) { reads[l]++ })
	defer restore()
	eng := core.NewEngine(p, core.Options{})
	seg, err := eng.Segment(core.Query{
		Src: src, Dst: dst,
		Boundary: core.Boundary{
			ExcludeRels: excluded,
			Expansions:  []core.Expansion{{Within: dst, K: 3}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumVertices() == 0 {
		t.Fatal("empty segment: the traversal never ran")
	}
	total := 0
	for l, c := range reads {
		if bad[l] {
			t.Errorf("excluded label %q: %d CSR row reads", p.PG().Dict().Name(l), c)
		}
		total += c
	}
	if total == 0 {
		t.Fatal("hook observed no reads at all: instrumentation is dead")
	}
}
