package core_test

import (
	"fmt"
	"slices"
	"sync"
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

// TestLiveMatchesFrozen runs PgSeg on a live graph and on its frozen
// snapshot — the two representations behind the one adjacency walk — over a
// spread of boundaries, and requires bit-identical segments. (The randomized
// corpus over incremental snapshot chains lives in graph/difftest; this is
// the in-package smoke with targeted boundaries.)
func TestLiveMatchesFrozen(t *testing.T) {
	for _, n := range []int{60, 400, 1500} {
		live := gen.Pd(gen.PdConfig{N: n, Seed: int64(n)})
		fz := live.Freeze()
		src, dst := gen.DefaultQuery(live)
		boundaries := []core.Boundary{
			{},
			{ExcludeRels: []prov.Rel{prov.RelDeriv}},
			{ExcludeRels: []prov.Rel{prov.RelAttr, prov.RelAssoc}},
			{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelUsed}},
			{Expansions: []core.Expansion{{Within: dst, K: 3}}},
			{ExcludeRels: []prov.Rel{prov.RelDeriv}, Expansions: []core.Expansion{{Within: src, K: 2}, {Within: dst, K: 5}}},
			{VertexFilters: []core.VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v%11 != 4 }}},
			{EdgeFilters: []core.EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%13 != 5 }}},
		}
		for bi, b := range boundaries {
			q := core.Query{Src: src, Dst: dst, Boundary: b}
			ls, err := core.NewEngine(live, core.Options{}).Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := core.NewEngine(fz, core.Options{}).Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			if ls.NumVertices() <= len(src)+len(dst) {
				t.Fatalf("n=%d boundary=%d: segment holds only the query vertices", n, bi)
			}
			diffSegs(t, fmt.Sprintf("n=%d boundary=%d", n, bi), ls, fs)
		}
	}
}

// TestClosureLiveMatchesFrozen pins the closure building block in both
// directions, with and without derivation edges.
func TestClosureLiveMatchesFrozen(t *testing.T) {
	live := gen.Pd(gen.PdConfig{N: 800, Seed: 2})
	fz := live.Freeze()
	src, dst := gen.DefaultQuery(live)
	for _, excl := range []bool{false, true} {
		liveEng := core.NewEngine(live, core.Options{VC1ExcludeDerivations: excl})
		fzEng := core.NewEngine(fz, core.Options{VC1ExcludeDerivations: excl})
		for _, fwd := range []bool{true, false} {
			seeds := dst
			if !fwd {
				seeds = src
			}
			b := core.Boundary{ExcludeRels: []prov.Rel{prov.RelAttr}}
			l := liveEng.AncestryClosure(seeds, b, fwd)
			f := fzEng.AncestryClosure(seeds, b, fwd)
			if l.Cardinality() <= len(seeds) {
				t.Fatalf("closure(fwd=%v exclD=%v) never left its seeds", fwd, excl)
			}
			if fmt.Sprint(l.ToSlice()) != fmt.Sprint(f.ToSlice()) {
				t.Fatalf("closure(fwd=%v exclD=%v): %d vs %d vertices", fwd, excl, l.Cardinality(), f.Cardinality())
			}
		}
	}
}

// TestAdjustExpandMatchesScalar covers the adjust surface on both
// representations, and against the one-shot query: growing a cached segment
// must equal segmenting with the expansion in the boundary. (The name
// predates the single walk; it is what the test floor tracks.)
func TestAdjustExpandMatchesScalar(t *testing.T) {
	live := gen.Pd(gen.PdConfig{N: 500, Seed: 9})
	src, dst := gen.DefaultQuery(live)
	q := core.Query{Src: src, Dst: dst, Boundary: core.Boundary{ExcludeRels: []prov.Rel{prov.RelDeriv}}}
	ex := core.Expansion{Within: src, K: 4}
	var ref *core.Segment
	for _, p := range []*prov.Graph{live, live.Freeze()} {
		eng := core.NewEngine(p, core.Options{})
		seg, err := eng.Segment(q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := eng.AdjustExpand(seg, ex)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if fmt.Sprint(out.Vertices) != fmt.Sprint(ref.Vertices) || fmt.Sprint(out.Edges) != fmt.Sprint(ref.Edges) || fmt.Sprint(out.Rules) != fmt.Sprint(ref.Rules) {
			t.Fatal("AdjustExpand diverges between the live and the frozen graph")
		}
	}
}

// TestExcludedBlocksNeverRead pins the block-skip contract: segmenting with
// excluded relations must not read a single CSR row of those labels.
func TestExcludedBlocksNeverRead(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 400, Seed: 4}).Freeze()
	src, dst := gen.DefaultQuery(p)
	excluded := []prov.Rel{prov.RelDeriv, prov.RelAttr}
	eng, w := core.NewEngine(p, core.Options{}), new(core.Work)
	seg, err := eng.SegmentWork(w, core.Query{
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
	reads := w.Rows
	for _, r := range excluded {
		if reads[r] != [2]int{} {
			t.Errorf("excluded relation %v: %v CSR row reads (in, out)", r, reads[r])
		}
	}
	if reads == (core.RowCounts{}) {
		t.Fatal("the segment counted no reads at all: the counter is dead")
	}
}

// TestSweepDeepWindowsPd holds the sweep to the level-synchronous runner and,
// set by set, to the all-words oracle on Pd graphs deep enough (400-1000
// levels on the default query) that windows span many words: live and
// frozen, under an excluded relation, a programmatic vertex filter and an
// edge filter (NoEarlyStop would change nothing: no runner has the rule).
// Long mode adds Pd-20000 with the sources three quarters of the way in,
// against the all-words oracle alone (the level runner takes ~2.7 s a run
// there; Pd-2000 and Pd-5000 anchor the word oracle to it).
func TestSweepDeepWindowsPd(t *testing.T) {
	for _, n := range []int{2000, 5000, 20000} {
		live := gen.Pd(gen.PdConfig{N: n, Seed: 1})
		src, dst := gen.DefaultQuery(live)
		boundaries := map[string]core.Boundary{
			"plain":         {},
			"excl-deriv":    {ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAssoc}},
			"vertex-filter": {VertexFilters: []core.VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v%11 != 4 }}},
			"edge-filter":   {EdgeFilters: []core.EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%13 != 5 }}},
		}
		switch {
		case n == 20000 && testing.Short():
			continue
		case n == 20000:
			src, _ = gen.QueryAtRank(live, 75)
			boundaries = map[string]core.Boundary{"plain": {}}
		case n == 5000 && testing.Short():
			// The oracle is ~0.2 s per run here and 10x that under -race.
			boundaries = map[string]core.Boundary{"plain": {}}
		}
		ref := "levels"
		if n == 20000 {
			ref = "words"
		}
		for name, b := range boundaries {
			q := core.Query{Src: src, Dst: dst, Boundary: b}
			label := fmt.Sprintf("Pd-%d/%s", n, name)
			vc2, width, _ := core.DeepRunnersAgree(t, label, live, q, core.Options{}, ref)
			if name == "plain" && (vc2 == 0 || width < 256) {
				t.Errorf("%s: |VC2| = %d, widest window %d levels: not a deep query", label, vc2, width)
			}
		}
	}
}

// TestSweepDeepWindowsConcurrent solves from several goroutines at once: the
// pooled scratch is the only state two solves can share, and under -race this
// is what shows a scratch handed to two of them.
func TestSweepDeepWindowsConcurrent(t *testing.T) {
	eng, qs := pdPoolQueries(t, 2000, 8)
	want := make([]string, len(qs))
	for i, q := range qs {
		vc2, err := eng.SimilarPaths(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(vc2.ToSlice())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range qs {
					i := (k + g*3) % len(qs)
					vc2, err := eng.SimilarPaths(qs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got := fmt.Sprint(vc2.ToSlice()); got != want[i] {
						t.Errorf("goroutine %d, query %d: VC2 differs from the sequential solve", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTstClassesRunOncePd counts the runner's calls on the Pd-2000 seg_cold
// pool: one per destination class — each distinct generator row among the
// destinations that are not sources, plus each source-destination — with VC2
// the union of the single-destination solves, and fewer classes than
// destinations over the pool (consecutive late entities are mostly outputs
// of one run).
func TestTstClassesRunOncePd(t *testing.T) {
	eng, qs := pdPoolQueries(t, 2000, 64)
	dests, classes, grouped := 0, 0, 0
	for i, q := range qs {
		isSrc := map[graph.VertexID]bool{}
		for _, s := range q.Src {
			isSrc[s] = true
		}
		seen, rows, want := map[graph.VertexID]bool{}, map[string]bool{}, 0
		perDst := map[uint32]bool{}
		for _, d := range q.Dst {
			if seen[d] {
				continue
			}
			seen[d] = true
			one, err := eng.SimilarPaths(core.Query{Src: q.Src, Dst: []graph.VertexID{d}})
			if err != nil {
				t.Fatal(err)
			}
			one.Iterate(func(x uint32) bool { perDst[x] = true; return true })
			row := eng.P.GeneratorsOf(d, nil)
			slices.Sort(row)
			switch k := fmt.Sprint(slices.Compact(row)); {
			case isSrc[d]:
				want++
			case !rows[k]:
				rows[k] = true
				want++
			}
		}
		vc2, runs := core.TstClassRuns(eng, q)
		if runs != want {
			t.Errorf("query %d: %d runner calls, want one per class (%d)", i, runs, want)
		}
		if got := vc2.ToSlice(); len(got) != len(perDst) || !allIn(got, perDst) {
			t.Errorf("query %d: grouped VC2 has %d vertices, the per-destination union %d", i, len(got), len(perDst))
		}
		dests, classes = dests+len(seen), classes+want
		if want < len(seen) {
			grouped++
		}
	}
	if classes >= dests {
		t.Fatalf("%d classes for %d destinations: no pool query had a class of two", classes, dests)
	}
	t.Logf("Pd-2000 pool: %d destinations in %d classes; %d of %d queries solve fewer", dests, classes, grouped, len(qs))
}

func allIn(xs []uint32, set map[uint32]bool) bool {
	for _, x := range xs {
		if !set[x] {
			return false
		}
	}
	return true
}

// TestSweepArenaFootprint guards the sweep's scratch: a wide two-destination
// label-only query on a frozen graph allocates, in steady state, only what
// it returns (the VC2 bitset and the per-query constants) — the windows,
// recorded rows and run lists come from the pool. Measured 265 B/op on
// Pd-300, 470-560 B/op on Pd-2000 and 3-7 KB/op on Pd-20000 (the pool's
// refill after each GC, amortized over the run), where the sweep's word
// slabs took ~60 KB and the width-of-the-bound arenas before them 22 KB,
// 0.5 MB and ~20 MB per op.
func TestSweepArenaFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race: no steady state to measure")
	}
	for _, tc := range []struct {
		n        int
		maxBytes int64
	}{{300, 512}, {2000, 1 << 10}, {20000, 32 << 10}} {
		p := gen.Pd(gen.PdConfig{N: tc.n, Seed: 1}).Freeze()
		src, dst := gen.DefaultQuery(p)
		if len(dst) != 2 {
			t.Fatalf("Pd-%d: default query has %d destinations, want 2", tc.n, len(dst))
		}
		eng := core.NewEngine(p, core.Options{})
		q := core.Query{Src: src, Dst: dst}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SimilarPaths(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got > tc.maxBytes {
			t.Errorf("Pd-%d: SimilarPaths allocates %d B/op, want <= %d", tc.n, got, tc.maxBytes)
		}
	}
}
