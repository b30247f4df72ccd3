package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// pathLanguage enumerates all path-label words up to maxLen edges in a
// labeled digraph given as (node label, adjacency with edge labels). A word
// is "class (rel class)*".
func pathLanguage(labels []int, out [][][2]int, maxLen int) map[string]bool {
	words := make(map[string]bool)
	var dfs func(v int, sb []string, depth int)
	dfs = func(v int, sb []string, depth int) {
		words[strings.Join(sb, " ")] = true
		if depth == maxLen {
			return
		}
		for _, arc := range out[v] {
			dfs(arc[0], append(sb, fmt.Sprint(arc[1]), fmt.Sprint(labels[arc[0]])), depth+1)
		}
	}
	for v := range labels {
		dfs(v, []string{fmt.Sprint(labels[v])}, 0)
	}
	return words
}

// psgGraph converts a Psg into (labels, adjacency) form.
func psgGraph(p *core.Psg) ([]int, [][][2]int) {
	labels := make([]int, len(p.Nodes))
	out := make([][][2]int, len(p.Nodes))
	for i, n := range p.Nodes {
		labels[i] = n.Class
	}
	for _, e := range p.Edges {
		out[e.From] = append(out[e.From], [2]int{e.To, int(e.Rel)})
	}
	return labels, out
}

// g0Graph reconstructs the class-labeled disjoint union of the segments,
// reading each occurrence's class off the Psg node that absorbed it.
func g0Graph(segs []*core.Segment, p *core.Psg) ([]int, [][][2]int) {
	classOf := make(map[[2]int]int)
	for _, n := range p.Nodes {
		for _, m := range n.Members {
			classOf[m] = n.Class
		}
	}
	var labels []int
	var out [][][2]int
	idx := make(map[[2]int]int)
	for si, s := range segs {
		for _, v := range s.Vertices() {
			key := [2]int{si, int(v)}
			idx[key] = len(labels)
			labels = append(labels, classOf[key])
			out = append(out, nil)
		}
	}
	for si, s := range segs {
		g := s.P.PG()
		for _, e := range s.Edges() {
			f := idx[[2]int{si, int(g.Src(e))}]
			t := idx[[2]int{si, int(g.Dst(e))}]
			out[f] = append(out[f], [2]int{t, int(s.P.RelOf(e))})
		}
	}
	return labels, out
}

func checkPsgInvariant(t *testing.T, name string, segs []*core.Segment, psg *core.Psg, maxLen int) {
	t.Helper()
	gl, ga := g0Graph(segs, psg)
	pl, pa := psgGraph(psg)
	want := pathLanguage(gl, ga, maxLen)
	got := pathLanguage(pl, pa, maxLen)
	for w := range want {
		if !got[w] {
			t.Errorf("%s: path word lost: %q", name, w)
			return
		}
	}
	for w := range got {
		if !want[w] {
			t.Errorf("%s: path word invented: %q", name, w)
			return
		}
	}
}

func checkPsgDAG(t *testing.T, name string, psg *core.Psg) {
	t.Helper()
	n := len(psg.Nodes)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range psg.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, d := range adj[v] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != n {
		t.Errorf("%s: Psg contains a cycle (%d of %d nodes in topo order)", name, seen, n)
	}
}

// TestPsgInvariantOnSd checks the two halves of the Psg contract — no path
// label lost, none invented — on segment sets of varying stability, plus
// DAG-ness and a sane compaction ratio.
func TestPsgInvariantOnSd(t *testing.T) {
	alphas := []float64{0.025, 0.1, 0.5, 1.0}
	if testing.Short() {
		alphas = []float64{0.1, 1.0}
	}
	for _, alpha := range alphas {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("alpha=%g seed=%d", alpha, seed)
			_, segs := gen.Sd(gen.SdConfig{Alpha: alpha, Activities: 8, Segments: 4, Seed: seed})
			psg, err := core.Summarize(segs, gen.SdSumOptions())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cr := psg.CompactionRatio(); cr <= 0 || cr > 1 {
				t.Errorf("%s: compaction ratio out of range: %v", name, cr)
			}
			checkPsgDAG(t, name, psg)
			checkPsgInvariant(t, name, segs, psg, 6)
		}
	}
}

// TestPsgExactIsoInvariant re-runs the invariant with exact-isomorphism
// provenance types and a larger radius.
func TestPsgExactIsoInvariant(t *testing.T) {
	_, segs := gen.Sd(gen.SdConfig{Alpha: 0.1, Activities: 8, Segments: 4, Seed: 9})
	opts := gen.SdSumOptions()
	opts.TypeRadius = 2
	opts.ExactIso = true
	psg, err := core.Summarize(segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPsgDAG(t, "exact-iso", psg)
	checkPsgInvariant(t, "exact-iso", segs, psg, 6)
}

// TestPsgCompactsStablePipelines: segments drawn from a highly concentrated
// transition matrix should compact substantially.
func TestPsgCompactsStablePipelines(t *testing.T) {
	_, segs := gen.Sd(gen.SdConfig{Alpha: 0.02, Activities: 12, Segments: 10, Seed: 2})
	psg, err := core.Summarize(segs, gen.SdSumOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cr := psg.CompactionRatio(); cr > 0.8 {
		t.Errorf("stable pipelines barely compacted: cr=%.3f", cr)
	}
}

// TestPsgFrequencies: every edge frequency is in (0, 1], and an edge shared
// by all segments gets frequency 1.
func TestPsgFrequencies(t *testing.T) {
	_, segs := gen.Sd(gen.SdConfig{Alpha: 0.05, Activities: 6, Segments: 5, Seed: 4})
	psg, err := core.Summarize(segs, gen.SdSumOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(psg.Edges) == 0 {
		t.Fatal("summary has no edges")
	}
	for _, e := range psg.Edges {
		if e.Freq <= 0 || e.Freq > 1 {
			t.Errorf("edge frequency out of range: %+v", e)
		}
	}
}

// TestPsgMemberPartition: the Psg nodes partition the input occurrences.
func TestPsgMemberPartition(t *testing.T) {
	_, segs := gen.Sd(gen.SdConfig{Alpha: 0.1, Activities: 10, Segments: 6, Seed: 5})
	psg, err := core.Summarize(segs, gen.SdSumOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	total := 0
	for _, n := range psg.Nodes {
		if len(n.Members) == 0 {
			t.Error("empty Psg node")
		}
		for _, m := range n.Members {
			if seen[m] {
				t.Errorf("occurrence %v in two Psg nodes", m)
			}
			seen[m] = true
			total++
		}
	}
	if total != psg.InputVertices {
		t.Errorf("member count %d != input vertices %d", total, psg.InputVertices)
	}
	want := 0
	for _, s := range segs {
		want += s.NumVertices()
	}
	if psg.InputVertices != want {
		t.Errorf("InputVertices=%d, want %d", psg.InputVertices, want)
	}
	var _ graph.VertexID // keep import
}

// TestSummarizeMatchesDenseOracle holds Summarize — class-local simulation,
// relations reused across unchanged phases, lazy reach guard, sorted
// assembly — to the old merge loop over the dense simulation: the Psg must
// be identical, not close, on many-label Pd inputs (the sum_pd shape) and
// few-label Sd inputs (the Fig. 5e-h shape).
func TestSummarizeMatchesDenseOracle(t *testing.T) {
	check := func(name string, segs []*core.Segment, opts core.SumOptions) {
		t.Helper()
		got, err := core.Summarize(segs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := core.DenseSummarize(segs, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Psg differs from the oracle: %d nodes / %d edges / %d rounds, oracle %d / %d / %d",
				name, len(got.Nodes), len(got.Edges), got.Rounds, len(want.Nodes), len(want.Edges), want.Rounds)
		}
		// Class ids too: same partition, same first-appearance numbering
		// (PsgNode.Class and the "(tN)" label suffixes hang off them).
		if !opts.ExactIso && !slices.Equal(core.ClassLabels(segs, opts), core.StringClassLabels(segs, opts)) {
			t.Errorf("%s: class ids differ from the string-signature refinement", name)
		}
	}
	sizes := []int{300, 1000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		segs := pdWideSegments(t, n, 3)
		check(fmt.Sprintf("Pd-%d/2", n), segs[:2], pdSumOptions)
		check(fmt.Sprintf("Pd-%d/3", n), segs, pdSumOptions)
		check(fmt.Sprintf("Pd-%d/3 radius 0", n), segs, core.SumOptions{})
	}
	for _, cfg := range []gen.SdConfig{
		{Alpha: 0.025}, {Alpha: 1}, {States: 3}, {States: 25}, {Activities: 40}, {Alpha: 0.25, Segments: 20},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg.Seed = seed
			_, segs := gen.Sd(cfg)
			check(fmt.Sprintf("Sd %+v", cfg), segs, gen.SdSumOptions())
			opts := gen.SdSumOptions()
			opts.TypeRadius, opts.ExactIso, opts.MaxRounds = 2, true, 1
			check(fmt.Sprintf("Sd %+v exact-iso", cfg), segs, opts)
			if testing.Short() {
				break
			}
		}
	}
}

// TestSummarizeAllocs guards the kept scratch: on the sum_pd shape a warm
// Summarize allocates its result (nodes, one members array, edges, the class
// names) and the classifier, not its graphs or intern tables. Measured 20
// allocations per call (the bound leaves 10 to spare), where the per-node
// slices and maps took 33.7k and classify's per-class strings 876.
func TestSummarizeAllocs(t *testing.T) {
	segs := pdWideSegments(t, 2000, 2)
	core.EmptySumFree()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.Summarize(segs, pdSumOptions); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per call", allocs)
	if allocs > 30 {
		t.Errorf("Summarize on Pd-2000 x 2 segments: %.0f allocations per call, want <= 30", allocs)
	}
}

// TestSumScratchSurvivesGC: the scratch a call leaves for the next is not
// the collector's. After two collections a warm sum_pd call on Pd-2000 x 2
// allocates its Psg (~0.5 MB) and nothing of its arenas, where a sync.Pool
// that the collections emptied made it build them again (3.8 MB).
func TestSumScratchSurvivesGC(t *testing.T) {
	segs := pdWideSegments(t, 2000, 2)
	core.EmptySumFree()
	if _, err := core.Summarize(segs, pdSumOptions); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.Summarize(segs, pdSumOptions); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated by a warm call after two collections", b)
	if b > 1<<20 {
		t.Errorf("a warm Summarize on Pd-2000 x 2 after two collections allocated %d bytes, want <= 1 MiB", b)
	}
}

// TestSumScratchBound: a call whose scratch outgrows core.SumKeep leaves it
// to the collector, so one large call does not pin its arenas for the
// process's life. Pd-10000 x 2 under sum_pd's options needs some 6.7 MB and
// Pd-2000 x 3 at type radius 0 some 7 MB (2 Pd-5000 segments there 19 MB,
// in seconds); the sum_pd call before each is kept.
func TestSumScratchBound(t *testing.T) {
	type call struct {
		name string
		segs []*core.Segment
		opts core.SumOptions
	}
	pd2000 := pdWideSegments(t, 2000, 3)
	large := []call{{"Pd-10000 x 2", pdWideSegments(t, 10000, 2), pdSumOptions}}
	if !testing.Short() {
		large = append(large, call{"Pd-2000 x 3 at radius 0", pd2000, core.SumOptions{}})
	}
	for _, c := range large {
		core.EmptySumFree()
		if _, kept, err := core.SummarizeScratch(pd2000[:2], pdSumOptions); err != nil || kept > core.SumKeep {
			t.Fatalf("sum_pd call: %d bytes of scratch (keep <= %d), err=%v", kept, core.SumKeep, err)
		}
		if free := core.SumFree(); len(free) != 1 {
			t.Fatalf("after a sum_pd call the free list holds %v, want its scratch", free)
		}
		_, held, err := core.SummarizeScratch(c.segs, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if held <= core.SumKeep {
			t.Fatalf("%s held %d bytes of scratch, not over the %d the test needs", c.name, held, core.SumKeep)
		}
		if free := core.SumFree(); len(free) != 0 {
			t.Errorf("after %s, which held %d bytes of scratch, the free list holds %v; want nothing (keep <= %d)", c.name, held, free, core.SumKeep)
		}
	}
}

// TestSummarizeStopsWhenDone: once its request is done PgSum returns the
// request's error, and polls for it inside the work that has no phase
// boundary: a refinement round of classify, and the dominance scan with its
// simulations already solved.
func TestSummarizeStopsWhenDone(t *testing.T) {
	_, segs := gen.Sd(gen.SdConfig{Seed: 1})
	opts := gen.SdSumOptions()
	opts.TypeRadius = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := core.NewWork(ctx)
	if _, err := core.SummarizeWork(w, segs, opts); !errors.Is(err, context.Canceled) || w.Phases != 0 {
		t.Errorf("SummarizeWork on a done request: err=%v after %d phases, want context.Canceled after none", err, w.Phases)
	}
	cls, dom := core.PgSumStops(w, segs, opts)
	if !errors.Is(cls, context.Canceled) || !errors.Is(dom, context.Canceled) {
		t.Errorf("on a done request classify returned %v and the dominance scan %v, want context.Canceled from both", cls, dom)
	}
}

// TestQuotientInheritsSimulation tests the simulation-quotient lemma
// itself: after every equivalence merge of the production loop, the
// preorder the quotient inherits is a fresh simulation of it row for row,
// the order it inherits is a level order toward the merge's direction and
// topological backwards, and every phase the loop skips as idle merges
// nothing when run anyway — on random DAGs (few labels with large classes,
// and many), and on the Pd g0s of the sum_pd shape and Sd g0s.
func TestQuotientInheritsSimulation(t *testing.T) {
	trials, pd := 2000, []int{300, 2000}
	if testing.Short() {
		trials, pd = 300, pd[:1]
	}
	total := core.CheckQuotientsOnRandomDAGs(t, trials, 36)
	add := func(c core.MergeChecks) {
		total.Preorders += c.Preorders
		total.Orders += c.Orders
		total.Skips += c.Skips
	}
	for _, n := range pd {
		segs := pdWideSegments(t, n, 3)
		add(core.CheckQuotients(t, segs[:2], pdSumOptions))
		add(core.CheckQuotients(t, segs, pdSumOptions))
		add(core.CheckQuotients(t, segs, core.SumOptions{}))
	}
	for _, cfg := range []gen.SdConfig{{Alpha: 0.025}, {Alpha: 1}, {States: 3}, {Alpha: 0.25, Segments: 20}} {
		cfg.Seed = 1
		_, segs := gen.Sd(cfg)
		add(core.CheckQuotients(t, segs, gen.SdSumOptions()))
	}
	t.Logf("%d inherited preorders, %d inherited orders, %d idle phases checked", total.Preorders, total.Orders, total.Skips)
	if total.Preorders == 0 || total.Orders == 0 || total.Skips == 0 {
		t.Fatalf("nothing of some kind was checked: %+v", total)
	}
}

// TestSummarizeWork pins the work of a sum_pd call as exact counts. Pd-2000
// merges twice (in-equivalence on g0, out-equivalence on its quotient) and
// then stops: one in-simulation and its Kahn sort on g0, the out-simulation
// on the reversed order the first quotient inherits, the in-simulation and
// a second Kahn sort on the last quotient for dominance (its out-simulation
// is inherited), then a last in-equivalence scan that merges nothing — the
// out-equivalence phase is idle by the simulation-quotient lemma, dominance
// because it ran on that graph already. Without what the merges hand on the
// same calls read 4 simulations, 4 Kahn sorts and 6 phase scans.
func TestSummarizeWork(t *testing.T) {
	segs := pdWideSegments(t, 2000, 3)
	for _, k := range []int{2, 3} {
		_, st, err := core.SummarizeStages(segs[:k], pdSumOptions)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{st.Sims, st.Topos, st.Phases}; got != [3]int{3, 2, 4} {
			t.Errorf("Pd-2000 x %d: %d simulations, %d Kahn sorts, %d phase scans; want 3, 2, 4", k, got[0], got[1], got[2])
		}
	}
}

// TestSummarizeConcurrent: eight goroutines summarize different segment sets
// at once, repeatedly, and every result is the serial one. The scratch free
// list is the only state two calls can share, and a scratch sized by one
// input is reused for another; this is the test to run with -race.
func TestSummarizeConcurrent(t *testing.T) {
	segs := pdWideSegments(t, 300, 4)
	_, sd := gen.Sd(gen.SdConfig{Seed: 3})
	type job struct {
		segs []*core.Segment
		opts core.SumOptions
	}
	jobs := []job{
		{segs[:2], pdSumOptions}, {segs[1:3], pdSumOptions}, {segs[2:], pdSumOptions}, {segs, pdSumOptions},
		{segs[:3], core.SumOptions{}}, {segs[1:], core.SumOptions{TypeRadius: 2, ExactIso: true}},
		{sd, gen.SdSumOptions()}, {sd[:len(sd)/2], gen.SdSumOptions()},
	}
	want := make([]*core.Psg, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = core.Summarize(j.segs, j.opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got, err := core.Summarize(j.segs, j.opts)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("job %d rep %d: concurrent Summarize differs from the serial one (err=%v)", i, rep, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPsgInvariantOnPd runs the bounded path-label-language check (g0 and
// Psg spell the same words) on multi-segment Pd inputs under the options of
// the sum_pd workload.
func TestPsgInvariantOnPd(t *testing.T) {
	segs := pdWideSegments(t, 300, 3)
	for _, k := range []int{2, 3} {
		name := fmt.Sprintf("Pd-300/%d", k)
		psg, err := core.Summarize(segs[:k], pdSumOptions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if psg.Segments != k || len(psg.Nodes) >= psg.InputVertices {
			t.Errorf("%s: %d segments, %d nodes of %d occurrences; want a real summary", name, psg.Segments, len(psg.Nodes), psg.InputVertices)
		}
		checkPsgDAG(t, name, psg)
		checkPsgInvariant(t, name, segs[:k], psg, 5)
	}
}

// TestSummarizeCyclicInput: a derivation cycle (which only a graph that
// skipped validation can hold) is a typed error; this shape used to survive the two
// equivalence phases and nil-dereference in the dominance phase's reach
// guard.
func TestSummarizeCyclicInput(t *testing.T) {
	p := prov.New()
	var e []graph.VertexID
	for i := 0; i < 6; i++ {
		e = append(e, p.NewEntity(fmt.Sprintf("e%d", i)))
	}
	for _, arc := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 1}, {0, 5}} { // 1 -> 2 -> 3 -> 1 is the cycle
		p.WasDerivedFrom(e[arc[0]], e[arc[1]])
	}
	seg, err := core.NewSegment(p.Freeze(), e)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Summarize([]*core.Segment{seg}, core.SumOptions{})
	if !errors.Is(err, core.ErrNotDAG) {
		t.Fatalf("Summarize on a cycle: err=%v, want ErrNotDAG", err)
	}
}
