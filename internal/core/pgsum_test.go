package core_test

import (
	"errors"
	"fmt"
	"reflect"
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
		for _, v := range s.Vertices {
			key := [2]int{si, int(v)}
			idx[key] = len(labels)
			labels = append(labels, classOf[key])
			out = append(out, nil)
		}
	}
	for si, s := range segs {
		g := s.P.PG()
		for _, e := range s.Edges {
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
		want += len(s.Vertices)
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

// TestSummarizeAllocs guards the pooled scratch: on the sum_pd shape a warm
// Summarize allocates its result (nodes, one members array, edges, the class
// names) and the classifier's intern tables, not its graphs. Measured 874
// allocations per call where the per-node slices and maps took 33.7k.
func TestSummarizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race: no steady state to measure")
	}
	segs := pdWideSegments(t, 2000, 2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.Summarize(segs, pdSumOptions); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1500 {
		t.Errorf("Summarize on Pd-2000 x 2 segments: %.0f allocations per call, want <= 1500", allocs)
	}
}

// TestSummarizeConcurrent: eight goroutines summarize different segment sets
// at once, repeatedly, and every result is the serial one. The scratch pool is
// the only state two calls can share; this is the test to run with -race.
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
	_, err := core.Summarize([]*core.Segment{core.NewSegment(p, e)}, core.SumOptions{})
	if !errors.Is(err, core.ErrNotDAG) {
		t.Fatalf("Summarize on a cycle: err=%v, want ErrNotDAG", err)
	}
}
