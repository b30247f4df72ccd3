package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mustSim is simulation on a graph known to be a DAG.
func mustSim(t testing.TB, g *flatGraph, forward bool) *simRel {
	t.Helper()
	sim, err := simulation(g, forward)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// simRow lists the nodes v with u <= v in ascending order.
func simRow(g *flatGraph, sim *simRel, u int) []int {
	var row []int
	eachPos(sim.of(g, int32(u)), nil, func(i int) bool {
		row = append(row, int(g.class(g.label[u])[i]))
		return true
	})
	return row
}

// equivClasses collects simEquivClasses' merges into member lists.
func equivClasses(g *flatGraph, sim *simRel) [][]int {
	var classes [][]int
	simEquivClasses(g, sim, func(u, v int32) {
		if n := len(classes); n == 0 || classes[n-1][0] != int(u) {
			classes = append(classes, []int{int(u)})
		}
		classes[len(classes)-1] = append(classes[len(classes)-1], int(v))
	})
	return classes
}

// outTraces enumerates all out-path label words from v (bounded).
func outTraces(g *sumGraph, v, maxLen int) map[string]bool {
	words := map[string]bool{}
	var dfs func(v int, parts []string, depth int)
	dfs = func(v int, parts []string, depth int) {
		words[strings.Join(parts, " ")] = true
		if depth == maxLen {
			return
		}
		for _, arc := range g.out[v] {
			dfs(arc.to, append(parts, itoa2(int(arc.rel)), itoa2(g.label[arc.to])), depth+1)
		}
	}
	dfs(v, []string{itoa2(g.label[v])}, 0)
	return words
}

func inTraces(g *sumGraph, v, maxLen int) map[string]bool {
	words := map[string]bool{}
	var dfs func(v int, parts []string, depth int)
	dfs = func(v int, parts []string, depth int) {
		words[strings.Join(parts, " ")] = true
		if depth == maxLen {
			return
		}
		for _, arc := range g.in[v] {
			dfs(arc.to, append(parts, itoa2(int(arc.rel)), itoa2(g.label[arc.to])), depth+1)
		}
	}
	dfs(v, []string{itoa2(g.label[v])}, 0)
	return words
}

func itoa2(x int) string {
	const digits = "0123456789"
	if x < 10 {
		return digits[x : x+1]
	}
	return digits[x/10:x/10+1] + digits[x%10:x%10+1]
}

func subset(a, b map[string]bool) bool {
	for w := range a {
		if !b[w] {
			return false
		}
	}
	return true
}

// TestSimulationImpliesTraceInclusion: u <=sout v must imply every bounded
// out-trace of u is an out-trace of v (and dually for <=sin), on random
// DAGs.
func TestSimulationImpliesTraceInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(14)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		var edges [][3]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					edges = append(edges, [3]int{i, j, rng.Intn(2)})
				}
			}
		}
		g := buildSum(labels, edges)
		simOut := mustSim(t, g, true)
		simIn := mustSim(t, g, false)
		d := denseOf(g)
		for u := 0; u < n; u++ {
			ou := outTraces(d, u, 6)
			iu := inTraces(d, u, 6)
			for _, v := range simRow(g, simOut, u) {
				if !subset(ou, outTraces(d, v, 6)) {
					t.Fatalf("trial %d: %d <=sout %d but out-traces not included", trial, u, v)
				}
			}
			for _, v := range simRow(g, simIn, u) {
				if !subset(iu, inTraces(d, v, 6)) {
					t.Fatalf("trial %d: %d <=sin %d but in-traces not included", trial, u, v)
				}
			}
		}
	}
}

// TestSimulationReflexiveAndLabelRespecting.
func TestSimulationBasics(t *testing.T) {
	g := buildSum([]int{0, 0, 1}, [][3]int{{0, 2, 0}, {1, 2, 0}})
	sim := mustSim(t, g, true)
	// Reflexive, label-respecting, and 0 and 1 — structurally identical —
	// simulate each other.
	want := [][]int{{0, 1}, {0, 1}, {2}}
	for v := range want {
		if got := simRow(g, sim, v); !slices.Equal(got, want[v]) {
			t.Fatalf("sim(%d) = %v, want %v", v, got, want[v])
		}
	}
}

// TestSimulationChain: a longer out-chain dominates a shorter same-label
// chain but not vice versa.
func TestSimulationChain(t *testing.T) {
	// 0 -> 1 ; 2 -> 3 -> 4, labels all 0.
	g := buildSum([]int{0, 0, 0, 0, 0}, [][3]int{{0, 1, 0}, {2, 3, 0}, {3, 4, 0}})
	sim := mustSim(t, g, true)
	if !sim.has(g, 0, 2) {
		t.Fatal("short chain should be out-dominated by long chain")
	}
	if sim.has(g, 2, 0) {
		t.Fatal("long chain cannot be out-dominated by short chain")
	}
}

// TestSimEquivClassesPartition.
func TestSimEquivClasses(t *testing.T) {
	// Two identical diamonds.
	labels := []int{0, 1, 1, 2, 0, 1, 1, 2}
	edges := [][3]int{
		{0, 1, 0}, {0, 2, 1}, {1, 3, 0}, {2, 3, 0},
		{4, 5, 0}, {4, 6, 1}, {5, 7, 0}, {6, 7, 0},
	}
	g := buildSum(labels, edges)
	classes := equivClasses(g, mustSim(t, g, true))
	// 0~4, 3~7 trivially (3,7 are sinks with same label; 1,5 same; 2,6
	// same; but 1 vs 2 have different edge labels into them — out-sim only
	// looks down, so 1,2,5,6 all out-simulate each other (same label, both
	// lead to a label-2 sink via rel 0).
	foundRoots := false
	for _, c := range classes {
		has0, has4 := false, false
		for _, m := range c {
			if m == 0 {
				has0 = true
			}
			if m == 4 {
				has4 = true
			}
		}
		if has0 && has4 {
			foundRoots = true
		}
	}
	if !foundRoots {
		t.Fatal("identical diamond roots not out-equivalent")
	}
	// Classes are disjoint.
	seen := map[int]bool{}
	for _, c := range classes {
		for _, m := range c {
			if seen[m] {
				t.Fatal("overlapping classes")
			}
			seen[m] = true
		}
	}
}

// TestSumBudget: each of PgSum's two quadratic allocations is refused, with
// the bytes it asked for, before it is made. The simulation slab of one class
// of 50000 nodes, each with an arc to a sink, holds 50000 rows of 782 words;
// the reach guard over 30000 nodes holds 3 x 30000 sets of 469 words, built
// for the one dominance candidate pair (two equally labeled isolated nodes).
func TestSumBudget(t *testing.T) {
	const n = 50000
	labels, edges := make([]int, n+1), make([][3]int, n)
	labels[n] = 1
	for v := range n {
		edges[v] = [3]int{v, n, 0}
	}
	_, err := simulation(buildSum(labels, edges), true)
	var be *BudgetError
	if !errors.As(err, &be) || be.Bytes < 8*n*((n+63)/64) {
		t.Fatalf("simulation over one class of %d: %v, want a BudgetError of at least %d bytes", n, err, 8*n*((n+63)/64))
	}

	const m = 30000
	labels = make([]int, m)
	for v := range labels {
		labels[v] = max(v-1, 0)
	}
	_, _, err = mergePhase(buildSum(labels, nil), condDominance)
	if want := uint64(3 * m * ((m + 63) / 64 * 8)); !errors.As(err, &be) || be.Bytes != want {
		t.Fatalf("dominance phase over %d nodes: %v, want a BudgetError of %d bytes", m, err, want)
	}
}
