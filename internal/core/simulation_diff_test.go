package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// Differential lock for the class-local simulation: rows, equivalence
// classes and the DAG verdict are held to the dense fixpoint oracle
// (oracle_test.go) element for element.

// checkAgainstDense compares both directions of simulation on g with the
// oracle. A cyclic g must yield ErrNotDAG from both directions instead.
func checkAgainstDense(t testing.TB, name string, g *sumGraph, cyclic bool) {
	t.Helper()
	for _, forward := range []bool{false, true} {
		sim, err := simulation(g, forward)
		if cyclic {
			if !errors.Is(err, ErrNotDAG) {
				t.Fatalf("%s forward=%v: cyclic graph gave err=%v, want ErrNotDAG", name, forward, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s forward=%v: %v", name, forward, err)
		}
		want := denseSimulation(g, forward)
		for u := range want {
			var wantRow []int
			want[u].Iterate(func(x uint32) bool {
				wantRow = append(wantRow, int(x))
				return true
			})
			if got := simRow(g, sim, u); !slices.Equal(got, wantRow) {
				t.Fatalf("%s forward=%v: sim(%d) = %v, oracle %v", name, forward, u, got, wantRow)
			}
		}
		got, wantClasses := simEquivClasses(g, sim), denseSimEquivClasses(want)
		if !slices.EqualFunc(got, wantClasses, func(a, b []int) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s forward=%v: classes %v, oracle %v", name, forward, got, wantClasses)
		}
	}
}

// hasCycle is an independent (DFS, three-color) cycle check on an edge list.
func hasCycle(n int, edges [][3]int) bool {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	color := make([]uint8, n) // 0 new, 1 on the stack, 2 done
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = 1
		for _, d := range adj[v] {
			if color[d] == 1 || color[d] == 0 && visit(d) {
				return true
			}
		}
		color[v] = 2
		return false
	}
	for v := 0; v < n; v++ {
		if color[v] == 0 && visit(v) {
			return true
		}
	}
	return false
}

// randomDAG draws a labelled DAG whose topological order is a random
// permutation of the ids (so the children-first pass cannot lean on id
// order), with parallel duplicate arcs and, optionally, hub nodes that take
// an arc from or to every other node.
func randomDAG(rng *rand.Rand, n, numLabels, numRels int, density float64, hubs int) ([]int, [][3]int) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(numLabels)
	}
	rank := rng.Perm(n) // rank[i] = node at topological position i
	var edges [][3]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i < hubs || j >= n-hubs || rng.Float64() < density {
				e := [3]int{rank[i], rank[j], rng.Intn(numRels)}
				edges = append(edges, e)
				if rng.Intn(4) == 0 {
					edges = append(edges, e) // duplicate arc
				}
			}
		}
	}
	return labels, edges
}

func TestSimulationMatchesDenseOracle(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(70) // crosses the 64-bit row boundary
		numLabels := 1 + rng.Intn(4)
		if trial%3 == 0 {
			numLabels = n // many labels: mostly singleton classes
		}
		hubs := 0
		if trial%5 == 0 {
			hubs = 1 + rng.Intn(2)
		}
		labels, edges := randomDAG(rng, n, numLabels, 1+rng.Intn(3), 0.02+0.2*rng.Float64(), hubs)
		checkAgainstDense(t, "random DAG", buildSum(labels, edges), false)
	}
}

// TestSimulationRejectsCycle: the issue's reproduction (it nil-dereferenced
// in newReachGuard under condDominance) and a self-loop.
func TestSimulationRejectsCycle(t *testing.T) {
	for _, edges := range [][][3]int{
		{{0, 1, 0}, {1, 2, 0}, {2, 1, 0}, {3, 1, 0}},
		{{0, 1, 0}, {1, 1, 0}},
	} {
		g := buildSum([]int{0, 0, 0, 0}, edges)
		checkAgainstDense(t, "cycle", g, true)
		for _, cond := range []mergeCondition{condInEquiv, condOutEquiv, condDominance} {
			if _, _, err := mergePhase(g, cond); !errors.Is(err, ErrNotDAG) {
				t.Fatalf("mergePhase(%v) on a cycle: err=%v, want ErrNotDAG", cond, err)
			}
		}
	}
}

// TestSimulationMemoizedPerGraph: a phase that merges nothing must reuse the
// relation the previous phase computed on the same graph.
func TestSimulationMemoizedPerGraph(t *testing.T) {
	g := buildSum([]int{0, 1, 2}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	first, err := g.sim(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cond := range []mergeCondition{condOutEquiv, condDominance} {
		if remap, _, err := mergePhase(g, cond); err != nil || remap != nil {
			t.Fatalf("mergePhase(%v) = %v, %v; want no merge", cond, remap, err)
		}
	}
	if again, _ := g.sim(true); &again[0] != &first[0] {
		t.Fatal("out-simulation recomputed on an unchanged graph")
	}
}

// graphFromBytes decodes fuzz input into a labelled graph: a 5-byte header
// (node count, label count, relation count, permutation seed, orientation
// flag) followed by one byte per node label and three bytes per arc. With
// the flag even every arc points up a seeded permutation of the ids, so the
// graph is a DAG; odd leaves arcs as drawn and cycles may appear.
func graphFromBytes(data []byte) (labels []int, edges [][3]int) {
	if len(data) < 5 {
		return nil, nil
	}
	n := 1 + int(data[0])%80 // rows may span two words
	numLabels := 1 + int(data[1])%n
	numRels := 1 + int(data[2])%3
	rank := rand.New(rand.NewSource(int64(data[3]))).Perm(n)
	oriented := data[4]%2 == 0
	data = data[5:]
	labels = make([]int, n)
	for i := range labels {
		if i < len(data) {
			labels[i] = int(data[i]) % numLabels
		}
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 3; data = data[3:] {
		a, b := int(data[0])%n, int(data[1])%n
		if oriented {
			if a == b {
				continue
			}
			a, b = rank[min(a, b)], rank[max(a, b)]
		}
		edges = append(edges, [3]int{a, b, int(data[2]) % numRels})
	}
	return labels, edges
}

// FuzzSimulation: any decoded graph either has a cycle and is rejected, or
// gets the oracle's relation. The seed corpus (the issue's cycle, a hub,
// duplicate arcs, one label, all-distinct labels) is checked in under
// testdata/fuzz/FuzzSimulation.
func FuzzSimulation(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 1, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		labels, edges := graphFromBytes(data)
		if labels == nil {
			return
		}
		checkAgainstDense(t, "fuzz", buildSum(labels, edges), hasCycle(len(labels), edges))
	})
}
