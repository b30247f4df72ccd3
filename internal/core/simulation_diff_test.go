package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/prov"
)

// Differential lock for the class-local simulation: rows, equivalence
// classes and the DAG verdict are held to the dense fixpoint oracle
// (oracle_test.go) element for element.

// checkAgainstDense compares both directions of simulation on g with the
// oracle. A cyclic g must yield ErrNotDAG from both directions instead.
func checkAgainstDense(t testing.TB, name string, g *flatGraph, cyclic bool) {
	t.Helper()
	dense := denseOf(g)
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
		want := denseSimulation(dense, forward)
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
		got, wantClasses := equivClasses(g, sim), denseSimEquivClasses(want)
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

// collisionDAG draws a three-layer DAG built to defeat the 64-bit arc
// signature: roots and leaves carry a label each, the mids between them share
// label 0, so the mids' arc lists hold far more than 64 distinct (rel, far
// label) pairs in both directions and unrelated pairs share signature bits.
// Every mid after the first few copies a subset of an earlier mid's arcs or
// draws its own, so the relation has true pairs the filter must let through
// and near-misses only the walk can refute.
func collisionDAG(rng *rand.Rand, ends, mids, numRels int) ([]int, [][3]int) {
	n := 2*ends + mids
	labels := make([]int, n)
	for i := 0; i < ends; i++ {
		labels[i], labels[ends+mids+i] = 1+i, 1+ends+i
	}
	var edges [][3]int
	arcsOf := make([][][3]int, mids) // per mid: (root or leaf, rel, 0 = in / 1 = out)
	for m := 0; m < mids; m++ {
		if m >= 4 && rng.Intn(2) == 0 {
			for _, a := range arcsOf[rng.Intn(m)] {
				if rng.Intn(3) > 0 {
					arcsOf[m] = append(arcsOf[m], a)
				}
			}
		} else {
			for k := 8 + rng.Intn(12); k > 0; k-- {
				arcsOf[m] = append(arcsOf[m], [3]int{rng.Intn(ends), rng.Intn(numRels), rng.Intn(2)})
			}
		}
		for _, a := range arcsOf[m] {
			if a[2] == 0 {
				edges = append(edges, [3]int{a[0], ends + m, a[1]})
			} else {
				edges = append(edges, [3]int{ends + m, ends + mids + a[0], a[1]})
			}
		}
	}
	return labels, edges
}

// TestSimulationSignatureCollisions: with more (rel, far label) pairs than
// signature bits the filter passes pairs it should not and must still never
// drop one the oracle accepts; rows are compared exactly, so either error
// shows.
func TestSimulationSignatureCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		labels, edges := collisionDAG(rng, 100+rng.Intn(60), 80+rng.Intn(60), 1+rng.Intn(3))
		for _, dir := range []int{0, 1} { // arcs into the mids, arcs out of them
			pairs := map[[2]int]bool{}
			for _, e := range edges {
				if far := e[1-dir]; labels[e[dir]] == 0 {
					pairs[[2]int{e[2], labels[far]}] = true
				}
			}
			if len(pairs) <= 64 {
				t.Fatalf("only %d distinct (rel, far label) pairs: no signature collision is forced", len(pairs))
			}
		}
		checkAgainstDense(t, "collision DAG", buildSum(labels, edges), false)
	}
}

// TestSumKeyPacking: both key layouts give every field back at both ends of
// its range, and arc order is (rel, far label, far end) order.
func TestSumKeyPacking(t *testing.T) {
	ends := []int32{0, 1, sumIDMask - 1, sumIDMask}
	var prev uint64
	for _, rel := range []uint8{0, 1, 254, 255} {
		for _, x := range ends {
			for _, y := range ends {
				a := packArc(rel, x, y)
				if arcRel(a) != rel || int32(a>>sumIDBits&sumIDMask) != x || arcFar(a) != y {
					t.Fatalf("packArc(%d, %d, %d) = %#x reads back (%d, %d, %d)", rel, x, y, a, arcRel(a), a>>sumIDBits&sumIDMask, arcFar(a))
				}
				if a <= prev && (rel|uint8(x)|uint8(y) != 0 || x|y != 0) {
					t.Fatalf("packArc(%d, %d, %d) = %#x does not sort after its predecessor %#x", rel, x, y, a, prev)
				}
				prev = a
				if p, r, q := unpackEdge(packEdge(x, rel, y)); p != x || r != rel || q != y {
					t.Fatalf("packEdge(%d, %d, %d) reads back (%d, %d, %d)", x, rel, y, p, r, q)
				}
			}
		}
	}
}

// TestSummarizeRejectsUnfitInput: more occurrences than a key field holds,
// or a segment edge that leaves the segment's vertex list, is an error before
// any key is packed — not a truncated id and a wrong Psg.
func TestSummarizeRejectsUnfitInput(t *testing.T) {
	n := (sumIDMask + 1) / 64
	wide := &Segment{VertexRuns: []Run[graph.VertexID]{{0, graph.VertexID(n - 1)}}, Rules: make([]Rule, n)}
	segs := make([]*Segment, 64)
	for i := range segs {
		segs[i] = wide
	}
	if psg, err := Summarize(segs, SumOptions{}); err == nil || psg != nil {
		t.Fatalf("Summarize over %d occurrences: psg=%v err=%v, want an error", 64*n, psg, err)
	}

	p := prov.New()
	a, b := p.NewEntity("a"), p.NewEntity("b")
	p.WasDerivedFrom(b, a)
	seg, err := NewSegment(p.Freeze(), []graph.VertexID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][]graph.VertexID{{a}, {b}} {
		seg.VertexRuns, seg.Rules = idRuns(cut), seg.Rules[:len(cut)]
		if psg, err := Summarize([]*Segment{seg, seg}, SumOptions{}); err == nil || psg != nil {
			t.Fatalf("Summarize with vertices %v and an edge %d -> %d: psg=%v err=%v, want an error", cut, b, a, psg, err)
		}
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
	if again, _ := g.sim(true); again != first {
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
	// 80 nodes, 20 of label 0 among 60 labels of their own, 3 relations, 400
	// arcs: the label-0 class sees ~180 (rel, far label) pairs through 64
	// signature bits.
	collide := []byte{79, 60, 2, 7, 0}
	for v := 0; v < 80; v++ {
		collide = append(collide, byte(max(0, v-19)))
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 400; i++ {
		collide = append(collide, byte(rng.Intn(80)), byte(rng.Intn(80)), byte(rng.Intn(3)))
	}
	f.Add(collide)
	f.Fuzz(func(t *testing.T, data []byte) {
		labels, edges := graphFromBytes(data)
		if labels == nil {
			return
		}
		checkAgainstDense(t, "fuzz", buildSum(labels, edges), hasCycle(len(labels), edges))
	})
}
