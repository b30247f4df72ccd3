package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/prov"
)

// The simulation-quotient lemma (flatGraph.quotient) tested as a lemma: every
// preorder and order an equivalence merge hands on is held to a fresh solve on
// the quotient, and every phase the merge loop skips as idle is run anyway.

// levels returns each node's longest path along succ, by a memoized DFS that
// shares nothing with topoOrder.
func levels(succ csr) []int {
	n := len(succ.off) - 1
	lv, done := make([]int, n), make([]bool, n)
	var visit func(v int32) int
	visit = func(v int32) int {
		if !done[v] {
			for _, a := range succ.of(v) {
				lv[v] = max(lv[v], visit(arcFar(a))+1)
			}
			done[v] = true
		}
		return lv[v]
	}
	for v := range n {
		visit(int32(v))
	}
	return lv
}

// levelOrderFault says how order fails to list every node once with levels
// along succ that never fall ("" when it does; such an order is
// successors-first).
func levelOrderFault(order []int32, succ csr) string {
	n := len(succ.off) - 1
	if len(order) != n {
		return fmt.Sprintf("%d of %d nodes listed", len(order), n)
	}
	lv, seen := levels(succ), make([]bool, n)
	for i, v := range order {
		if seen[v] {
			return fmt.Sprintf("node %d listed twice", v)
		}
		seen[v] = true
		if i > 0 && lv[v] < lv[order[i-1]] {
			return fmt.Sprintf("level falls from %d to %d at position %d", lv[order[i-1]], lv[v], i)
		}
	}
	return ""
}

// topoFault says which succ arc order does not list head first ("" when
// none).
func topoFault(order []int32, succ csr) string {
	pos := make([]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for v := range pos {
		for _, a := range succ.of(int32(v)) {
			if pos[arcFar(a)] >= pos[v] {
				return fmt.Sprintf("arc %d -> %d listed tail first", v, arcFar(a))
			}
		}
	}
	return ""
}

// lifoOrder is topoOrder with a stack for its queue: topological, but not a
// level order.
func lifoOrder(succ, pred csr) []int32 {
	n := len(succ.off) - 1
	pending, stack, order := make([]int32, n), []int32{}, []int32{}
	for v := range pending {
		if pending[v] = succ.off[v+1] - succ.off[v]; pending[v] == 0 {
			stack = append(stack, int32(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack, order = stack[:len(stack)-1], append(order, v)
		for _, a := range pred.of(v) {
			if pending[arcFar(a)]--; pending[arcFar(a)] == 0 {
				stack = append(stack, arcFar(a))
			}
		}
	}
	return order
}

// TestTopoOrderIsLevelOrder: along topoOrder's list a node's level never
// falls, in both directions, on random DAGs — the contract a quotient's
// inherited order rests on. A stack-driven Kahn sort fails the same check.
func TestTopoOrderIsLevelOrder(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(36))
	lifoCaught := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(70)
		labels, edges := randomDAG(rng, n, 1+rng.Intn(4), 1+rng.Intn(3), 0.02+0.2*rng.Float64(), trial%5/4)
		g := buildSum(labels, edges)
		for _, forward := range []bool{false, true} {
			succ, pred := g.out, g.in
			if !forward {
				succ, pred = g.in, g.out
			}
			order, err := topoOrder(new(arena), succ, pred)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if f := levelOrderFault(order, succ); f != "" {
				t.Fatalf("trial %d forward=%v: topoOrder is not a level order: %s", trial, forward, f)
			}
			if levelOrderFault(lifoOrder(succ, pred), succ) != "" {
				lifoCaught++
			}
		}
	}
	if lifoCaught == 0 {
		t.Fatal("a LIFO Kahn sort passed every level check: the check has no teeth")
	}
}

// bare is g's nodes and arcs with nothing computed on them, in an arena of
// its own.
func bare(g *flatGraph) *flatGraph {
	return &flatGraph{
		mem: new(arena), work: new(Work), label: g.label, out: g.out, in: g.in,
		classOff: g.classOff, classMem: g.classMem, pos: g.pos,
	}
}

// checkingProbe watches a merge loop and fails t unless, after every
// equivalence merge, the quotient's inherited preorder is a fresh simulation
// of the quotient row for row, its inherited order is a level order toward
// the merge's direction (and, read backwards, topological toward the other),
// it was handed one whenever the graph merged had one toward that direction,
// and the phase that built it is idle; and every phase skipped as idle merges
// nothing when it is run anyway.
func checkingProbe(t testing.TB, c *MergeChecks) *sumProbe {
	return &sumProbe{
		skipped: func(g *flatGraph, cond mergeCondition) {
			t.Helper()
			if remap, _, err := mergePhase(bare(g), cond); err != nil || remap != nil {
				t.Fatalf("phase %d skipped as idle on %d nodes: run anyway it gives remap %v, err %v", cond, g.numNodes(), remap, err)
			}
			c.Skips++
		},
		built: func(g, q *flatGraph, cond mergeCondition) {
			t.Helper()
			if cond == condDominance {
				if q.sims != [2]*simRel{} || q.order != nil || q.idle != 0 {
					t.Fatal("a dominance quotient inherited state")
				}
				return
			}
			fwd := cond == condOutEquiv
			if q.idle != 1<<cond {
				t.Fatalf("quotient of phase %d starts with idle %b", cond, q.idle)
			}
			got, want := q.sims[dir(fwd)], mustSim(t, bare(q), fwd)
			for u := range q.numNodes() {
				if g, w := simRow(q, got, u), simRow(q, want, u); !slices.Equal(g, w) {
					t.Fatalf("quotient of phase %d: inherited row %d = %v, fresh simulation %v", cond, u, g, w)
				}
			}
			c.Preorders++
			if q.order == nil {
				if g.order != nil && g.orderFwd == fwd {
					t.Fatalf("phase %d merged a graph with a level order toward its direction and handed none on", cond)
				}
				return
			}
			succ, other := q.out, q.in
			if !fwd {
				succ, other = q.in, q.out
			}
			back := slices.Clone(q.order)
			slices.Reverse(back)
			if q.orderFwd != fwd {
				t.Fatalf("quotient of phase %d carries an order toward the other direction", cond)
			}
			if f := levelOrderFault(q.order, succ); f != "" {
				t.Fatalf("quotient of phase %d: inherited order is not a level order: %s", cond, f)
			}
			if f := topoFault(back, other); f != "" {
				t.Fatalf("quotient of phase %d: inherited order read backwards: %s", cond, f)
			}
			c.Orders++
		},
	}
}

// denseMergeLoop is the merge loop of denseSummarize on one labeled graph:
// the occurrence-to-node map it ends with and its rounds.
func denseMergeLoop(labels []int, edges [][3]int) (nodeOf []int, rounds int) {
	orig := make([]origEdge, len(edges))
	for i, e := range edges {
		orig[i] = origEdge{from: e[0], to: e[1], rel: prov.Rel(e[2])}
	}
	nodeOf = make([]int, len(labels))
	for i := range nodeOf {
		nodeOf[i] = i
	}
	cur := denseBuildSumGraph(labels, nodeOf, len(nodeOf), orig)
	for progressed := true; progressed; rounds++ {
		progressed = false
		for _, phase := range []mergeCondition{condInEquiv, condOutEquiv, condDominance} {
			remap, numNew, changed := denseMergePhase(cur, phase)
			if !changed {
				continue
			}
			progressed = true
			for i := range nodeOf {
				nodeOf[i] = remap[nodeOf[i]]
			}
			cur = denseBuildSumGraph(labels, nodeOf, numNew, orig)
		}
	}
	return nodeOf, rounds
}

// checkMergeLoop runs the production merge loop on a labeled graph under a
// checking probe and holds its end — the node of every input node and the
// rounds — to denseMergeLoop. A cyclic graph must give ErrNotDAG instead.
func checkMergeLoop(t testing.TB, name string, labels []int, edges [][3]int, c *MergeChecks) {
	t.Helper()
	sc := &sumScratch{work: new(Work), probe: checkingProbe(t, c)}
	g0 := buildSum(labels, edges)
	g0.work = sc.work
	nodeOf := make([]int32, len(labels))
	for i := range nodeOf {
		nodeOf[i] = int32(i)
	}
	_, rounds, err := sc.mergeLoop(g0, nodeOf, 0)
	if hasCycle(len(labels), edges) {
		if !errors.Is(err, ErrNotDAG) {
			t.Fatalf("%s: cyclic graph gave err=%v, want ErrNotDAG", name, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantNodeOf, wantRounds := denseMergeLoop(labels, edges)
	for i, nd := range nodeOf {
		if int(nd) != wantNodeOf[i] || rounds != wantRounds {
			t.Fatalf("%s: node %d ends in %d after %d rounds, oracle %d after %d", name, i, nd, rounds, wantNodeOf[i], wantRounds)
		}
	}
}

// randomGraphBytes draws graphFromBytes input for an oriented graph: n nodes
// over numLabels labels, arcs arcs.
func randomGraphBytes(rng *rand.Rand, n, numLabels, arcs int) []byte {
	data := []byte{byte(n - 1), byte(numLabels - 1), byte(rng.Intn(3)), byte(rng.Intn(256)), 0}
	for range n {
		data = append(data, byte(rng.Intn(numLabels)))
	}
	for range arcs {
		data = append(data, byte(rng.Intn(n)), byte(rng.Intn(n)), byte(rng.Intn(3)))
	}
	return data
}

// FuzzMergeLoop: on any decoded graph the production merge loop either
// refuses a cycle or ends where the dense merge loop does, and every
// preorder, order and idle phase an equivalence merge hands on holds up to a
// fresh solve. The seed corpus is checked in under testdata/fuzz/FuzzMergeLoop.
func FuzzMergeLoop(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	f.Add(randomGraphBytes(rng, 80, 2, 160))
	f.Add(randomGraphBytes(rng, 40, 30, 90))
	f.Fuzz(func(t *testing.T, data []byte) {
		labels, edges := graphFromBytes(data)
		if labels == nil {
			return
		}
		checkMergeLoop(t, "fuzz", labels, edges, new(MergeChecks))
	})
}
