package core

import (
	"cmp"
	"errors"
	"math/bits"
	"slices"
)

// Simulation preorders on the working summary graph (paper Sec. IV.B):
// u <=sout v ("v out-simulates u") iff labels match and every labeled child
// of u is out-simulated by some equally-labeled-edge child of v; <=sin is
// the same over parents. Simulation approximates trace dominance: u <=sout
// v implies every out-path label of u is an out-path label of v, which is
// what Lemma 5's merge conditions need.

// ErrNotDAG reports a cyclic summary graph. The Psg definition requires a
// DAG, and segments of a validated provenance graph are acyclic; a graph
// that skipped validation need not be.
var ErrNotDAG = errors.New("core: PgSum input is not a DAG")

// sumGraph is the working graph PgSum merges over: nodes carry a class
// label; arcs carry the PROV relationship. It is immutable once built, so
// the two simulation preorders are computed at most once per graph.
type sumGraph struct {
	label []int
	// out and in hold each node's arcs sorted by (rel, label of the far
	// end, far end), without duplicates.
	out [][]halfArc
	in  [][]halfArc
	// class lists the nodes of each label in ascending id order; pos is a
	// node's index in its class. Simulation never crosses labels, so a
	// simRel row is a bitset over class positions, not over all nodes.
	class [][]int
	pos   []int

	sims [2]simRel // memoized simulation(g, forward), indexed by direction
}

// newSumGraph builds the graph over len(label) nodes from arcs between node
// ids; labels are small non-negative class ids. Parallel identical arcs are
// dropped (they do not change the path-label language).
func newSumGraph(label []int, arcs []origEdge) *sumGraph {
	n := len(label)
	g := &sumGraph{label: label, pos: make([]int, n)}
	for _, l := range label {
		for l >= len(g.class) {
			g.class = append(g.class, nil)
		}
	}
	for v, l := range label {
		g.pos[v] = len(g.class[l])
		g.class[l] = append(g.class[l], v)
	}
	g.out = g.adjacency(arcs, true)
	g.in = g.adjacency(arcs, false)
	return g
}

// adjacency buckets arcs by tail (forward) or head into one backing array,
// then sorts and deduplicates each node's run.
func (g *sumGraph) adjacency(arcs []origEdge, forward bool) [][]halfArc {
	n := g.numNodes()
	end := make([]int, n+1)
	for _, a := range arcs {
		if !forward {
			a.from = a.to
		}
		end[a.from+1]++
	}
	for v := 0; v < n; v++ {
		end[v+1] += end[v]
	}
	// end[v] is the fill cursor of node v; after the fill it is the end of
	// v's run, i.e. the start of v+1's.
	flat := make([]halfArc, len(arcs))
	for _, a := range arcs {
		if !forward {
			a.from, a.to = a.to, a.from
		}
		flat[end[a.from]] = halfArc{to: a.to, rel: uint8(a.rel)}
		end[a.from]++
	}
	order := func(a, b halfArc) int {
		return cmp.Or(cmp.Compare(a.rel, b.rel), cmp.Compare(g.label[a.to], g.label[b.to]), cmp.Compare(a.to, b.to))
	}
	adj := make([][]halfArc, n)
	start := 0
	for v := 0; v < n; v++ {
		run := flat[start:end[v]:end[v]]
		start = end[v]
		slices.SortFunc(run, order)
		adj[v] = slices.Compact(run)
	}
	return adj
}

func (g *sumGraph) numNodes() int { return len(g.label) }

// sim returns the memoized simulation preorder of one direction.
func (g *sumGraph) sim(forward bool) (simRel, error) {
	i := 0
	if forward {
		i = 1
	}
	if g.sims[i] == nil {
		rel, err := simulation(g, forward)
		if err != nil {
			return nil, err
		}
		g.sims[i] = rel
	}
	return g.sims[i], nil
}

// simRel is a simulation preorder: bit i of row u is set iff u <= v for
// v = class[label[u]][i]. Rows of one label class have equal length; nodes
// whose row is the whole class share one.
type simRel [][]uint64

// has reports u <= v for two nodes of the same label.
func (s simRel) has(g *sumGraph, u, v int) bool {
	i := g.pos[v]
	return s[u][i>>6]&(1<<(i&63)) != 0
}

// eachPos calls fn with every set position of a row (optionally ANDed with
// a second row of the same class) in ascending order, until fn returns
// false.
func eachPos(row, and []uint64, fn func(i int) bool) {
	for w, word := range row {
		if and != nil {
			word &= and[w]
		}
		for ; word != 0; word &= word - 1 {
			if !fn(w<<6 | bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// topoOrder lists the nodes successors-first (Kahn): every node comes after
// all targets of its succ arcs; pred is the reverse adjacency. A cycle
// leaves nodes unordered and yields ErrNotDAG.
func topoOrder(succ, pred [][]halfArc) ([]int, error) {
	n := len(succ)
	pending := make([]int, n)
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		pending[v] = len(succ[v])
		if pending[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, arc := range pred[order[i]] {
			if pending[arc.to]--; pending[arc.to] == 0 {
				order = append(order, arc.to)
			}
		}
	}
	if len(order) < n {
		return nil, ErrNotDAG
	}
	return order, nil
}

// simulation computes the greatest simulation preorder over children
// (forward=true, i.e. <=sout) or parents (forward=false, i.e. <=sin). On a
// DAG the greatest fixpoint is a well-founded recursion: row u depends only
// on the rows of u's successors, so one children-first pass computes every
// row exactly once.
func simulation(g *sumGraph, forward bool) (simRel, error) {
	n := g.numNodes()
	succ, pred := g.out, g.in
	if !forward {
		succ, pred = g.in, g.out
	}
	order, err := topoOrder(succ, pred)
	if err != nil {
		return nil, err
	}

	// Rows that are the whole class (no successors to match, or nobody else
	// in the class) share the class's all-ones row; the others are cut from
	// one slab.
	sim := make(simRel, n)
	full := make([][]uint64, len(g.class))
	words := 0
	for v := 0; v < n; v++ {
		if c := len(g.class[g.label[v]]); len(succ[v]) > 0 && c > 1 {
			words += (c + 63) >> 6
		}
	}
	slab := make([]uint64, words)

	// simulates reports u <= v given the finished rows of u's successors:
	// every arc (r, c) of u needs an arc (r, d) of v with c <= d. Both arc
	// lists are sorted by (rel, far label), so the candidates d for one arc
	// of u are a contiguous run of v's arcs and the runs advance in step.
	simulates := func(u, v int) bool {
		vs := succ[v]
		j := 0
	arcs:
		for _, a := range succ[u] {
			la := g.label[a.to]
			for j < len(vs) && (vs[j].rel < a.rel || vs[j].rel == a.rel && g.label[vs[j].to] < la) {
				j++
			}
			for k := j; k < len(vs) && vs[k].rel == a.rel && g.label[vs[k].to] == la; k++ {
				if sim.has(g, a.to, vs[k].to) {
					continue arcs
				}
			}
			return false
		}
		return true
	}

	for _, u := range order {
		l := g.label[u]
		cl := g.class[l]
		if len(succ[u]) == 0 || len(cl) == 1 {
			if full[l] == nil {
				full[l] = make([]uint64, (len(cl)+63)>>6)
				for i := range cl {
					full[l][i>>6] |= 1 << (i & 63)
				}
			}
			sim[u] = full[l]
			continue
		}
		w := (len(cl) + 63) >> 6
		row := slab[:w:w]
		slab = slab[w:]
		for i, v := range cl {
			if v == u || simulates(u, v) {
				row[i>>6] |= 1 << (i & 63)
			}
		}
		sim[u] = row
	}
	return sim, nil
}

// simEquivClasses partitions nodes into mutual-simulation equivalence
// classes; singleton classes are omitted.
func simEquivClasses(g *sumGraph, sim simRel) [][]int {
	assigned := make([]bool, len(sim))
	var classes [][]int
	for u := range sim {
		if assigned[u] {
			continue
		}
		assigned[u] = true
		cl := g.class[g.label[u]]
		var members []int
		eachPos(sim[u], nil, func(i int) bool {
			if v := cl[i]; v > u && !assigned[v] && sim.has(g, v, u) {
				assigned[v] = true
				if members == nil {
					members = append(members, u)
				}
				members = append(members, v)
			}
			return true
		})
		if members != nil {
			classes = append(classes, members)
		}
	}
	return classes
}
