package core

import (
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

// An arc is one word, rel | label of the far end | far end, so uint64 order
// is the (rel, far label, far end) order simulation walks and a sort needs
// no comparator. An edge key is end | rel | end in the same widths: (tail,
// rel, head) when g0 is collected, (head, rel, segment) when assemble counts
// support. Summarize refuses inputs whose counts do not fit sumIDBits.
const (
	sumIDBits = 28
	sumIDMask = 1<<sumIDBits - 1
)

func packArc(rel uint8, label, far int32) uint64 {
	return uint64(rel)<<(2*sumIDBits) | uint64(label)<<sumIDBits | uint64(far)
}

func arcFar(a uint64) int32 { return int32(a & sumIDMask) }
func arcRel(a uint64) uint8 { return uint8(a >> (2 * sumIDBits)) }

func packEdge(a int32, rel uint8, b int32) uint64 {
	return uint64(a)<<(sumIDBits+8) | uint64(rel)<<sumIDBits | uint64(b)
}

func unpackEdge(k uint64) (a int32, rel uint8, b int32) {
	return int32(k >> (sumIDBits + 8)), uint8(k >> sumIDBits), int32(k & sumIDMask)
}

// csr holds every node's arcs back to back: node v's are arc[off[v]:off[v+1]].
type csr struct {
	off []int32
	arc []uint64
}

func (c csr) of(v int32) []uint64 { return c.arc[c.off[v]:c.off[v+1]] }

// bit reads and setBit sets bit i of a set packed into words.
func bit[I int | int32](w []uint64, i I) uint64 { return w[i>>6] >> (i & 63) & 1 }
func setBit[I int | int32](w []uint64, i I)     { w[i>>6] |= 1 << (i & 63) }

// settle closes a csr over filled buckets: off[v+1] is the end of v's bucket
// (what a cursor fill leaves behind). Buckets marked in dirty — all of them
// when dirty is nil — are sorted and deduplicated first, and the gaps that
// leaves are closed.
func settle(off []int32, arc []uint64, dirty []uint64) csr {
	n := len(off) - 1
	start, w := int32(0), int32(0)
	for v := 0; v < n; v++ {
		run := arc[start:off[v+1]]
		start = off[v+1]
		if dirty == nil || bit(dirty, v) != 0 {
			slices.Sort(run)
			run = slices.Compact(run)
		}
		off[v] = w
		w += int32(copy(arc[w:], run))
	}
	off[n] = w
	return csr{off: off, arc: arc[:w]}
}

// setLabels writes the far ends' labels into the arcs and orders the runs.
func (c csr) setLabels(label []int32) csr {
	for i, a := range c.arc {
		c.arc[i] = a | uint64(label[arcFar(a)])<<sumIDBits
	}
	return settle(c.off, c.arc, nil)
}

// quotient renames c's nodes along remap into numNew buckets (see
// flatGraph.quotient; later marks the nodes that are not the first of their
// group).
func (c csr) quotient(mem *arena, remap []int32, numNew int, later []uint64) csr {
	off := mem.i32.take(numNew + 2)
	for v, w := range remap {
		off[w+2] += c.off[v+1] - c.off[v]
	}
	for w := 0; w < numNew; w++ {
		off[w+2] += off[w+1]
	}
	arc, dirty := mem.u64.take(len(c.arc)), mem.u64.take((numNew+63)>>6)
	for v, w := range remap {
		moved := bit(later, v)
		for _, a := range c.of(int32(v)) {
			moved |= bit(later, arcFar(a))
			arc[off[w+1]] = a&^sumIDMask | uint64(remap[arcFar(a)])
			off[w+1]++
		}
		dirty[w>>6] |= moved << (w & 63)
	}
	return settle(off[:numNew+1], arc, dirty)
}

// flatGraph is the working graph PgSum merges over, g0 and every quotient
// of it: nodes carry a class label, arcs the PROV relationship. It is
// immutable once labeled, so the two simulation preorders are computed at
// most once per graph. It is cut from mem, and so is what is computed on it.
type flatGraph struct {
	mem   *arena
	label []int32
	// out and in hold each node's arcs ascending, without duplicates
	// (parallel identical arcs do not change the path-label language).
	out, in csr
	// Nodes of label l in ascending id order are
	// classMem[classOff[l]:classOff[l+1]]; pos is a node's index in its
	// class. Simulation never crosses labels, so a simRel row is a bitset
	// over class positions, not over all nodes.
	classOff, classMem, pos []int32

	sims [2]*simRel // memoized simulation(g, forward), indexed by direction
}

// newFlatGraph buckets (tail, rel, head) edge keys over n nodes into out and
// in runs in one pass. The arcs carry no labels yet: setLabels finishes the
// graph.
func newFlatGraph(mem *arena, n int, edges []uint64) *flatGraph {
	outOff, inOff := mem.i32.take(n+2), mem.i32.take(n+2)
	for _, k := range edges {
		from, _, to := unpackEdge(k)
		outOff[from+2]++
		inOff[to+2]++
	}
	for v := 0; v < n; v++ {
		outOff[v+2] += outOff[v+1]
		inOff[v+2] += inOff[v+1]
	}
	out, in := mem.u64.take(len(edges)), mem.u64.take(len(edges))
	for _, k := range edges {
		from, rel, to := unpackEdge(k)
		out[outOff[from+1]] = packArc(rel, 0, to)
		outOff[from+1]++
		in[inOff[to+1]] = packArc(rel, 0, from)
		inOff[to+1]++
	}
	return &flatGraph{mem: mem, out: csr{outOff[:n+1], out}, in: csr{inOff[:n+1], in}}
}

// setLabels gives the nodes their class labels (small non-negative ids below
// numLabels), writes them into the arcs and puts every run in order.
func (g *flatGraph) setLabels(label []int32, numLabels int) {
	g.label = label
	g.out, g.in = g.out.setLabels(label), g.in.setLabels(label)
	g.index(numLabels)
}

// index lists the nodes of each label (a counting sort).
func (g *flatGraph) index(numLabels int) {
	n := len(g.label)
	g.classOff, g.classMem, g.pos = g.mem.i32.take(numLabels+2), g.mem.i32.take(n), g.mem.i32.take(n)
	for v, l := range g.label {
		g.pos[v] = g.classOff[l+2]
		g.classOff[l+2]++
	}
	for l := 0; l < numLabels; l++ {
		g.classOff[l+2] += g.classOff[l+1]
	}
	for v, l := range g.label {
		g.classMem[g.classOff[l+1]] = int32(v)
		g.classOff[l+1]++
	}
	g.classOff = g.classOff[:numLabels+1]
}

// quotient returns the graph over numNew nodes that merges g's nodes along
// remap, cut from mem. remap numbers the groups by their smallest member, so
// it is strictly increasing on the nodes that are the first of their group
// and labels never change: an arc run all of whose far ends are such nodes,
// owned by such a node, is still ascending and duplicate-free after the
// renaming. Only runs that take in a later member, as owner or as far end,
// are sorted again.
func (g *flatGraph) quotient(mem *arena, remap []int32, numNew int) *flatGraph {
	q := &flatGraph{mem: mem, label: mem.i32.take(numNew)}
	later := mem.u64.take((len(remap) + 63) >> 6)
	seen := int32(0)
	for v, w := range remap {
		q.label[w] = g.label[v]
		if w == seen {
			seen++
		} else {
			setBit(later, v)
		}
	}
	q.out, q.in = g.out.quotient(mem, remap, numNew, later), g.in.quotient(mem, remap, numNew, later)
	q.index(len(g.classOff) - 1)
	return q
}

func (g *flatGraph) numNodes() int { return len(g.out.off) - 1 }

// class lists the nodes of label l in ascending id order.
func (g *flatGraph) class(l int32) []int32 { return g.classMem[g.classOff[l]:g.classOff[l+1]] }

// sim returns the memoized simulation preorder of one direction.
func (g *flatGraph) sim(forward bool) (*simRel, error) {
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
// v = class(label[u])[i]. Row u starts at words[row[u]] and is as long as
// its class needs; nodes whose row is the whole class share one.
type simRel struct {
	row   []uint64
	words []uint64
}

// of returns the row of u.
func (s *simRel) of(g *flatGraph, u int32) []uint64 {
	return s.words[s.row[u]:][:(len(g.class(g.label[u]))+63)>>6]
}

// has reports u <= v for two nodes of the same label.
func (s *simRel) has(g *flatGraph, u, v int32) bool {
	i := g.pos[v]
	return s.words[s.row[u]+uint64(i>>6)]&(1<<(i&63)) != 0
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
func topoOrder(mem *arena, succ, pred csr) ([]int32, error) {
	n := len(succ.off) - 1
	pending, order := mem.i32.take(n), mem.i32.take(n)[:0]
	for v := range pending {
		pending[v] = succ.off[v+1] - succ.off[v]
		if pending[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, a := range pred.of(order[i]) {
			if pending[arcFar(a)]--; pending[arcFar(a)] == 0 {
				order = append(order, arcFar(a))
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
func simulation(g *flatGraph, forward bool) (*simRel, error) {
	succ, pred := g.out, g.in
	if !forward {
		succ, pred = g.in, g.out
	}
	mem := g.mem
	order, err := topoOrder(mem, succ, pred)
	if err != nil {
		return nil, err
	}

	// Rows that are the whole class (no successors to match, or nobody else
	// in the class) share the class's all-ones row, laid out first; the
	// others follow in one slab. A node's sig is the set of its (rel, far
	// label) pairs hashed into 64 bits: u <= v needs every pair of u among
	// v's, so sig(u) &^ sig(v) != 0 refutes the pair without walking an arc
	// (a collision only lets a pair through to the walk). sig is laid out
	// like classMem: one row's candidates are read in sequence.
	n := g.numNodes()
	sim := &simRel{row: mem.u64.take(n)}
	full := mem.u64.take(len(g.classOff) - 1)
	words := uint64(0)
	for l := range full {
		full[l] = words
		words += uint64(g.classOff[l+1]-g.classOff[l]+63) >> 6
	}
	sig := mem.u64.take(n)
	for v, l := range g.label {
		s := &sig[g.classOff[l]+g.pos[v]]
		for _, a := range succ.of(int32(v)) {
			*s |= 1 << ((a >> sumIDBits) * 0x9E3779B97F4A7C15 >> 58)
		}
		if c := g.classOff[l+1] - g.classOff[l]; *s != 0 && c > 1 {
			sim.row[v] = words
			words += uint64(c+63) >> 6
		} else {
			sim.row[v] = full[l]
		}
	}
	sim.words = mem.u64.take(int(words))
	for l, at := range full {
		for i := range g.class(int32(l)) {
			sim.words[at+uint64(i>>6)] |= 1 << (i & 63)
		}
	}

	// simulates reports u <= v given the finished rows of u's successors:
	// every arc (r, c) of u needs an arc (r, d) of v with c <= d. Both arc
	// lists are sorted by (rel, far label), so the candidates d for one arc
	// of u are a contiguous run of v's arcs and the runs advance in step.
	simulates := func(u, v int32) bool {
		vs := succ.of(v)
		j := 0
	arcs:
		for _, a := range succ.of(u) {
			key := a >> sumIDBits
			for j < len(vs) && vs[j]>>sumIDBits < key {
				j++
			}
			for k := j; k < len(vs) && vs[k]>>sumIDBits == key; k++ {
				if sim.has(g, arcFar(a), arcFar(vs[k])) {
					continue arcs
				}
			}
			return false
		}
		return true
	}

	for _, u := range order {
		l := g.label[u]
		if sim.row[u] == full[l] {
			continue
		}
		row, cl, sigs := sim.of(g, u), g.class(l), sig[g.classOff[l]:g.classOff[l+1]]
		su := sigs[g.pos[u]]
		for i, sv := range sigs {
			if su&^sv == 0 && (cl[i] == u || simulates(u, cl[i])) {
				setBit(row, i)
			}
		}
	}
	return sim, nil
}

// simEquivClasses partitions nodes into mutual-simulation equivalence
// classes and calls merge(u, v) for every other member v of the class whose
// smallest member is u, classes and members in ascending order.
func simEquivClasses(g *flatGraph, sim *simRel, merge func(u, v int32)) {
	assigned := g.mem.u64.take((g.numNodes() + 63) >> 6)
	for u := int32(0); int(u) < g.numNodes(); u++ {
		if bit(assigned, u) != 0 {
			continue
		}
		cl := g.class(g.label[u])
		eachPos(sim.of(g, u), nil, func(i int) bool {
			if v := cl[i]; v > u && bit(assigned, v) == 0 && sim.has(g, v, u) {
				setBit(assigned, v)
				merge(u, v)
			}
			return true
		})
	}
}
