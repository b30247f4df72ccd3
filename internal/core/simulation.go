package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Simulation preorders on the working summary graph (paper Sec. IV.B):
// u <=sout v ("v out-simulates u") iff labels match and every labeled child
// of u is out-simulated by some equally-labeled-edge child of v; <=sin is
// the same over parents. Simulation approximates trace dominance: u <=sout
// v implies every out-path label of u is an out-path label of v, which is
// what Lemma 5's merge conditions need.

// ErrNotDAG reports a cycle where an operator needs a DAG: among PgSeg's
// ancestry edges, which then have no order of being, or in PgSum's summary
// graph, which the Psg definition requires to be acyclic. A validated
// provenance graph has neither; a graph that skipped validation may.
var ErrNotDAG = errors.New("core: input is not a DAG")

// pollPairs is how many pairs simulation tests between polls of the
// request: under half a millisecond of them even when every pair walks its
// arcs (some 50 ns a pair).
const pollPairs = 1 << 13

// sumBudget caps each PgSum allocation that grows with the square of the
// input (simulation slab, reach guard), checked before it is made: 256 MiB
// keeps sum_pd (a 0.1 MB slab) three orders of magnitude inside, and
// refuses eight seg_cold-shaped Pd-20000 segments at type_radius 0 (917 MiB).
const sumBudget = 256 << 20

// BudgetError refuses a PgSum call whose next quadratic allocation, of
// Bytes, would exceed sumBudget.
type BudgetError struct{ Bytes uint64 }

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: PgSum would allocate %d MiB at once (budget %d MiB)", e.Bytes>>20, sumBudget>>20)
}

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
// most once per graph — or not at all, when the merge that built it hands
// one on (see quotient). It is cut from mem, and so is what is computed on
// it; work is the call's request.
type flatGraph struct {
	mem   *arena
	work  *Work
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
	// order lists the nodes level by level toward orderFwd's successors
	// (topoOrder's contract), once a simulation sorted them or a merge
	// handed them on.
	order    []int32
	orderFwd bool
	// idle has bit c set when merge condition c is known to merge nothing
	// on this graph.
	idle uint8
}

// newFlatGraph buckets (tail, rel, head) edge keys over n nodes into out and
// in runs in one pass. The arcs carry no labels yet: setLabels finishes the
// graph.
func newFlatGraph(mem *arena, work *Work, n int, edges []uint64) *flatGraph {
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
	return &flatGraph{mem: mem, work: work, out: csr{outOff[:n+1], out}, in: csr{inOff[:n+1], in}}
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
// remap, the merges of one phase under cond, cut from mem. remap numbers the
// groups by their smallest member, so it is strictly increasing on the nodes
// that are the first of their group and labels never change: an arc run all
// of whose far ends are such nodes, owned by such a node, is still ascending
// and duplicate-free after the renaming. Only runs that take in a later
// member, as owner or as far end, are sorted again.
//
// An equivalence phase also hands on what it preserves. Let <= be g's
// d-simulation preorder (d = in or out), == its mutual part — the groups a
// condInEquiv or condOutEquiv phase merges — and q = g/==, with an arc
// [x] -r-> [y] wherever some x' == x has an arc x' -r-> y' with y' == y.
//
// Lemma: [u] <=q [v] iff u <= v.
//
//   - S = {([x],[y]) : x <= y} is well defined (x' == x <= y == y' gives
//     x' <= y') and a d-simulation on q: take ([x],[y]) in S and an arc
//     [x] -r-> [z], from x' -r-> z' with x' == x, z' == z. Then x' <= x <= y,
//     so y has an arc y -r-> w with z' <= w, which is [y] -r-> [w] in q with
//     ([z],[w]) in S. So u <= v gives [u] <=q [v].
//   - T = {(x,y) : [x] <=q [y]} is a d-simulation on g: take (x,y) in T and
//     an arc x -r-> z, so [x] -r-> [z] in q. As [x] <=q [y], q has an arc
//     [y] -r-> [w] with [z] <=q [w], from some y' -r-> w' with y' == y,
//     w' == w. y' == y gives y' <= y, so y has an arc y -r-> w2 with
//     w' <= w2, and by the first half [w] = [w'] <=q [w2]. By transitivity
//     [z] <=q [w2], so (z, w2) is in T. So [u] <=q [v] gives u <= v.
//
// Hence q, with no simulation solved:
//
//  1. inherits the d-preorder: row [u] is the row of u with each node v
//     renamed to [v] (simRel.quotient);
//  2. has no two d-equivalent nodes ([u] <=q [v] <=q [u] gives u == v, so
//     [u] = [v]): the phase that built it would merge nothing on it, and q
//     starts with that phase idle;
//  3. inherits g's order when that is a level order toward d: a path of
//     length k from u in g maps onto one from [u] in q and, by the lemma,
//     one from [u] in q lifts onto one from u (each next arc of the q path
//     leaves some member of the group, which the node reached so far
//     simulates), so [u]'s longest d-path in q is u's in g — members of one
//     group share it. Placing each group at its first member keeps the
//     levels nondecreasing, and an arc always leads to a lower level, so the
//     order is again a level order toward d (and, read backwards, a
//     topological order toward the other direction).
func (g *flatGraph) quotient(mem *arena, remap []int32, numNew int, cond mergeCondition) *flatGraph {
	q := &flatGraph{mem: mem, work: g.work, label: mem.i32.take(numNew)}
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
	if cond == condDominance {
		return q
	}
	fwd := cond == condOutEquiv
	d := dir(fwd)
	q.sims[d], q.idle = g.sims[d].quotient(g, q, remap), 1<<cond
	if g.order != nil && g.orderFwd == fwd {
		q.order, q.orderFwd = mem.i32.take(numNew)[:0], fwd
		for _, v := range g.order {
			if bit(later, v) == 0 {
				q.order = append(q.order, remap[v])
			}
		}
	}
	return q
}

func (g *flatGraph) numNodes() int { return len(g.out.off) - 1 }

// class lists the nodes of label l in ascending id order.
func (g *flatGraph) class(l int32) []int32 { return g.classMem[g.classOff[l]:g.classOff[l+1]] }

// dir indexes sims by direction.
func dir(forward bool) int {
	if forward {
		return 1
	}
	return 0
}

// sim returns the memoized simulation preorder of one direction.
func (g *flatGraph) sim(forward bool) (*simRel, error) {
	i := dir(forward)
	if g.sims[i] == nil {
		g.work.lap(stageMerge)
		rel, err := simulation(g, forward)
		g.work.lap(stageSim)
		if err != nil {
			return nil, err
		}
		g.sims[i] = rel
		g.work.Sims++
	}
	return g.sims[i], nil
}

// topo returns the nodes successors-first toward forward's successors: g's
// order, read backwards into mem when it is listed for the other direction,
// or a Kahn sort that becomes g's order when g has none.
func (g *flatGraph) topo(forward bool) ([]int32, error) {
	if g.order == nil {
		succ, pred := g.out, g.in
		if !forward {
			succ, pred = g.in, g.out
		}
		order, err := topoOrder(g.mem, succ, pred)
		if err != nil {
			return nil, err
		}
		g.order, g.orderFwd = order, forward
		g.work.Topos++
	}
	if g.orderFwd == forward {
		return g.order, nil
	}
	back := g.mem.i32.take(len(g.order))
	for i, v := range g.order {
		back[len(back)-1-i] = v
	}
	return back, nil
}

// simRel is a simulation preorder: bit i of row u is set iff u <= v for
// v = class(label[u])[i]. Row u starts at words[row[u]] and is as long as
// its class needs; nodes whose row is the whole class share one, laid out
// below words[shared].
type simRel struct {
	row    []uint64
	words  []uint64
	shared uint64
}

// layoutShared places each class's all-ones row, class after class from
// words[0], sets shared past them and returns where each starts.
func (s *simRel) layoutShared(g *flatGraph) (full []uint64) {
	full = g.mem.u64.take(len(g.classOff) - 1)
	for l := range full {
		full[l] = s.shared
		s.shared += uint64(g.classOff[l+1]-g.classOff[l]+63) >> 6
	}
	return full
}

// fillShared sets the all-ones rows once words is cut.
func (s *simRel) fillShared(g *flatGraph, full []uint64) {
	for l, at := range full {
		for i, c := 0, len(g.class(int32(l))); i < c; i += 64 {
			s.words[at+uint64(i>>6)] = ^uint64(0) >> (64 - min(64, c-i))
		}
	}
}

// quotient is s, a preorder on g, renamed onto q = g/==, where == is s's
// mutual part and remap is the merge (flatGraph.quotient proves this is q's
// own preorder): the row of a group is its first member's, with every node
// in it renamed to its group — rows are closed under ==, so later members
// only repeat what their first member sets. A shared row stays shared, and
// a row of a class the merge left whole is copied as it is. Class by class,
// the first members of g's class, in order, are q's class.
func (s *simRel) quotient(g, q *flatGraph, remap []int32) *simRel {
	r := &simRel{row: q.mem.u64.take(q.numNodes())}
	full := r.layoutShared(q)
	words := r.shared
	for l := range full {
		c := uint64(len(q.class(int32(l))))
		words += c * ((c + 63) >> 6)
	}
	r.words = q.mem.u64.take(int(words))[:r.shared]
	r.fillShared(q, full)
	for l, at := range full {
		gcl, qcl := g.class(int32(l)), q.class(int32(l))
		gw, qw := (len(gcl)+63)>>6, (len(qcl)+63)>>6
		j := 0
		for _, v := range gcl {
			if j == len(qcl) || remap[v] != qcl[j] {
				continue // a later member
			}
			w := qcl[j]
			j++
			if s.row[v] < s.shared {
				r.row[w] = at
				continue
			}
			r.row[w] = uint64(len(r.words))
			r.words = r.words[:len(r.words)+qw]
			row, src := r.words[r.row[w]:], s.words[s.row[v]:][:gw]
			if len(gcl) == len(qcl) {
				copy(row, src)
				continue
			}
			eachPos(src, nil, func(i int) bool {
				setBit(row, q.pos[remap[gcl[i]]])
				return true
			})
		}
	}
	return r
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
//
// The queue is FIFO, so the list is a level order, and quotient relies on
// that: a node's level — its longest succ path — never falls along the
// list. (By induction on the level L: every node of level L is ready once
// those below L are out, and a node above L waits for one of level L, so it
// is queued after every node of level L.)
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
// row exactly once. It stops with the context's error once the request is
// done, polled every pollPairs pair tests.
func simulation(g *flatGraph, forward bool) (*simRel, error) {
	succ := g.out
	if !forward {
		succ = g.in
	}
	mem := g.mem
	order, err := g.topo(forward)
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
	full := sim.layoutShared(g)
	words := sim.shared
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
	if 8*words > sumBudget {
		return nil, &BudgetError{8 * words}
	}
	sim.words = mem.u64.take(int(words))
	sim.fillShared(g, full)

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

	pairs := 0
	for _, u := range order {
		l := g.label[u]
		if sim.row[u] == full[l] {
			continue
		}
		row, cl, sigs := sim.of(g, u), g.class(l), sig[g.classOff[l]:g.classOff[l+1]]
		if pairs += len(sigs); pairs > pollPairs {
			if err := g.work.Err(); err != nil {
				return nil, err
			}
			pairs = 0
		}
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
