package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/prov"
)

// PgSum evaluation (paper Sec. IV.B): initialize the provenance summary
// graph Psg as g0, the class-labeled disjoint union of the input segments,
// then repeatedly merge vertices under the Lemma 5 conditions —
//
//	(1) u 'sin  v  (mutual in-simulation),
//	(2) u 'sout v  (mutual out-simulation),
//	(3) u <=sin v and u <=sout v (both-way dominance),
//
// each of which guarantees no path label is added; merging never removes
// paths, so the Psg invariant (identical path-label language) holds. A
// cycle guard keeps the result a DAG as the Psg definition requires.

// PsgNode is one summary vertex: an equivalence-class-labeled group of
// segment vertex occurrences.
type PsgNode struct {
	// Class is the equivalence class id under (K, Rk).
	Class int
	// Label is a human-readable class name (kind, aggregated properties,
	// and a provenance-type discriminator).
	Label string
	// Members lists the merged occurrences as (segment index, vertex id).
	Members [][2]int
}

// PsgEdge is a summary edge annotated with its appearance frequency across
// segments (paper's gamma).
type PsgEdge struct {
	From, To int
	Rel      prov.Rel
	Freq     float64
}

// Psg is the provenance summary graph.
type Psg struct {
	Nodes []PsgNode
	Edges []PsgEdge
	// InputVertices is the size of g0 (total vertex occurrences across the
	// input segments), the denominator of the compaction ratio.
	InputVertices int
	// Segments is |S|.
	Segments int
	// Rounds is the number of merge rounds performed.
	Rounds int
}

// CompactionRatio returns cr = |M| / |g0 vertices| (paper Sec. V); lower
// is better.
func (p *Psg) CompactionRatio() float64 {
	if p.InputVertices == 0 {
		return 1
	}
	return float64(len(p.Nodes)) / float64(p.InputVertices)
}

// origEdge is a segment edge lifted into occurrence space.
type origEdge struct {
	seg      int
	from, to int // occurrence indices
	rel      prov.Rel
}

// liftEdges maps the endpoints of occurrence-space edges to their current
// nodes.
func liftEdges(edges []origEdge, nodeOf []int) []origEdge {
	lifted := make([]origEdge, len(edges))
	for i, e := range edges {
		lifted[i] = origEdge{seg: e.seg, from: nodeOf[e.from], to: nodeOf[e.to], rel: e.rel}
	}
	return lifted
}

// sumInput is g0: the class-labeled disjoint union of the input segments,
// in occurrence space.
type sumInput struct {
	segs    []*Segment
	labels  []int // class per occurrence
	occs    []occRef
	edges   []origEdge
	classNm map[int]string
}

func newSumInput(segs []*Segment, opts SumOptions) *sumInput {
	cls := classify(segs, opts)
	nv, ne := 0, 0
	for _, s := range segs {
		nv += len(s.Vertices)
		ne += len(s.Edges)
	}
	in := &sumInput{
		segs:    segs,
		labels:  make([]int, 0, nv),
		occs:    make([]occRef, 0, nv),
		edges:   make([]origEdge, 0, ne),
		classNm: make(map[int]string),
	}
	for i, s := range segs {
		base := len(in.occs) // occurrence index of the segment's vertex 0
		for j, v := range s.Vertices {
			in.occs = append(in.occs, occRef{seg: i, v: v})
			cl := cls.colors[i][j]
			in.labels = append(in.labels, cl)
			if _, ok := in.classNm[cl]; !ok {
				in.classNm[cl] = cls.className(cl)
			}
		}
		for from, arcs := range cls.segs[i].out {
			for _, a := range arcs {
				in.edges = append(in.edges, origEdge{seg: i, from: base + from, to: base + a.to, rel: prov.Rel(a.rel)})
			}
		}
	}
	in.classNm = discriminate(in.classNm)
	return in
}

// Summarize evaluates PgSum(S, K, Rk) and returns the summary graph. It
// returns ErrNotDAG when the union of the segments has a cycle.
func Summarize(segs []*Segment, opts SumOptions) (*Psg, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("core: PgSum needs at least one segment")
	}
	g0 := newSumInput(segs, opts)

	// nodeOf maps each occurrence to its current Psg node (dense ids).
	nodeOf := make([]int, len(g0.occs))
	for i := range nodeOf {
		nodeOf[i] = i
	}
	cur := buildSumGraph(g0.labels, nodeOf, len(nodeOf), g0.edges)

	// Merge loop: one Lemma 5 condition per phase. Batching a single
	// condition is sound (see mergePhase); mixing conditions in one batch
	// can weave cycles through the quotient, so phases alternate with
	// graph rebuilds until a full cycle makes no progress. A phase that
	// merges nothing leaves cur — and the simulations memoized on it — in
	// place for the next phase.
	rounds := 0
	for opts.MaxRounds == 0 || rounds < opts.MaxRounds {
		progressed := false
		for _, phase := range []mergeCondition{condInEquiv, condOutEquiv, condDominance} {
			remap, numNew, err := mergePhase(cur, phase)
			if err != nil {
				return nil, err
			}
			if remap == nil {
				continue
			}
			progressed = true
			for i := range nodeOf {
				nodeOf[i] = remap[nodeOf[i]]
			}
			cur = buildSumGraph(g0.labels, nodeOf, numNew, g0.edges)
		}
		rounds++
		if !progressed {
			break
		}
	}

	return g0.assemble(cur.numNodes(), nodeOf, rounds), nil
}

// discriminate appends (t1), (t2), ... to class names that share a base
// name (same kind + aggregated properties, different provenance type).
func discriminate(names map[int]string) map[int]string {
	byBase := make(map[string][]int)
	for cl, base := range names {
		byBase[base] = append(byBase[base], cl)
	}
	out := make(map[int]string, len(names))
	for base, cls := range byBase {
		if len(cls) == 1 {
			out[cls[0]] = base
			continue
		}
		sort.Ints(cls)
		for i, cl := range cls {
			out[cl] = fmt.Sprintf("%s (t%d)", base, i+1)
		}
	}
	return out
}

// buildSumGraph materializes the quotient graph over numNodes nodes: node
// labels come from member occurrences, arcs from the segment edges mapped
// through nodeOf.
func buildSumGraph(labels, nodeOf []int, numNodes int, edges []origEdge) *sumGraph {
	label := make([]int, numNodes)
	for i, nd := range nodeOf {
		label[nd] = labels[i]
	}
	return newSumGraph(label, liftEdges(edges, nodeOf))
}

// mergeCondition selects which Lemma 5 condition a phase applies.
type mergeCondition int

const (
	// condInEquiv merges mutual in-simulation classes (condition 1). A
	// whole batch is sound: members share their in-path-label language, so
	// no merge adds labels, and a cycle among merged groups would force
	// the longest-in-path length to strictly increase around the cycle
	// while being constant within each group — impossible in a DAG.
	condInEquiv mergeCondition = iota
	// condOutEquiv is the dual (condition 2).
	condOutEquiv
	// condDominance merges u into a node that both in- and out-dominates
	// it (condition 3); sound per-pair, but cycles can appear across
	// independent merges, so this phase maintains quotient reachability
	// and skips cycle-forming merges.
	condDominance
)

// mergePhase applies one batch of merges under a single Lemma 5 condition,
// on the graph's (memoized) simulations. It returns a remap from old node
// ids to new dense node ids and the new node count; remap is nil when
// nothing merged.
func mergePhase(g *sumGraph, cond mergeCondition) (remap []int, numNew int, err error) {
	n := g.numNodes()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merged := false

	switch cond {
	case condInEquiv, condOutEquiv:
		sim, err := g.sim(cond == condOutEquiv)
		if err != nil {
			return nil, 0, err
		}
		for _, class := range simEquivClasses(g, sim) {
			for _, m := range class[1:] {
				parent[find(m)] = find(class[0])
				merged = true
			}
		}
	case condDominance:
		simIn, err := g.sim(false)
		if err != nil {
			return nil, 0, err
		}
		simOut, err := g.sim(true)
		if err != nil {
			return nil, 0, err
		}
		var guard *reachGuard // built on the first candidate pair
		for u := 0; u < n; u++ {
			cl := g.class[g.label[u]]
			eachPos(simIn[u], simOut[u], func(i int) bool {
				v := cl[i]
				if v == u || find(v) == find(u) {
					return true
				}
				if guard == nil {
					guard = newReachGuard(g)
				}
				if guard.wouldCycle(find(u), find(v)) {
					return true // try another dominator
				}
				guard.union(find(u), find(v))
				parent[find(u)] = find(v)
				merged = true
				return false
			})
		}
	}
	if !merged {
		return nil, n, nil
	}
	remap = make([]int, n)
	dense := make(map[int]int, n)
	for v := 0; v < n; v++ {
		r := find(v)
		id, ok := dense[r]
		if !ok {
			id = len(dense)
			dense[r] = id
		}
		remap[v] = id
	}
	return remap, len(dense), nil
}

// reachGuard tracks reachability in the evolving quotient graph so the
// dominance phase never merges two order-related groups. Groups are keyed
// by their union-find representative at call time.
type reachGuard struct {
	members []*bitmap.Bitset // group -> original nodes inside
	desc    []*bitmap.Bitset // group -> original nodes reachable from it
	anc     []*bitmap.Bitset // group -> original nodes that reach it
	owner   []int            // original node -> current group rep
}

func newReachGuard(g *sumGraph) *reachGuard {
	n := g.numNodes()
	rg := &reachGuard{
		members: make([]*bitmap.Bitset, n),
		desc:    make([]*bitmap.Bitset, n),
		anc:     make([]*bitmap.Bitset, n),
		owner:   make([]int, n),
	}
	for v := 0; v < n; v++ {
		rg.owner[v] = v
		rg.members[v] = bitmap.NewBitset(n)
		rg.members[v].Add(uint32(v))
	}
	// Sources first; g is a DAG (its simulations exist).
	topo, _ := topoOrder(g.in, g.out)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := bitmap.NewBitset(n)
		for _, arc := range g.out[v] {
			s.Add(uint32(arc.to))
			s.UnionWith(rg.desc[arc.to])
		}
		rg.desc[v] = s
	}
	for _, v := range topo {
		s := bitmap.NewBitset(n)
		for _, arc := range g.in[v] {
			s.Add(uint32(arc.to))
			s.UnionWith(rg.anc[arc.to])
		}
		rg.anc[v] = s
	}
	return rg
}

// wouldCycle reports whether merging groups a and b would create a cycle:
// some member of one group reaches a member of the other.
func (rg *reachGuard) wouldCycle(a, b int) bool {
	return rg.desc[a].Intersects(rg.members[b]) || rg.desc[b].Intersects(rg.members[a])
}

// union merges group a into group b and propagates the combined
// reachability to all ancestor and descendant groups (a merge makes
// everything above either group reach everything below both).
func (rg *reachGuard) union(a, b int) {
	rg.members[b].UnionWith(rg.members[a])
	rg.desc[b].UnionWith(rg.desc[a])
	rg.anc[b].UnionWith(rg.anc[a])
	rg.members[a] = rg.members[b]
	rg.desc[a] = rg.desc[b]
	rg.anc[a] = rg.anc[b]
	// Propagate: every node that reaches the merged group now reaches the
	// group and its combined descendants; every node reachable from it
	// gains the group and its combined ancestors.
	descPlus := rg.desc[b].Clone()
	descPlus.UnionWith(rg.members[b])
	ancPlus := rg.anc[b].Clone()
	ancPlus.UnionWith(rg.members[b])
	rg.anc[b].Iterate(func(x uint32) bool {
		rg.desc[rg.owner[x]].UnionWith(descPlus)
		return true
	})
	rg.desc[b].Iterate(func(x uint32) bool {
		rg.anc[rg.owner[x]].UnionWith(ancPlus)
		return true
	})
	rg.members[b].Iterate(func(x uint32) bool {
		rg.owner[x] = b
		return true
	})
}

// assemble builds the output structure from the final occurrence-to-node
// map.
func (in *sumInput) assemble(numNodes int, nodeOf []int, rounds int) *Psg {
	psg := &Psg{
		Nodes:         make([]PsgNode, numNodes),
		InputVertices: len(in.occs),
		Segments:      len(in.segs),
		Rounds:        rounds,
	}
	for i, o := range in.occs {
		pn := &psg.Nodes[nodeOf[i]]
		if pn.Members == nil {
			pn.Class = in.labels[i]
			pn.Label = in.classNm[in.labels[i]]
		}
		pn.Members = append(pn.Members, [2]int{o.seg, int(o.v)})
	}
	// Sort the lifted edges by (from, to, rel, seg): one summary edge per
	// (from, to, rel) run, supported by the run's distinct segments.
	lifted := liftEdges(in.edges, nodeOf)
	slices.SortFunc(lifted, func(a, b origEdge) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.rel, b.rel), cmp.Compare(a.seg, b.seg))
	})
	for i := 0; i < len(lifted); {
		e, support := lifted[i], 0
		for prev := -1; i < len(lifted) && lifted[i].from == e.from && lifted[i].to == e.to && lifted[i].rel == e.rel; i++ {
			if lifted[i].seg != prev {
				prev = lifted[i].seg
				support++
			}
		}
		psg.Edges = append(psg.Edges, PsgEdge{
			From: e.from,
			To:   e.to,
			Rel:  e.rel,
			Freq: float64(support) / float64(len(in.segs)),
		})
	}
	return psg
}
