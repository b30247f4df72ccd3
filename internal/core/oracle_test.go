package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// The oracle: PgSum's simulation as it ran in production up to PR 16 — a
// pair-recheck fixpoint over dense n-bit rows — with the merge loop that
// drove it (one simulation per phase, eager reachGuard, map-deduplicated
// quotient arcs, map-counted edge support) and the string-signature color
// refinement of classify. The bodies are the old code, except that
// denseSimulation's check scans a node's children per relation and its
// worklist starts from one check of every pair (the greatest fixpoint is
// unique, so the relation is the same); the differential tests hold
// simulation / simEquivClasses / Summarize / classify to them bit for bit.

// denseSimulation computes sim[u] = the set of v with u <= v, over children
// (forward=true, i.e. <=sout) or parents (forward=false, i.e. <=sin),
// using a fixpoint refinement with a change worklist.
func denseSimulation(g *sumGraph, forward bool) []*bitmap.Bitset {
	n := g.numNodes()
	succ, pred := g.out, g.in
	if !forward {
		succ, pred = g.in, g.out
	}

	// Group nodes by label for initialization.
	byLabel := make(map[int][]int)
	for v := 0; v < n; v++ {
		byLabel[g.label[v]] = append(byLabel[g.label[v]], v)
	}
	sim := make([]*bitmap.Bitset, n)
	for v := 0; v < n; v++ {
		s := bitmap.NewBitset(n)
		for _, u := range byLabel[g.label[v]] {
			s.Add(uint32(u))
		}
		sim[v] = s
	}

	// Bucket each node's children per relation so check's inner existential
	// ("does some equally-labeled child of v land in sim(...)?") scans only
	// v's children over that relation. The predicate is unchanged, so the
	// fixpoint — which is unique — is too.
	maxRel := -1
	for v := 0; v < n; v++ {
		for _, arc := range succ[v] {
			if int(arc.rel) > maxRel {
				maxRel = int(arc.rel)
			}
		}
	}
	kids := make([][][]uint32, maxRel+1)
	for v := 0; v < n; v++ {
		for _, arc := range succ[v] {
			if kids[arc.rel] == nil {
				kids[arc.rel] = make([][]uint32, n)
			}
			kids[arc.rel][v] = append(kids[arc.rel][v], uint32(arc.to))
		}
	}

	// check reports whether v still simulates u.
	check := func(u, v int) bool {
		for _, arc := range succ[u] {
			ok := false
			for _, w := range kids[arc.rel][v] {
				if sim[arc.to].Contains(w) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	// recheck drops from sim(u) every v that no longer simulates u, and
	// queues u when sim(u) shrank: u's predecessors need rechecking then.
	inQueue := make([]bool, n)
	var queue []int
	var removals []uint32
	recheck := func(u int) {
		removals = removals[:0]
		sim[u].Iterate(func(x uint32) bool {
			v := int(x)
			if v != u && !check(u, v) {
				removals = append(removals, x)
			}
			return true
		})
		if len(removals) == 0 {
			return
		}
		for _, x := range removals {
			sim[u].Remove(x)
		}
		if !inQueue[u] {
			queue = append(queue, u)
			inQueue[u] = true
		}
	}
	// Fixpoint: one pass checks every pair, then, when sim(c) shrinks, only
	// pairs (u, v) with u a predecessor of c need rechecking.
	for u := 0; u < n; u++ {
		recheck(u)
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[c] = false
		for _, parc := range pred[c] {
			recheck(parc.to)
		}
	}
	return sim
}

// denseSimEquivClasses partitions nodes into mutual-simulation equivalence
// classes; singleton classes are omitted.
func denseSimEquivClasses(sim []*bitmap.Bitset) [][]int {
	n := len(sim)
	assigned := make([]bool, n)
	var classes [][]int
	for u := 0; u < n; u++ {
		if assigned[u] {
			continue
		}
		assigned[u] = true
		members := []int{u}
		sim[u].Iterate(func(x uint32) bool {
			v := int(x)
			if v > u && !assigned[v] && sim[v].Contains(uint32(u)) {
				assigned[v] = true
				members = append(members, v)
			}
			return true
		})
		if len(members) > 1 {
			classes = append(classes, members)
		}
	}
	return classes
}

// denseBuildSumGraph is the old quotient builder: arcs in edge order,
// deduplicated through a map.
func denseBuildSumGraph(labels, nodeOf []int, numNodes int, edges []origEdge) *sumGraph {
	g := &sumGraph{
		label: make([]int, numNodes),
		out:   make([][]halfArc, numNodes),
		in:    make([][]halfArc, numNodes),
	}
	for i, nd := range nodeOf {
		g.label[nd] = labels[i]
	}
	seen := make(map[int64]bool, len(edges))
	for _, e := range edges {
		f, t := nodeOf[e.from], nodeOf[e.to]
		key := int64(f)<<34 | int64(t)<<4 | int64(e.rel)
		if seen[key] {
			continue
		}
		seen[key] = true
		g.out[f] = append(g.out[f], halfArc{to: t, rel: uint8(e.rel)})
		g.in[t] = append(g.in[t], halfArc{to: f, rel: uint8(e.rel)})
	}
	return g
}

// denseMergePhase is the old mergePhase.
func denseMergePhase(g *sumGraph, cond mergeCondition) (remap []int, numNew int, changed bool) {
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
		sim := denseSimulation(g, cond == condOutEquiv)
		for _, class := range denseSimEquivClasses(sim) {
			for _, m := range class[1:] {
				parent[find(m)] = find(class[0])
				merged = true
			}
		}
	case condDominance:
		simIn := denseSimulation(g, false)
		simOut := denseSimulation(g, true)
		guard := newReachGuard(g)
		for u := 0; u < n; u++ {
			simIn[u].Iterate(func(x uint32) bool {
				v := int(x)
				if v == u || !simOut[u].Contains(x) {
					return true
				}
				if find(v) == find(u) {
					return true
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
		return nil, n, false
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
	return remap, len(dense), true
}

// denseSummarize is the old Summarize: the production g0 construction and
// assembly around the dense merge loop.
func denseSummarize(segs []*Segment, opts SumOptions) *Psg {
	g0 := newSumInput(segs, opts)
	nodeOf := make([]int, len(g0.occs))
	for i := range nodeOf {
		nodeOf[i] = i
	}
	cur := denseBuildSumGraph(g0.labels, nodeOf, len(nodeOf), g0.edges)
	rounds := 0
	for opts.MaxRounds == 0 || rounds < opts.MaxRounds {
		progressed := false
		for _, phase := range []mergeCondition{condInEquiv, condOutEquiv, condDominance} {
			remap, numNew, changed := denseMergePhase(cur, phase)
			if !changed {
				continue
			}
			progressed = true
			for i := range nodeOf {
				nodeOf[i] = remap[nodeOf[i]]
			}
			cur = denseBuildSumGraph(g0.labels, nodeOf, numNew, g0.edges)
		}
		rounds++
		if !progressed {
			break
		}
	}
	return denseAssemblePsg(cur, nodeOf, g0.labels, g0.occs, segs, g0.edges, g0.classNm, rounds)
}

// denseAssemblePsg is the old assemblePsg: segment support counted in a map
// of maps.
func denseAssemblePsg(g *sumGraph, nodeOf, labels []int, occs []occRef, segs []*Segment, edges []origEdge, classNm map[int]string, rounds int) *Psg {
	psg := &Psg{
		Nodes:         make([]PsgNode, g.numNodes()),
		InputVertices: len(occs),
		Segments:      len(segs),
		Rounds:        rounds,
	}
	for i, o := range occs {
		pn := &psg.Nodes[nodeOf[i]]
		if pn.Members == nil {
			pn.Class = labels[i]
			pn.Label = classNm[labels[i]]
		}
		pn.Members = append(pn.Members, [2]int{o.seg, int(o.v)})
	}
	type edgeKey struct {
		from, to int
		rel      prov.Rel
	}
	bySeg := make(map[edgeKey]map[int]bool)
	for _, e := range edges {
		k := edgeKey{from: nodeOf[e.from], to: nodeOf[e.to], rel: e.rel}
		if bySeg[k] == nil {
			bySeg[k] = make(map[int]bool)
		}
		bySeg[k][e.seg] = true
	}
	keys := make([]edgeKey, 0, len(bySeg))
	for k := range bySeg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		if keys[i].to != keys[j].to {
			return keys[i].to < keys[j].to
		}
		return keys[i].rel < keys[j].rel
	})
	for _, k := range keys {
		psg.Edges = append(psg.Edges, PsgEdge{
			From: k.from,
			To:   k.to,
			Rel:  k.rel,
			Freq: float64(len(bySeg[k])) / float64(len(segs)),
		})
	}
	return psg
}

// stringClassLabels is the old classify refinement (ExactIso aside): one
// fmt.Sprintf per edge, sort.Strings, strings.Join, colors in maps. It
// returns the class of every occurrence, segment by segment.
func stringClassLabels(segs []*Segment, opts SumOptions) []int {
	type adj struct {
		out, in map[graph.VertexID][]graph.EdgeID
	}
	index := make([]adj, len(segs))
	colors := make([]map[graph.VertexID]int, len(segs))
	ids := make(map[string]int)
	intern := func(sig string) int {
		if id, ok := ids[sig]; ok {
			return id
		}
		id := len(ids)
		ids[sig] = id
		return id
	}
	for i, s := range segs {
		index[i] = adj{out: map[graph.VertexID][]graph.EdgeID{}, in: map[graph.VertexID][]graph.EdgeID{}}
		g := s.P.PG()
		for _, e := range s.Edges() {
			index[i].out[g.Src(e)] = append(index[i].out[g.Src(e)], e)
			index[i].in[g.Dst(e)] = append(index[i].in[g.Dst(e)], e)
		}
		colors[i] = make(map[graph.VertexID]int, s.NumVertices())
		for _, v := range s.Vertices() {
			colors[i][v] = intern(baseColor(s.P, v, opts.K))
		}
	}
	for round := 0; round < opts.TypeRadius; round++ {
		next := make([]map[graph.VertexID]int, len(segs))
		ids = make(map[string]int)
		for i, s := range segs {
			next[i] = make(map[graph.VertexID]int, s.NumVertices())
			g := s.P.PG()
			for _, v := range s.Vertices() {
				parts := make([]string, 0, len(index[i].out[v])+len(index[i].in[v]))
				for _, e := range index[i].out[v] {
					parts = append(parts, fmt.Sprintf(">%d:%d", s.P.RelOf(e), colors[i][g.Dst(e)]))
				}
				for _, e := range index[i].in[v] {
					parts = append(parts, fmt.Sprintf("<%d:%d", s.P.RelOf(e), colors[i][g.Src(e)]))
				}
				sort.Strings(parts)
				next[i][v] = intern(fmt.Sprintf("%d;%s", colors[i][v], strings.Join(parts, ",")))
			}
		}
		colors = next
	}
	var labels []int
	for i, s := range segs {
		for _, v := range s.Vertices() {
			labels = append(labels, colors[i][v])
		}
	}
	return labels
}
