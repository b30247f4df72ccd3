package cypher

import (
	"repro/internal/bitmap"
	"repro/internal/graph"
)

// Snapshot-aware pattern planner. On a frozen graph the evaluator knows,
// before enumerating a single path, the per-label CSR blocks and the edge
// count each block holds (EdgesWithLabel) — enough to bound where each
// pattern position can possibly bind. The planner runs bitmap frontier
// sweeps (row unions over NeighborRowSegs with word-parallel visited
// subtraction) from the pattern's anchored ends:
//
//   - a forward sweep from the first node's anchor ids computes, per node
//     position, an over-approximation of the vertices reachable there;
//   - a backward sweep from the last node's anchor ids computes the
//     vertices that can still reach an admissible final binding;
//   - their intersection is the allowed set per position, and the sweep
//     unions per variable-length hop bound the intermediate vertices.
//
// The prune sets are strictly over-approximations (edge distinctness and
// WHERE predicates are ignored), so filtering the naive DFS with them
// removes only bindings that cannot complete — the surviving rows, and
// their order, are bit-identical to the unplanned evaluation. The per-label
// edge counts pick which anchored end to sweep first (cheapest volume) and
// drop empty labels before any row is read.
//
// On a live (unfrozen) graph none of this runs and the evaluator is the
// naive DFS over mixed edge lists — the reference the differential tests
// hold the planner to (plan_test.go, difftest.DiffCypherPlanner).

// patternPlan carries the prune sets for one path pattern under one base
// row. A nil *patternPlan (live graph or pattern unanchored) prunes
// nothing.
type patternPlan struct {
	// allowed[i] over-approximates the vertices that may bind node i in a
	// complete match; nil = unconstrained.
	allowed []*bitmap.Bitset
	// pathSet[i] over-approximates every vertex (endpoint or variable-
	// length intermediate) on an admissible binding of rel i; nil =
	// unconstrained.
	pathSet []*bitmap.Bitset
	// empty marks a pattern proven unmatchable: skip enumeration.
	empty bool
}

func (p *patternPlan) allowedOK(i int, v graph.VertexID) bool {
	if p == nil || p.allowed[i] == nil {
		return true
	}
	return p.allowed[i].Contains(uint32(v))
}

func (p *patternPlan) pathOK(i int, v graph.VertexID) bool {
	if p == nil || p.pathSet[i] == nil {
		return true
	}
	return p.pathSet[i].Contains(uint32(v))
}

// planPattern builds the prune sets for pat under base/seeds, or nil when
// the planner cannot help (live graph, or no anchored end).
func (ev *Evaluator) planPattern(pat PathPattern, base row, seeds map[string][]graph.VertexID) *patternPlan {
	if !ev.g.Frozen() || len(pat.Rels) == 0 {
		return nil
	}
	firstIDs, firstAnchored := ev.anchorIDs(pat.Nodes[0], base, seeds)
	last := len(pat.Nodes) - 1
	lastIDs, lastAnchored := ev.anchorIDs(pat.Nodes[last], base, seeds)
	if !firstAnchored && !lastAnchored {
		return nil
	}
	nRels := len(pat.Rels)
	plan := &patternPlan{
		allowed: make([]*bitmap.Bitset, nRels+1),
		pathSet: make([]*bitmap.Bitset, nRels),
	}
	// An anchored end whose ids all fail the node's label constraint can
	// never bind: the pattern is unmatchable.
	if firstAnchored {
		firstIDs = ev.filterByLabel(firstIDs, pat.Nodes[0])
		if len(firstIDs) == 0 {
			plan.empty = true
			return plan
		}
	}
	if lastAnchored {
		lastIDs = ev.filterByLabel(lastIDs, pat.Nodes[last])
		if len(lastIDs) == 0 {
			plan.empty = true
			return plan
		}
	}

	// Sweep the cheaper anchored end first (freeze-time stats price one
	// frontier's expected row volume); if it already proves the pattern
	// empty, the other sweep never runs.
	sweeps := make([]func(), 0, 2)
	fwdSweep := func() { ev.sweep(pat, firstIDs, true, plan) }
	bwdSweep := func() { ev.sweep(pat, lastIDs, false, plan) }
	switch {
	case firstAnchored && lastAnchored:
		if ev.anchorCost(firstIDs, pat.Rels[0]) <= ev.anchorCost(lastIDs, pat.Rels[nRels-1]) {
			sweeps = append(sweeps, fwdSweep, bwdSweep)
		} else {
			sweeps = append(sweeps, bwdSweep, fwdSweep)
		}
	case firstAnchored:
		sweeps = append(sweeps, fwdSweep)
	default:
		sweeps = append(sweeps, bwdSweep)
	}
	for _, s := range sweeps {
		s()
		if plan.empty {
			return plan
		}
	}
	return plan
}

// sweep runs one frontier pass over the pattern — forward from the first
// node's ids or backward from the last node's — intersecting its results
// into plan.allowed / plan.pathSet and flagging emptiness.
func (ev *Evaluator) sweep(pat PathPattern, ids []graph.VertexID, forward bool, plan *patternPlan) {
	n := ev.g.NumVertices()
	maxLen := ev.opts.MaxPathLen
	if maxLen <= 0 {
		maxLen = ev.g.NumEdges()
	}
	cur := bitmap.NewBitset(n)
	for _, v := range ids {
		cur.Add(uint32(v))
	}
	nRels := len(pat.Rels)
	pos := 0
	if !forward {
		pos = nRels
	}
	intersectAllowed(plan, pos, cur)
	for k := 0; k < nRels && !plan.empty; k++ {
		ri := k
		if !forward {
			ri = nRels - 1 - k
		}
		rp := pat.Rels[ri]
		labels, useOut, useIn := ev.relStep(rp, forward)
		var pathVerts, next *bitmap.Bitset
		if rp.VarLen {
			maxHops := rp.MaxHops
			if maxHops == 0 || maxHops > maxLen {
				maxHops = maxLen
			}
			// The closure over-approximates both the admissible endpoints
			// (walks may revisit vertices, so no minimum-hop filtering) and
			// every intermediate vertex on a var-length walk.
			pathVerts = ev.hopClosure(cur, labels, useOut, useIn, maxHops)
			next = pathVerts
		} else {
			next = ev.frontierStep(cur, labels, useOut, useIn)
			pathVerts = cur.Clone()
			pathVerts.UnionWith(next)
		}
		intersectPath(plan, ri, pathVerts)
		npos := ri + 1
		if !forward {
			npos = ri
		}
		intersectAllowed(plan, npos, next)
		cur = next
	}
}

// intersectAllowed narrows plan.allowed[i] by s, flagging emptiness.
func intersectAllowed(plan *patternPlan, i int, s *bitmap.Bitset) {
	if plan.allowed[i] == nil {
		plan.allowed[i] = s.Clone()
	} else {
		plan.allowed[i].IntersectWith(s)
	}
	if plan.allowed[i].Cardinality() == 0 {
		plan.empty = true
	}
}

// intersectPath narrows plan.pathSet[i] by s. An empty path set just means
// rel i admits no binding, which allowed-set emptiness already captures.
func intersectPath(plan *patternPlan, i int, s *bitmap.Bitset) {
	if plan.pathSet[i] == nil {
		plan.pathSet[i] = s.Clone()
	} else {
		plan.pathSet[i].IntersectWith(s)
	}
}

// anchorIDs returns the exact id list a node pattern is pinned to — a
// vertex variable already bound in the row, or a mined id(x) constraint.
func (ev *Evaluator) anchorIDs(np NodePattern, base row, seeds map[string][]graph.VertexID) ([]graph.VertexID, bool) {
	if np.Var == "" {
		return nil, false
	}
	if bound, ok := base[np.Var]; ok {
		if bound.Kind != KindVertex {
			return nil, false
		}
		return []graph.VertexID{bound.V}, true
	}
	if ids, ok := seeds[np.Var]; ok {
		return ids, true
	}
	return nil, false
}

// filterByLabel keeps the ids that satisfy np's label constraint (and are
// in range — out-of-range ids can never bind).
func (ev *Evaluator) filterByLabel(ids []graph.VertexID, np NodePattern) []graph.VertexID {
	n := ev.g.NumVertices()
	var want graph.Label
	checkLabel := false
	if np.Label != "" {
		l, ok := ev.vertexLabel(np.Label)
		if !ok {
			return nil
		}
		want, checkLabel = l, true
	}
	out := make([]graph.VertexID, 0, len(ids))
	for _, v := range ids {
		if int(v) >= n {
			continue
		}
		if checkLabel && ev.g.VertexLabel(v) != want {
			continue
		}
		out = append(out, v)
	}
	return out
}

// anchorCost estimates one sweep step's row volume from an anchor: ids
// times the average degree (edges over vertices) summed over the rel's
// admissible labels.
func (ev *Evaluator) anchorCost(ids []graph.VertexID, rp RelPattern) float64 {
	avg := 0.0
	if n := ev.g.NumVertices(); n > 0 {
		labels, _, _ := ev.relStep(rp, true)
		for _, l := range labels {
			avg += float64(ev.g.EdgesWithLabel(l)) / float64(n)
		}
	}
	return float64(len(ids)) * (1 + avg)
}

// relStep resolves rp's admissible edge labels (dropping, via
// EdgesWithLabel, labels with no edges in the snapshot) and which CSR
// directions a forward (node i → i+1) or reverse (node i+1 → i) sweep
// follows.
func (ev *Evaluator) relStep(rp RelPattern, forward bool) (labels []graph.Label, useOut, useIn bool) {
	right := rp.Dir == DirRight || rp.Dir == DirBoth
	left := rp.Dir == DirLeft || rp.Dir == DirBoth
	if forward {
		useOut, useIn = right, left
	} else {
		useOut, useIn = left, right
	}
	add := func(l graph.Label) {
		if ev.g.EdgesWithLabel(l) == 0 {
			return
		}
		for _, have := range labels {
			if have == l {
				return
			}
		}
		labels = append(labels, l)
	}
	if len(rp.Types) == 0 {
		d := ev.g.Dict()
		for l := 0; l < d.Len(); l++ {
			add(graph.Label(l))
		}
		return labels, useOut, useIn
	}
	for _, tn := range rp.Types {
		if l, ok := ev.relLabel(tn); ok {
			add(l)
		}
	}
	return labels, useOut, useIn
}

// frontierStep computes the one-hop image of src through the labels.
func (ev *Evaluator) frontierStep(src *bitmap.Bitset, labels []graph.Label, useOut, useIn bool) *bitmap.Bitset {
	out := bitmap.NewBitset(ev.g.NumVertices())
	for _, l := range labels {
		src.Iterate(func(x uint32) bool {
			v := graph.VertexID(x)
			if useOut {
				b, xt, _ := ev.g.NeighborRowSegs(v, l, true)
				bitmap.OrInto(out, b)
				bitmap.OrInto(out, xt)
			}
			if useIn {
				b, xt, _ := ev.g.NeighborRowSegs(v, l, false)
				bitmap.OrInto(out, b)
				bitmap.OrInto(out, xt)
			}
			return true
		})
	}
	return out
}

// relMatches reports whether edge e's label satisfies rp's type constraint.
func (ev *Evaluator) relMatches(rp RelPattern, e graph.EdgeID) bool {
	if len(rp.Types) == 0 {
		return true
	}
	for _, tn := range rp.Types {
		if l, ok := ev.relLabel(tn); ok && ev.g.EdgeLabel(e) == l {
			return true
		}
	}
	return false
}

// iterRelEdges invokes fn for each edge incident on cur that matches rp in
// the given direction, in ascending edge-id order — the order the mixed
// adjacency list yields. A typed pattern on a frozen snapshot reads only the
// matching labels' CSR rows, merged by edge id, instead of label-filtering
// every incident edge; untyped patterns and live graphs scan the mixed
// list. Enumeration order is identical either way.
func (ev *Evaluator) iterRelEdges(cur graph.VertexID, rp RelPattern, out bool, fn func(graph.EdgeID, graph.VertexID) error) error {
	if ev.g.Frozen() && len(rp.Types) > 0 {
		type relRow struct {
			nbrs []graph.VertexID
			eids []graph.EdgeID
		}
		var (
			rows   []relRow
			labels []graph.Label
			usable = true
		)
	resolve:
		for _, tn := range rp.Types {
			l, ok := ev.relLabel(tn)
			if !ok {
				continue // unknown type name matches no edge
			}
			for _, have := range labels {
				if have == l {
					continue resolve
				}
			}
			labels = append(labels, l)
			nbrs, eids, ok := ev.g.FrozenNeighbors(cur, l, out)
			if !ok {
				usable = false
				break
			}
			if len(eids) > 0 {
				rows = append(rows, relRow{nbrs, eids})
			}
		}
		if usable {
			switch len(rows) {
			case 0:
				return nil
			case 1:
				for i, e := range rows[0].eids {
					if err := fn(e, rows[0].nbrs[i]); err != nil {
						return err
					}
				}
				return nil
			default:
				idx := make([]int, len(rows))
				for {
					best := -1
					for ri := range rows {
						if idx[ri] >= len(rows[ri].eids) {
							continue
						}
						if best < 0 || rows[ri].eids[idx[ri]] < rows[best].eids[idx[best]] {
							best = ri
						}
					}
					if best < 0 {
						return nil
					}
					i := idx[best]
					idx[best]++
					if err := fn(rows[best].eids[i], rows[best].nbrs[i]); err != nil {
						return err
					}
				}
			}
		}
	}
	edges := ev.g.Out(cur)
	if !out {
		edges = ev.g.In(cur)
	}
	for _, e := range edges {
		if !ev.relMatches(rp, e) {
			continue
		}
		nxt := ev.g.Dst(e)
		if !out {
			nxt = ev.g.Src(e)
		}
		if err := fn(e, nxt); err != nil {
			return err
		}
	}
	return nil
}

// hopClosure computes every vertex within maxHops label-steps of src
// (src included), frontier-at-a-time with visited subtraction.
func (ev *Evaluator) hopClosure(src *bitmap.Bitset, labels []graph.Label, useOut, useIn bool, maxHops int) *bitmap.Bitset {
	all := src.Clone()
	cur := src
	for h := 0; h < maxHops && cur.Cardinality() > 0; h++ {
		next := ev.frontierStep(cur, labels, useOut, useIn)
		next.AndNotWith(all)
		if next.Cardinality() == 0 {
			break
		}
		all.UnionWith(next)
		cur = next
	}
	return all
}
