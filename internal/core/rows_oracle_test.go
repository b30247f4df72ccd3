package core

import (
	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// The row oracle is PgSeg's induce step as it ran before the closures took
// their relations from the popped vertex's kind and before VC4 and the
// induced edges became one walk of the out-rows: each closure step reads
// all three ancestry rows (U, G and, unless disabled, D), VC4 reads the S
// and A out-rows of every segment vertex, and ES scans the edge columns for
// the edges with both ends in the segment. It assumes nothing of the PROV
// schema, so TestInduceMatchesRowOracle holds the production walks to it.

// RowOracleSegment is Segment by the row oracle, every stage serial on the
// caller (VC2 is the production solve, which the oracle does not replace).
func RowOracleSegment(e *Engine, q Query) (*Segment, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	ad := newAdjacency(e.P, q.Boundary)
	vc1, support := directPaths(e.rowOracleClosure(q.Dst, ad, true), e.rowOracleClosure(q.Src, ad, false))
	vc2, err := e.similarPathVertices(q, ad)
	if err != nil {
		return nil, err
	}
	return e.rowOracleInduce(q, ad, vc1, vc2, support), nil
}

// RowOracleClosure is AncestryClosure by the row oracle.
func RowOracleClosure(e *Engine, seeds []graph.VertexID, b Boundary, forward bool) *bitmap.Bitset {
	return e.rowOracleClosure(seeds, newAdjacency(e.P, b), forward)
}

// RowOracleAdjustExpand is AdjustExpand with the row oracle's ES walk.
func RowOracleAdjustExpand(e *Engine, s *Segment, ex Expansion) *Segment {
	ad := newAdjacency(e.P, Boundary{})
	vs := bitmap.NewBitset(e.P.NumVertices())
	for _, v := range s.Vertices() {
		vs.Add(uint32(v))
	}
	e.expand(ad, ex, func(v graph.VertexID) { vs.Add(uint32(v)) })
	out := &Segment{P: s.P, Src: s.Src, Dst: s.Dst, EdgeRuns: idRuns(rowOracleEdges(e.P, vs, ad))}
	ids := setToVertices(vs)
	out.VertexRuns = idRuns(ids)
	out.Rules = make([]Rule, len(ids))
	for i, v := range ids {
		out.Rules[i] = RuleC2
		if r, ok := s.RuleOf(v); ok {
			out.Rules[i] = r
		}
	}
	return out
}

// RowOracleNewSegmentEdges is NewSegment's ES by the row oracle.
func RowOracleNewSegmentEdges(p *prov.Graph, vertices []graph.VertexID) []Run[graph.EdgeID] {
	vs := bitmap.NewBitset(p.NumVertices())
	for _, v := range vertices {
		vs.Add(uint32(v))
	}
	return idRuns(rowOracleEdges(p, vs, newAdjacency(p, Boundary{})))
}

// RowOracleInducedEdges is InducedEdges by the row oracle: the agents at
// the far end of the admitted S and A out-rows of vs (when agents is set),
// then a scan of the edge columns over vs and those agents.
func RowOracleInducedEdges(p *prov.Graph, b Boundary, vs []graph.VertexID, agents bool) ([]Run[graph.EdgeID], []graph.VertexID) {
	ad := newAdjacency(p, b)
	set, added := bitmap.NewBitset(p.NumVertices()), bitmap.NewBitset(p.NumVertices())
	for _, v := range vs {
		set.Add(uint32(v))
	}
	if agents {
		for _, v := range setToVertices(set) {
			for _, rel := range []prov.Rel{prov.RelAssoc, prov.RelAttr} {
				for _, u := range ad.neighbors(v, rel, true, nil) {
					if !set.Contains(uint32(u)) {
						added.Add(uint32(u))
					}
				}
			}
		}
		set.UnionWith(added)
	}
	var out []graph.VertexID
	added.Iterate(func(x uint32) bool { out = append(out, graph.VertexID(x)); return true })
	return idRuns(rowOracleEdges(p, set, ad)), out
}

func (e *Engine) rowOracleClosure(seeds []graph.VertexID, ad *adjacency, forward bool) *bitmap.Bitset {
	rels := []prov.Rel{prov.RelUsed, prov.RelGen}
	if !e.opts.VC1ExcludeDerivations {
		rels = append(rels, prov.RelDeriv)
	}
	closure := bitmap.NewBitset(e.P.NumVertices())
	var queue []graph.VertexID
	for _, v := range seeds {
		if ad.vertexOK(v) && closure.Add(uint32(v)) {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range rels {
			for _, nxt := range ad.neighbors(v, r, forward, nil) {
				if closure.Add(uint32(nxt)) {
					queue = append(queue, nxt)
				}
			}
		}
	}
	return closure
}

func (e *Engine) rowOracleInduce(q Query, ad *adjacency, vc1, vc2, support *bitmap.Bitset) *Segment {
	seg := &Segment{
		P:   e.P,
		Src: append([]graph.VertexID(nil), q.Src...),
		Dst: append([]graph.VertexID(nil), q.Dst...),
	}
	vs, ruleOf := bitmap.NewBitset(e.P.NumVertices()), map[graph.VertexID]Rule{}
	addV := func(v graph.VertexID, r Rule) {
		if vs.Add(uint32(v)) {
			ruleOf[v] = r
		}
	}
	for _, v := range q.Src {
		addV(v, RuleQuery)
	}
	for _, v := range q.Dst {
		addV(v, RuleQuery)
	}
	vc1.Iterate(func(x uint32) bool { addV(graph.VertexID(x), RuleC1); return true })
	vc2.Iterate(func(x uint32) bool { addV(graph.VertexID(x), RuleC2); return true })
	coreSet := vc1.Clone()
	coreSet.UnionWith(vc2)
	coreSet.Iterate(func(x uint32) bool {
		if v := graph.VertexID(x); e.P.IsKind(v, prov.KindActivity) {
			for _, sib := range ad.neighbors(v, prov.RelGen, false, nil) {
				addV(sib, RuleC3)
			}
		}
		return true
	})
	for _, ex := range q.Boundary.Expansions {
		e.expand(ad, ex, func(v graph.VertexID) { addV(v, RuleC2) })
	}
	// VC4: the S and A out-rows of every segment vertex.
	for _, v := range setToVertices(vs) {
		for _, rel := range []prov.Rel{prov.RelAssoc, prov.RelAttr} {
			for _, u := range ad.neighbors(v, rel, true, nil) {
				addV(u, RuleC4)
			}
		}
	}
	support.UnionWith(vs)
	for _, ex := range q.Boundary.Expansions {
		for _, v := range ex.Within {
			support.Add(uint32(v))
		}
	}
	seg.support = support
	ids := setToVertices(vs)
	seg.VertexRuns = idRuns(ids)
	seg.Rules = make([]Rule, len(ids))
	for i, v := range ids {
		seg.Rules[i] = ruleOf[v]
	}
	seg.EdgeRuns = idRuns(rowOracleEdges(e.P, vs, ad))
	return seg
}

// rowOracleEdges is ES by a scan of the edge columns.
func rowOracleEdges(p *prov.Graph, vs *bitmap.Bitset, ad *adjacency) []graph.EdgeID {
	var out []graph.EdgeID
	g := p.PG()
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		if vs.Contains(uint32(g.Src(eid))) && vs.Contains(uint32(g.Dst(eid))) && ad.edgeOK(eid) {
			out = append(out, eid)
		}
	}
	return out
}

func setToVertices(vs *bitmap.Bitset) []graph.VertexID {
	out := make([]graph.VertexID, 0, vs.Cardinality())
	vs.Iterate(func(x uint32) bool {
		out = append(out, graph.VertexID(x))
		return true
	})
	return out
}

// idRuns is ascending ids as maximal runs, by a loop of the oracles' own.
func idRuns[ID ~uint32](ids []ID) []Run[ID] {
	var runs []Run[ID]
	for i, id := range ids {
		if i > 0 && ids[i-1]+1 == id {
			runs[len(runs)-1].Last = id
		} else {
			runs = append(runs, Run[ID]{id, id})
		}
	}
	return runs
}
