package core

import (
	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// The class chain: SimProvTst with one class per property-value path, the
// reference property-match queries are held to. Under a property-match
// constraint a path's word is no longer determined by its length alone, so
// each level fans out into one class per property-value signature; classes
// form chains via parent pointers, and a label-only query degenerates to a
// single chain. A class is never merged with another, so a level can hold
// one class per distinct path: fine on the tests' graphs, seconds to
// minutes past a few hundred Pd vertices. Production solves property-match
// queries with SimProvAlg (vc2Solver).

type tstClass struct {
	level  int
	ents   []graph.VertexID // [e]_level (deduplicated)
	acts   []graph.VertexID // [a]_level that produced ents (nil at level 0)
	parent *tstClass
}

// tstChainState carries the class-chain runner's per-query constants.
type tstChainState struct {
	e      *Engine
	ad     *adjacency
	srcSet map[graph.VertexID]bool
	rank   prov.Rank
	minSrc int32 // the lowest source rank
}

func (e *Engine) newTstChain(ad *adjacency, src []graph.VertexID) *tstChainState {
	rank, _ := e.P.OrderOfBeing() // the tests hand the oracle DAGs only
	st := &tstChainState{
		e:      e,
		ad:     ad,
		srcSet: make(map[graph.VertexID]bool, len(src)),
		rank:   rank,
		minSrc: rank.Of(src[0]),
	}
	for _, s := range src {
		st.srcSet[s] = true
		st.minSrc = min(st.minSrc, rank.Of(s))
	}
	return st
}

// run is the class-chain level iteration for one destination.
func (st *tstChainState) run(vj graph.VertexID, out *bitmap.Bitset) {
	e, ad, srcSet := st.e, st.ad, st.srcSet
	g := e.P.PG()
	matchAKey := e.opts.MatchActivityProp
	matchEKey := e.opts.MatchEntityProp
	// The temporal early stop compares the order of being, as SimProvAlg's.
	earlyStop := !e.opts.NoEarlyStop

	root := &tstClass{ents: []graph.VertexID{vj}}
	cur := []*tstClass{root}
	if srcSet[vj] {
		e.tstCollect(root, ad, out)
	}

	// A level-m member ends an alternating path of 2m+1 vertices, so the
	// iteration ends within NumVertices levels on an acyclic graph; the cap
	// is defensive against cycles.
	maxLevel := e.P.NumVertices() + 1
	var bufA, bufE []graph.VertexID
	for len(cur) > 0 && cur[0].level < maxLevel {
		var next []*tstClass
		for _, c := range cur {
			// [a]_{m+1}: generators of the class entities, grouped by the
			// activity property signature when the constraint is active.
			bufA = bufA[:0]
			for _, en := range c.ents {
				bufA = ad.generatorsOf(en, bufA)
			}
			actGroups := groupByProp(g, dedupVertices(bufA), matchAKey)
			for _, ag := range actGroups {
				// [e]_{m+1}: inputs of the group's activities, grouped by
				// the entity property signature.
				bufE = bufE[:0]
				for _, a := range ag.members {
					bufE = ad.inputsOf(a, bufE)
				}
				entGroups := groupByProp(g, dedupVertices(bufE), matchEKey)
				for _, eg := range entGroups {
					nc := &tstClass{
						level:  c.level + 1,
						ents:   eg.members,
						acts:   ag.members,
						parent: c,
					}
					// Answer level: the class contains a source entity.
					for _, en := range nc.ents {
						if srcSet[en] {
							e.tstCollect(nc, ad, out)
							break
						}
					}
					// Temporal early stop: a class whose members all rank
					// below every source can never produce an answer level
					// deeper in its own chain.
					if earlyStop && st.allOld(nc) {
						continue
					}
					next = append(next, nc)
				}
			}
		}
		cur = next
	}
}

func (st *tstChainState) allOld(c *tstClass) bool {
	for _, vs := range [][]graph.VertexID{c.ents, c.acts} {
		for _, v := range vs {
			if st.rank.Of(v) >= st.minSrc {
				return false
			}
		}
	}
	return true
}

type propGroup struct {
	key     string
	members []graph.VertexID
}

// groupByProp partitions vertices by the value of a property; an empty key
// yields a single group.
func groupByProp(g *graph.Graph, vs []graph.VertexID, key string) []propGroup {
	if key == "" {
		if len(vs) == 0 {
			return nil
		}
		return []propGroup{{members: vs}}
	}
	byVal := make(map[string][]graph.VertexID)
	var order []string
	for _, v := range vs {
		val := g.VertexProp(v, key).AsString()
		if _, ok := byVal[val]; !ok {
			order = append(order, val)
		}
		byVal[val] = append(byVal[val], v)
	}
	out := make([]propGroup, 0, len(order))
	for _, val := range order {
		out = append(out, propGroup{key: val, members: byVal[val]})
	}
	return out
}

// tstCollect performs the backward prune for an answer class at level m:
// every entity of the class is the endpoint of a valid length-m ancestry
// path from vj; walking down the chain keeps exactly the activities and
// entities that extend to level m.
func (e *Engine) tstCollect(c *tstClass, ad *adjacency, out *bitmap.Bitset) {
	// Xe starts as the full answer-level class.
	xe := make(map[graph.VertexID]bool, len(c.ents))
	for _, en := range c.ents {
		xe[en] = true
		out.Add(uint32(en))
	}
	var buf []graph.VertexID
	for walk := c; walk.level > 0; walk = walk.parent {
		// Keep activities with at least one kept input.
		var keptActs []graph.VertexID
		for _, a := range walk.acts {
			buf = ad.inputsOf(a, buf[:0])
			for _, en := range buf {
				if xe[en] {
					keptActs = append(keptActs, a)
					out.Add(uint32(a))
					break
				}
			}
		}
		// Keep parent entities generated by a kept activity.
		parentEnts := make(map[graph.VertexID]bool, len(walk.parent.ents))
		for _, en := range walk.parent.ents {
			parentEnts[en] = true
		}
		nxt := make(map[graph.VertexID]bool)
		for _, a := range keptActs {
			buf = ad.generatedBy(a, buf[:0])
			for _, en := range buf {
				if parentEnts[en] {
					nxt[en] = true
					out.Add(uint32(en))
				}
			}
		}
		xe = nxt
	}
}

// chainVC2 is VC2 by the class chain, one run per destination class
// (tstClasses): the chain's classes from level 1 on are built from gen(vj)
// alone, so the grouping argument holds for it as for the label-only
// runners, and it halves the oracle's cost on the usual sibling pair.
func (e *Engine) chainVC2(q Query) *bitmap.Bitset {
	ad := newAdjacency(e.P, q.Boundary)
	src := dedupVertices(q.Src)
	return e.runSimProvTst(e.newTstChain(ad, src), src, q.Dst, ad)
}

// chainSegment is Segment with VC2 from the class chain and every other
// stage run in turn on the caller.
func (e *Engine) chainSegment(q Query) (*Segment, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	ad := newAdjacency(e.P, q.Boundary)
	vc1, support := directPaths(e.ancestryClosure(q.Dst, ad, true), e.ancestryClosure(q.Src, ad, false))
	return e.induce(q, ad, vc1, e.chainVC2(q), support), nil
}
