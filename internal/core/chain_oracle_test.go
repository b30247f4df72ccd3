package core

import (
	"slices"

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

	kept   []graph.VertexID // the backward prune's kept entities, duplicates allowed
	queued bool             // the prune has queued the class
}

// tstChainState carries the class-chain runner's per-query constants, and
// its vertex sets as stamps: a vertex is in the set stamped s when
// mark[v] == s, and every set takes a fresh stamp, so none is ever cleared.
type tstChainState struct {
	e      *Engine
	srcSet []bool
	rank   prov.Rank
	minSrc int32 // the lowest source rank
	mark   []uint32
	stamp  uint32
	rows   rowMemo
	val    []string // a vertex's value of the key valKey names
	valKey []string // "" until the vertex's value is read
}

func (e *Engine) newTstChain(ad *adjacency, src []graph.VertexID) *tstChainState {
	rank, _ := e.P.OrderOfBeing() // the tests hand the oracle DAGs only
	st := &tstChainState{
		e:      e,
		srcSet: make([]bool, e.P.NumVertices()),
		rank:   rank,
		minSrc: rank.Of(src[0]),
		mark:   make([]uint32, e.P.NumVertices()),
		rows:   newRowMemo(ad, e.P.NumVertices()),
		val:    make([]string, e.P.NumVertices()),
		valKey: make([]string, e.P.NumVertices()),
	}
	for _, s := range src {
		st.srcSet[s] = true
		st.minSrc = min(st.minSrc, rank.Of(s))
	}
	return st
}

// newSet returns a fresh, empty set's stamp.
func (st *tstChainState) newSet() uint32 {
	st.stamp++
	return st.stamp
}

// run is the class-chain level iteration for one destination.
func (st *tstChainState) run(vj graph.VertexID, out *bitmap.Bitset) {
	e, srcSet := st.e, st.srcSet
	matchAKey := e.opts.MatchActivityProp
	matchEKey := e.opts.MatchEntityProp
	// The temporal early stop compares the order of being, as SimProvAlg's.
	earlyStop := !e.opts.NoEarlyStop

	root := &tstClass{ents: []graph.VertexID{vj}}
	cur := []*tstClass{root}
	var answers []*tstClass
	if srcSet[vj] {
		answers = append(answers, root)
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
				bufA = append(bufA, st.rows.row(rowGen, en)...)
			}
			actGroups := st.group(dedupVertices(bufA), matchAKey)
			for _, ag := range actGroups {
				// [e]_{m+1}: inputs of the group's activities, grouped by
				// the entity property signature.
				bufE = bufE[:0]
				for _, a := range ag.members {
					bufE = append(bufE, st.rows.row(rowIn, a)...)
				}
				entGroups := st.group(dedupVertices(bufE), matchEKey)
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
							answers = append(answers, nc)
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
	st.collect(answers, out)
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

// group partitions vertices by the value of a property, groups in the
// order of their first members; an empty key yields a single group.
func (st *tstChainState) group(vs []graph.VertexID, key string) []propGroup {
	if key == "" {
		if len(vs) == 0 {
			return nil
		}
		return []propGroup{{members: vs}}
	}
	var out []propGroup
	for _, v := range vs {
		if st.valKey[v] != key {
			st.val[v], st.valKey[v] = st.e.P.PG().VertexProp(v, key).AsString(), key
		}
		i := slices.IndexFunc(out, func(g propGroup) bool { return g.key == st.val[v] })
		if i < 0 {
			i = len(out)
			out = append(out, propGroup{key: st.val[v]})
		}
		out[i].members = append(out[i].members, v)
	}
	return out
}

// collect performs the backward prune of the answer classes: every entity
// of an answer class at level m is the endpoint of a valid length-m ancestry
// path from vj, and walking down the chain keeps exactly the activities and
// entities that extend to level m. The walks are fused over the chain's
// tree, deepest level first, so a class is pruned once however many answer
// classes lie below it: its kept set is its own members if it is an answer
// class, plus the parents its children's prunes kept. Fusing is exact
// because each prune step (kept activities = those with an input kept, kept
// parents = the parent's members generated by a kept activity) distributes
// over unions of the kept set.
func (st *tstChainState) collect(answers []*tstClass, out *bitmap.Bitset) {
	var byLevel [][]*tstClass
	queue := func(c *tstClass) {
		if !c.queued {
			c.queued = true
			for len(byLevel) <= c.level {
				byLevel = append(byLevel, nil)
			}
			byLevel[c.level] = append(byLevel[c.level], c)
		}
	}
	for _, c := range answers {
		c.kept = append(c.kept, c.ents...)
		queue(c)
	}
	var keptActs []graph.VertexID
	for l := len(byLevel) - 1; l >= 0; l-- {
		for _, c := range byLevel[l] {
			xe := st.newSet()
			for _, en := range c.kept {
				st.mark[en] = xe
				out.Add(uint32(en))
			}
			if l == 0 {
				continue
			}
			// Keep activities with at least one kept input.
			keptActs = keptActs[:0]
			for _, a := range c.acts {
				for _, en := range st.rows.row(rowIn, a) {
					if st.mark[en] == xe {
						keptActs = append(keptActs, a)
						out.Add(uint32(a))
						break
					}
				}
			}
			// Keep parent entities generated by a kept activity.
			parentEnts := st.newSet()
			for _, en := range c.parent.ents {
				st.mark[en] = parentEnts
			}
			nxt := st.newSet()
			for _, a := range keptActs {
				for _, en := range st.rows.row(rowGenBy, a) {
					if st.mark[en] == parentEnts {
						st.mark[en] = nxt
						c.parent.kept = append(c.parent.kept, en)
					}
				}
			}
			if len(c.parent.kept) > 0 {
				queue(c.parent)
			}
		}
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
