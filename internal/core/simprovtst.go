package core

import (
	"cmp"
	"hash/maphash"
	"slices"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/graph"
)

// SimProvTst (paper Sec. III.B.2, "Transitive property"): evaluating each
// destination vertex vj separately makes Ee and Aa transitive, so each
// iteration level is a single equivalence class:
//
//	[e]_0     = {vj}
//	[a]_{m+1} = generators of [e]_m      (one step down in order-of-being)
//	[e]_{m+1} = inputs of [a]_{m+1}
//
// All pairs within [e]_m are Ee facts; a level whose class contains a
// source entity is an answer level, and VC2 receives every vertex on an
// ancestry path of exactly that length from vj (computed by a backward
// prune over the levels). Runtime is O(|G| + |U|) per destination.
//
// When a property-match constraint is active, path labels are no longer
// determined by length alone, so each level fans out into one class per
// property-value signature; classes form chains via parent pointers and the
// default case degenerates to a single chain.

type tstClass struct {
	sig    uint64
	level  int
	ents   []graph.VertexID // [e]_level (deduplicated)
	acts   []graph.VertexID // [a]_level that produced ents (nil at level 0)
	parent *tstClass
}

var tstSeed = maphash.MakeSeed()

func chainSig(parent uint64, part string) uint64 {
	var h maphash.Hash
	h.SetSeed(tstSeed)
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(parent >> (8 * i))
	}
	h.Write(b[:])
	h.WriteString(part)
	return h.Sum64()
}

// tstRunner evaluates SimProvTst for one destination at a time,
// accumulating VC2 vertices into out. The per-query constants (source set,
// early-stop bound) and any per-query scratch live in the runner, built once
// per query on each worker that runs a class: no two goroutines share one.
type tstRunner interface {
	run(vj graph.VertexID, out *bitmap.Bitset)
}

// newTstRunner picks the runner from what the query and the graph show, and
// nothing else:
//
//   - a property-match constraint needs the explicit class chains
//     (tstChainState), the only runner that can split a level by
//     property-value signature;
//   - a label-only query on an id-monotone graph takes the three-sweep
//     solver (simprovsweep.go), which visits every ancestry edge once but
//     needs ancestry edges to strictly descend in vertex id
//     (prov.Graph.AncestryMonotone, memoized per frozen snapshot);
//   - a label-only query on a graph ingested out of order takes the
//     level-synchronous solver (simprovlevels.go): one frontier per level,
//     no ordering requirement.
//
// All three read rows through adjacency, so the representation (frozen,
// live, filtered) and the graph's size play no part.
func (e *Engine) newTstRunner(ad *adjacency, src []graph.VertexID) tstRunner {
	switch {
	case e.opts.MatchActivityProp != "" || e.opts.MatchEntityProp != "":
		return e.newTstChain(ad, src)
	case e.P.AncestryMonotone():
		return e.newTstSweep(ad, src)
	default:
		return e.newTstLevels(ad, src)
	}
}

// tstDest is one destination of tstClasses; its generator row, sorted and
// deduplicated (the class key), is rows[lo:hi] of the scratch.
type tstDest struct {
	v      graph.VertexID
	src    bool // also a source: a class of its own
	lo, hi int
}

// tstClasses is a query's destinations grouped into classes, pooled like
// the sweep's scratch: class k is dests[ends[k-1]:ends[k]] (ends[-1] = 0),
// its representative the first member.
type tstClasses struct {
	dests []tstDest
	rows  []graph.VertexID
	src   []graph.VertexID // the sources, sorted
	ends  []int
}

var tstClassPool = sync.Pool{New: func() any { return new(tstClasses) }}

// tstClasses groups the destinations into classes (deduplicating them on the
// way); run(k, …) then solves class k. The classes are independent: Segment
// runs them as tasks of its fork-join, each on its worker's runner and set.
// The grammar's base rule G⁻¹ vj G reaches vj only through its generators, so
// two destinations with the same generator row under the boundary — outputs
// of one run, the usual query shape — give runs that differ in vj alone:
//
//   - every level from 1 on is the same: [a]_1 = gen(vj) and the rest is
//     built from it, so the depth, answer and target sets D, A and T agree on
//     every v ≠ vj, and so do the early stop and the backward prune above
//     level 0;
//   - no member of a class reaches another (vj → a → … → m → a would close
//     a cycle through their common generator a), so no member sits on a
//     deeper level of another's run;
//   - the level-0 answer concerns vj alone: vj is in its own VC2 exactly
//     when some level has an answer (the prune keeps an activity on every
//     level down to 1, hence vj), unless vj is itself a source, where level
//     0 is an answer by itself — such a destination keeps its own run.
//
// So the class runs once, on its smallest id; every other member joins VC2
// exactly when the representative's own run contains the representative.
// The paper's per-destination cost is what calling run on every vj (the
// tests' runTst) reproduces. The caller hands the scratch back with
// tstClassPool.Put once no run is left.
func (e *Engine) tstClasses(src, dst []graph.VertexID, ad *adjacency) *tstClasses {
	sc := tstClassPool.Get().(*tstClasses)
	srcs := append(sc.src[:0], src...)
	slices.Sort(srcs)
	ds, rows := sc.dests[:0], sc.rows[:0]
	for _, vj := range dst {
		if !ad.vertexOK(vj) {
			continue
		}
		lo := len(rows)
		rows = ad.generatorsOf(vj, rows)
		slices.Sort(rows[lo:])
		rows = rows[:lo+len(slices.Compact(rows[lo:]))]
		_, isSrc := slices.BinarySearch(srcs, vj)
		ds = append(ds, tstDest{v: vj, src: isSrc, lo: lo, hi: len(rows)})
	}
	key := func(d tstDest) []graph.VertexID { return rows[d.lo:d.hi] }
	// Sources first, then by key and id: a class is a run of equal keys, and a
	// repeated destination lands next to itself.
	slices.SortFunc(ds, func(a, b tstDest) int {
		if a.src != b.src {
			if a.src {
				return -1
			}
			return 1
		}
		return cmp.Or(slices.Compare(key(a), key(b)), cmp.Compare(a.v, b.v))
	})
	ds = slices.CompactFunc(ds, func(a, b tstDest) bool { return a.v == b.v })
	ends := sc.ends[:0]
	for i := 0; i < len(ds); {
		rep, j := ds[i], i+1
		for !rep.src && j < len(ds) && slices.Equal(key(ds[j]), key(rep)) {
			j++
		}
		ends = append(ends, j)
		i = j
	}
	sc.dests, sc.rows, sc.src, sc.ends = ds, rows, srcs, ends
	return sc
}

// len returns the number of classes.
func (sc *tstClasses) len() int { return len(sc.ends) }

// run solves class k with r, accumulating into out. Every step is an Add
// except the handshake around the representative's own run, so the union of
// the classes' results does not depend on their order or on which set each
// one ran on.
func (sc *tstClasses) run(k int, r tstRunner, out *bitmap.Bitset) {
	lo := 0
	if k > 0 {
		lo = sc.ends[k-1]
	}
	rep, members := sc.dests[lo].v, sc.dests[lo+1:sc.ends[k]]
	// Take rep out first, so that whether the run puts it back is the run's
	// own answer.
	had := out.Remove(uint32(rep))
	r.run(rep, out)
	if out.Contains(uint32(rep)) {
		for _, m := range members {
			out.Add(uint32(m.v))
		}
	}
	if had {
		out.Add(uint32(rep))
	}
}

// tstChainState carries the class-chain runner's per-query constants.
type tstChainState struct {
	e      *Engine
	ad     *adjacency
	srcSet map[graph.VertexID]bool
	minSrc int64
}

func (e *Engine) newTstChain(ad *adjacency, src []graph.VertexID) *tstChainState {
	st := &tstChainState{
		e:      e,
		ad:     ad,
		srcSet: make(map[graph.VertexID]bool, len(src)),
		minSrc: e.minSrcOrder(src),
	}
	for _, s := range src {
		st.srcSet[s] = true
	}
	return st
}

// run is the class-chain level iteration for one destination.
func (st *tstChainState) run(vj graph.VertexID, out *bitmap.Bitset) {
	e, ad, srcSet, minSrc := st.e, st.ad, st.srcSet, st.minSrc
	g := e.P.PG()
	matchAKey := e.opts.MatchActivityProp
	matchEKey := e.opts.MatchEntityProp
	earlyStop := !e.opts.NoEarlyStop

	root := &tstClass{ents: []graph.VertexID{vj}}
	cur := []*tstClass{root}
	if srcSet[vj] {
		e.tstCollect(root, ad, out)
	}

	// Levels strictly descend in maximum order-of-being, so the iteration
	// terminates within NumVertices levels on any temporally consistent
	// graph; the cap is defensive against inconsistent PropTime overrides.
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
						sig:    chainSig(chainSig(c.sig, ag.key), eg.key),
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
					// Temporal early stop: a class whose members are all
					// strictly older than every source can never produce an
					// answer level deeper in its own chain.
					if earlyStop && e.tstAllOld(nc, minSrc) {
						continue
					}
					next = append(next, nc)
				}
			}
		}
		cur = next
	}
}

func (e *Engine) tstAllOld(c *tstClass, minSrc int64) bool {
	for _, v := range c.ents {
		if e.P.Order(v) >= minSrc {
			return false
		}
	}
	for _, v := range c.acts {
		if e.P.Order(v) >= minSrc {
			return false
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
