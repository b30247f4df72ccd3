package core

import (
	"repro/internal/bitmap"
	"repro/internal/graph"
)

// Level-synchronous SimProvTst, the deep-query oracle the sweep is held to.
// It served graphs whose ancestry edges do not descend in vertex id until
// the sweep learned to walk any order of being; it needs no order at all,
// which is what makes it an independent reference. Each level's
// equivalence class is one frontier list,
//
//	[a]_{m+1} = generators of [e]_m,   [e]_{m+1} = inputs of [a]_{m+1},
//
// built by one pass over the previous level's rows and deduplicated through
// a scratch bitset, and the backward answer prune runs once over all answer
// levels instead of once per level.
//
// There is no temporal early stop here: the iteration runs until a level is
// empty, which on an acyclic graph happens within NumVertices levels.

// tstLevelsState carries one query's scratch across destinations. The
// scratch bitset and the kept-entity set are left empty between uses so one
// allocation serves every destination; per-level member lists are reused by
// capacity.
type tstLevelsState struct {
	e        *Engine
	ad       *adjacency
	srcSet   *bitmap.Bitset
	maxLevel int

	scratch *bitmap.Bitset // level dedup + prune target set; empty between uses
	xe      *bitmap.Bitset // backward-prune kept-entity set; empty between uses

	entLv  [][]graph.VertexID // [e]_m per level (deduplicated, unordered)
	actLv  [][]graph.VertexID // [a]_m per level
	answer []bool             // level contains a source entity

	row, kept, gen, xeL, newL []graph.VertexID
}

func (e *Engine) newTstLevels(ad *adjacency, src []graph.VertexID) *tstLevelsState {
	n := e.P.NumVertices()
	st := &tstLevelsState{
		e:      e,
		ad:     ad,
		srcSet: bitmap.NewBitset(n),
		// A level-m member ends an alternating path of 2m+1 vertices, so an
		// acyclic graph has no level past n; the cap only stops a cycle
		// (a NewStore over an unvalidated graph) from looping forever.
		maxLevel: n + 1,
		scratch:  bitmap.NewBitset(n),
		xe:       bitmap.NewBitset(n),
	}
	for _, s := range src {
		st.srcSet.Add(uint32(s))
	}
	return st
}

func (st *tstLevelsState) ensureLevel(l int) {
	for len(st.entLv) <= l {
		st.entLv = append(st.entLv, nil)
		st.actLv = append(st.actLv, nil)
		st.answer = append(st.answer, false)
	}
}

// unionRows appends to dst the union of next(m) over the members,
// deduplicated through the scratch bitset. The union stays marked in the
// scratch for the caller to probe; unmark(dst) empties it again.
func (st *tstLevelsState) unionRows(next func(graph.VertexID, []graph.VertexID) []graph.VertexID, members, dst []graph.VertexID) []graph.VertexID {
	for _, m := range members {
		st.row = next(m, st.row[:0])
		for _, nb := range st.row {
			if st.scratch.Add(uint32(nb)) {
				dst = append(dst, nb)
			}
		}
	}
	return dst
}

func (st *tstLevelsState) unmark(vs []graph.VertexID) {
	for _, x := range vs {
		st.scratch.Remove(uint32(x))
	}
}

// run evaluates one destination: the forward level iteration, then one
// fused backward prune over all answer levels.
func (st *tstLevelsState) run(vj graph.VertexID, out *bitmap.Bitset) {
	st.ensureLevel(0)
	st.entLv[0] = append(st.entLv[0][:0], vj)
	st.actLv[0] = st.actLv[0][:0]
	st.answer[0] = st.srcSet.Contains(uint32(vj))
	deepest := -1
	if st.answer[0] {
		deepest = 0
	}
	for lvl := 0; lvl < st.maxLevel; {
		st.ensureLevel(lvl + 1)
		acts := st.unionRows(st.ad.generatorsOf, st.entLv[lvl], st.actLv[lvl+1][:0])
		st.actLv[lvl+1] = acts
		st.unmark(acts)
		if len(acts) == 0 {
			break
		}
		ents := st.unionRows(st.ad.inputsOf, acts, st.entLv[lvl+1][:0])
		st.entLv[lvl+1] = ents
		st.unmark(ents)
		if len(ents) == 0 {
			break
		}
		lvl++
		st.answer[lvl] = false
		for _, x := range ents {
			if st.srcSet.Contains(uint32(x)) {
				st.answer[lvl] = true
				deepest = lvl
				break
			}
		}
	}
	if deepest >= 0 {
		st.collect(deepest, out)
	}
}

// collect is the backward answer prune, fused over every answer level in
// one sweep from the deepest: the kept-entity set Xe absorbs each answer
// level's full class as the sweep reaches it. Fusing is exact because the
// per-level prune steps (kept activities = those with an input in Xe, kept
// parents = previous level ∩ generated-by-kept) distribute over unions of
// Xe — one walk with the merged set equals one prune walk per answer level.
func (st *tstLevelsState) collect(deepest int, out *bitmap.Bitset) {
	xeL, newL := st.xeL[:0], st.newL[:0]
	for l := deepest; ; l-- {
		if st.answer[l] {
			for _, x := range st.entLv[l] {
				if st.xe.Add(uint32(x)) {
					out.Add(uint32(x))
					xeL = append(xeL, x)
				}
			}
		}
		if l == 0 {
			break
		}
		// Kept activities: at least one input entity still in Xe.
		kept := st.kept[:0]
		for _, a := range st.actLv[l] {
			st.row = st.ad.inputsOf(a, st.row[:0])
			for _, in := range st.row {
				if st.xe.Contains(uint32(in)) {
					kept = append(kept, a)
					out.Add(uint32(a))
					break
				}
			}
		}
		st.kept = kept
		// Parent entities: previous level ∩ entities generated by a kept
		// activity, the generated set held in the scratch bitset.
		gen := st.unionRows(st.ad.generatedBy, kept, st.gen[:0])
		newL = newL[:0]
		for _, x := range st.entLv[l-1] {
			if st.scratch.Contains(uint32(x)) {
				newL = append(newL, x)
				out.Add(uint32(x))
			}
		}
		st.unmark(gen)
		st.gen = gen
		// Xe for the next (shallower) iteration is exactly the kept parents.
		for _, x := range xeL {
			st.xe.Remove(uint32(x))
		}
		for _, x := range newL {
			st.xe.Add(uint32(x))
		}
		xeL, newL = newL, xeL
	}
	for _, x := range xeL {
		st.xe.Remove(uint32(x))
	}
	st.xeL, st.newL = xeL, newL
}
