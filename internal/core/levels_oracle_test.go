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
// built by one pass over the previous level's rows (each vertex's rows read
// once per query) and deduplicated through a stamp array, and the backward
// answer prune runs once over all answer levels instead of once per level.
//
// There is no temporal early stop here: the iteration runs until a level is
// empty, which on an acyclic graph happens within NumVertices levels.

// tstLevelsState carries one query's scratch across destinations. Its two
// vertex sets are stamps, as the class chain's are: a vertex is in the set
// stamped s when its mark is s, and each new set takes a fresh stamp, so
// none is ever cleared; per-level member lists are reused by capacity.
type tstLevelsState struct {
	e        *Engine
	rows     rowMemo
	srcSet   *bitmap.Bitset
	maxLevel int

	mark, xe     []uint32 // level dedup + prune target set; backward-prune kept-entity set
	stamp, xeSet uint32   // the newest stamp; the kept-entity set's

	entLv  [][]graph.VertexID // [e]_m per level (deduplicated, unordered)
	actLv  [][]graph.VertexID // [a]_m per level
	answer []bool             // level contains a source entity

	kept, gen, newL []graph.VertexID
}

func (e *Engine) newTstLevels(ad *adjacency, src []graph.VertexID) *tstLevelsState {
	n := e.P.NumVertices()
	st := &tstLevelsState{
		e:      e,
		rows:   newRowMemo(ad, n),
		srcSet: bitmap.NewBitset(n),
		// A level-m member ends an alternating path of 2m+1 vertices, so an
		// acyclic graph has no level past n; the cap only stops a cycle
		// (a NewStore over an unvalidated graph) from looping forever.
		maxLevel: n + 1,
		mark:     make([]uint32, n),
		xe:       make([]uint32, n),
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

// unionRows appends to dst the union of the members' rows of kind k,
// deduplicated through a fresh stamp, which it returns: the union stays
// marked with it for the caller to probe.
func (st *tstLevelsState) unionRows(k int, members, dst []graph.VertexID) ([]graph.VertexID, uint32) {
	st.stamp++
	set := st.stamp
	for _, m := range members {
		for _, nb := range st.rows.row(k, m) {
			if st.mark[nb] != set {
				st.mark[nb] = set
				dst = append(dst, nb)
			}
		}
	}
	return dst, set
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
		acts, _ := st.unionRows(rowGen, st.entLv[lvl], st.actLv[lvl+1][:0])
		st.actLv[lvl+1] = acts
		if len(acts) == 0 {
			break
		}
		ents, _ := st.unionRows(rowIn, acts, st.entLv[lvl+1][:0])
		st.entLv[lvl+1] = ents
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
	st.stamp++
	st.xeSet = st.stamp
	newL := st.newL[:0]
	for l := deepest; ; l-- {
		if st.answer[l] {
			for _, x := range st.entLv[l] {
				if st.xe[x] != st.xeSet {
					st.xe[x] = st.xeSet
					out.Add(uint32(x))
				}
			}
		}
		if l == 0 {
			break
		}
		// Kept activities: at least one input entity still in Xe.
		kept := st.kept[:0]
		for _, a := range st.actLv[l] {
			for _, in := range st.rows.row(rowIn, a) {
				if st.xe[in] == st.xeSet {
					kept = append(kept, a)
					out.Add(uint32(a))
					break
				}
			}
		}
		st.kept = kept
		// Parent entities: previous level ∩ entities generated by a kept
		// activity, the generated set marked with its own stamp.
		gen, genSet := st.unionRows(rowGenBy, kept, st.gen[:0])
		st.gen = gen
		newL = newL[:0]
		for _, x := range st.entLv[l-1] {
			if st.mark[x] == genSet {
				newL = append(newL, x)
				out.Add(uint32(x))
			}
		}
		// Xe for the next (shallower) iteration is exactly the kept parents.
		st.stamp++
		st.xeSet = st.stamp
		for _, x := range newL {
			st.xe[x] = st.xeSet
		}
	}
	st.newL = newL
}

// rowMemo reads each vertex's rows through an adjacency once: the oracles
// walk the same rows for every level and destination of a query.
type rowMemo struct {
	ad   *adjacency
	rows [3][][]graph.VertexID // indexed by row kind, then vertex
}

// The row kinds SimProvTst reads.
const (
	rowGen   = iota // an entity's generating activities
	rowIn           // an activity's input entities
	rowGenBy        // an activity's generated entities
)

func newRowMemo(ad *adjacency, n int) rowMemo {
	m := rowMemo{ad: ad}
	for k := range m.rows {
		m.rows[k] = make([][]graph.VertexID, n)
	}
	return m
}

// row returns v's row of kind k.
func (m *rowMemo) row(k int, v graph.VertexID) []graph.VertexID {
	r := m.rows[k][v]
	if r == nil {
		read := [...]func(graph.VertexID, []graph.VertexID) []graph.VertexID{
			m.ad.generatorsOf, m.ad.inputsOf, m.ad.generatedBy}[k]
		r = read(v, []graph.VertexID{})
		m.rows[k][v] = r
	}
	return r
}
