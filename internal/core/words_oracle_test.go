package core

import (
	"sync"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// All-words SimProvTst sweep, the oracle the sweep's run lists are held to.
// It is the sweep as it was before depth and target sets became runs: pass 0
// computes only each reached vertex's window [lo(v), hi(v)], and every D and
// T is a word window over [lo(v), min(hi(v), maxM)] in one flat slab, built
// by a word-parallel depth sweep (decreasing rank) and target sweep
// (increasing rank) with the shift kernels of simprovsweep.go. Its cost grows
// with the window width, not with the number of runs, which makes it an
// independent reference on the adversaries that fragment run lists and the
// fast reference on inputs too deep for the level-synchronous runner.

// wordWin is pass 0's record of one vertex.
type wordWin struct {
	lo, hi int32 // shortest and longest depth from vj; hi < 0: unreached
	off    int   // word offset of the window in the slabs; < 0: dropped
}

// words returns the window's first word index and its length in words.
func (w wordWin) words(maxM int32) (lo, n int) {
	lo = int(w.lo) >> 6
	return lo, int(min(w.hi, maxM))>>6 - lo + 1
}

// wordsScratch is everything one destination's solve allocates.
type wordsScratch struct {
	win    []wordWin        // by vertex id: [0, vj] when the rank is the id, else all
	order  []graph.VertexID // reached vertices, decreasing rank
	rows   []graph.VertexID // their ancestry rows, back to back
	rowEnd []int            // order[i]'s row is rows[rowEnd[i]:rowEnd[i+1]]
	d, t   []uint64         // depth and target slabs, addressed by wordWin.off
	ans    []uint64         // answer levels A, words [0, maxM/64]
}

var wordsPool = sync.Pool{New: func() any { return new(wordsScratch) }}

// row returns the recorded ancestry row of order[i].
func (sc *wordsScratch) row(i int) []graph.VertexID {
	return sc.rows[sc.rowEnd[i]:sc.rowEnd[i+1]]
}

// tstWordsState carries the per-query constants across destinations.
type tstWordsState struct {
	e    *Engine
	ad   *adjacency
	src  []graph.VertexID
	rank prov.Rank
}

// words is the oracle on the graph's order of being.
func (e *Engine) words(ad *adjacency, src []graph.VertexID) *tstWordsState {
	rank, ok := e.P.OrderOfBeing()
	if !ok {
		panic("words: the ancestry edges form a cycle")
	}
	return &tstWordsState{e: e, ad: ad, src: src, rank: rank}
}

// run evaluates one destination and accumulates its VC2 vertices into out.
func (st *tstWordsState) run(vj graph.VertexID, out *bitmap.Bitset) {
	sc := wordsPool.Get().(*wordsScratch)
	defer wordsPool.Put(sc)
	if maxM := st.depths(sc, vj); maxM >= 0 {
		st.targets(sc, maxM, out)
	}
}

// depths runs pass 0 and the depth sweep for vj, leaving the windows, the
// recorded rows and D in sc. It returns maxM, negative when no source is
// reached (the slabs are then untouched).
func (st *tstWordsState) depths(sc *wordsScratch, vj graph.VertexID) int32 {
	p, ad, rk := st.e.P, st.ad, st.rank
	n := int(vj) + 1 // nothing newer than vj is reached
	if !rk.IsID() {
		n = p.NumVertices()
	}
	win := sized(sc.win, n)
	for i := range win {
		win[i].hi = -1
	}
	win[vj] = wordWin{}
	// Pass 0 (decreasing rank). Ancestry rows only hold strictly smaller
	// ranks, so a vertex's [lo, hi] is final when the countdown reaches it and
	// every update lands ahead of the scan.
	order, rows, rowEnd := sc.order[:0], sc.rows[:0], append(sc.rowEnd[:0], 0)
	for r := rk.Of(vj); r >= 0; r-- {
		v := rk.At(r)
		w := win[v]
		if w.hi < 0 {
			continue
		}
		start := len(rows)
		if p.IsKind(v, prov.KindEntity) {
			// [a]_{m+1} via generators: one activity-step deeper.
			rows = ad.generatorsOf(v, rows)
			w.lo, w.hi = w.lo+1, w.hi+1
		} else {
			// [e]_m via inputs (the activity carries the incremented depth).
			rows = ad.inputsOf(v, rows)
		}
		for _, u := range rows[start:] {
			if x := &win[u]; x.hi < 0 {
				x.lo, x.hi = w.lo, w.hi
			} else {
				x.lo, x.hi = min(x.lo, w.lo), max(x.hi, w.hi)
			}
		}
		order, rowEnd = append(order, v), append(rowEnd, len(rows))
	}
	sc.win, sc.order, sc.rows, sc.rowEnd = win, order, rows, rowEnd

	maxM := int32(-1)
	for _, s := range st.src {
		if int(s) < n {
			maxM = max(maxM, win[s].hi)
		}
	}
	if maxM < 0 {
		return maxM
	}
	total := 0
	for _, v := range order {
		w := &win[v]
		if w.off = -1; w.lo <= maxM {
			_, nw := w.words(maxM)
			w.off, total = total, total+nw
		}
	}
	sc.d, sc.t = sized(sc.d, total), sized(sc.t, total)
	d := sc.d
	clear(d)

	// Depth sweep, in the recorded order.
	d[win[vj].off] = 1
	for i, v := range order {
		w := win[v]
		if w.off < 0 {
			continue
		}
		lo, nw := w.words(maxM)
		dv := d[w.off : w.off+nw]
		if p.IsKind(v, prov.KindEntity) {
			for _, a := range sc.row(i) {
				if x := win[a]; x.off >= 0 {
					alo, an := x.words(maxM)
					orShl1Into(d[x.off:x.off+an], alo, dv, lo)
				}
			}
		} else {
			for _, in := range sc.row(i) {
				x := win[in] // lo(in) <= lo(v): never dropped, window covers v's
				at := x.off + lo - int(x.lo)>>6
				orInto(d[at:at+nw], dv)
			}
		}
	}

	// Answer levels: the depths at which a source is reached. Every such
	// bit is <= hi(src) <= maxM, so A needs no mask.
	sc.ans = sized(sc.ans, int(maxM)>>6+1)
	clear(sc.ans)
	for _, s := range st.src {
		if int(s) < n && win[s].hi >= 0 {
			lo, nw := win[s].words(maxM)
			orInto(sc.ans[lo:lo+nw], d[win[s].off:win[s].off+nw])
		}
	}
	return maxM
}

// targets is the upward sweep (increasing rank): evaluate T bottom-up on each
// vertex's window and test membership in place.
func (st *tstWordsState) targets(sc *wordsScratch, maxM int32, out *bitmap.Bitset) {
	p, win, d, t := st.e.P, sc.win, sc.d, sc.t
	for i := len(sc.order) - 1; i >= 0; i-- {
		v := sc.order[i]
		w := win[v]
		if w.off < 0 {
			continue
		}
		lo, nw := w.words(maxM)
		tv := t[w.off : w.off+nw]
		if p.IsKind(v, prov.KindEntity) {
			copy(tv, sc.ans[lo:lo+nw])
			for _, a := range sc.row(i) {
				if x := win[a]; x.off >= 0 {
					alo, an := x.words(maxM)
					orShr1Into(tv, lo, t[x.off:x.off+an], alo)
				}
			}
		} else {
			clear(tv)
			for _, in := range sc.row(i) {
				x := win[in]
				at := x.off + lo - int(x.lo)>>6
				orInto(tv, t[at:at+nw])
			}
		}
		if intersects(d[w.off:w.off+nw], tv) {
			out.Add(uint32(v))
		}
	}
}
