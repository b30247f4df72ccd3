package core

import (
	"slices"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Three-sweep SimProvTst for label-only queries, on every DAG.
//
// On a PROV graph with plain labels a path's word is determined by its
// activity-depth, so per destination vj the whole computation reduces to
// per-vertex DEPTH sets:
//
//	D(v) = { m : an alternating ancestry path of m activity-steps runs
//	            from vj to v }
//
// A level m is an answer level iff m is in D(src) for some source. A
// level-synchronous runner, which materializes every equivalence class [e]_m
// (the tests' deep-query oracle, levels_oracle_test.go), re-traverses each
// edge once per level its endpoint appears in; on deep diamond-shaped
// provenance that level multiplicity is large. This solver visits every
// ancestry edge exactly once per sweep. With A the answer-level set and C(v)
// the continuation (height) set — the lengths of the alternating ancestry
// paths that start at v — define
//
//	T(v) = { i : exists h in C(v) with i+h in A }
//
// — the depths at which arriving at v can still complete to an answer-level
// path. Membership becomes a single word-parallel intersection,
// v in VC2  <=>  D(v) AND T(v) != 0, and T satisfies local recurrences that
// one increasing-rank sweep evaluates (dependencies have smaller ranks):
//
//	Tr(a) = union_{e' in inputs(a)}    T(e')     (activities)
//	T(e)  = A | union_{a in gen(e)}    Tr(a)>>1  (entities)
//
// derived by distributing "completes to A" over the height recurrences
// H(e) = {0} | union H'(a), H'(a) = union (H(e')+1).
//
// The sweeps walk the snapshot's order of being (prov.Graph.OrderOfBeing):
// a rank under which every ancestry edge descends, which is the vertex id on
// an id-monotone graph (every provd store) and a topological order of the
// U/G edges anywhere else; a cycle has none, and Segment refuses it with
// ErrNotDAG before any runner is built. Pass 0 is scalar: one
// decreasing-rank walk from rank(vj) computes the shortest and longest depth
// [lo(v), hi(v)] of every reached vertex (two int32 each), records the
// reached order and each vertex's ancestry row once, and yields the exact
// answer ceiling maxM = max hi(src) — no source reached, no further work.
// The two word-parallel sweeps then run over each vertex's own window, the
// words holding [lo(v), min(hi(v), maxM)], laid out back to back in one flat
// slab (vertices with lo(v) > maxM are dropped). Two facts make that exact:
//
//   - window invariant: an ancestry edge v -> u of step s (1 from an entity
//     to its generator, 0 from an activity to its input) gives
//     lo(u) <= lo(v)+s and hi(u) >= hi(v)+s, so window(u) covers
//     window(v)+s clipped at maxM: every bit the depth sweep pushes lands
//     inside the receiver's window or above maxM, where it cannot matter.
//   - T on D's window only: membership is D(v) AND T(v), so T(v) is needed
//     on window(v) alone, and by the invariant the recurrences read T(u)
//     only on window(v)+s, inside window(u); T has no bit above maxM.
//
// Because the windows are exact there is no depth bound to guess, so
// Options.NoEarlyStop has nothing to switch off here. All scratch is pooled
// (tstSweepPool): a warm solve allocates nothing. Rows are read through
// adjacency, so the same code serves frozen snapshots, live graphs and
// filtered boundaries.

// orInto dst |= src (equal lengths).
func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// orShl1Into dst |= src<<1, where dst and src are windows of one bit vector
// starting at words dlo and slo; bits shifted outside dst are dropped.
func orShl1Into(dst []uint64, dlo int, src []uint64, slo int) {
	carry := uint64(0)
	for i := 0; i <= len(src); i++ {
		w := uint64(0)
		if i < len(src) {
			w = src[i]
		}
		if j := slo + i - dlo; j >= 0 && j < len(dst) {
			dst[j] |= w<<1 | carry
		}
		carry = w >> 63
	}
}

// orShr1Into dst |= src>>1 over the same windowing; src reads as zero
// outside its window (a continuation one step longer needs arrival one step
// shallower).
func orShr1Into(dst []uint64, dlo int, src []uint64, slo int) {
	for j := range dst {
		i := dlo + j - slo
		if i >= 0 && i < len(src) {
			dst[j] |= src[i] >> 1
		}
		if i+1 >= 0 && i+1 < len(src) {
			dst[j] |= src[i+1] << 63
		}
	}
}

func intersects(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// tstWin is pass 0's record of one vertex.
type tstWin struct {
	lo, hi int32 // shortest and longest depth from vj; hi < 0: unreached
	off    int   // word offset of the window in the slabs; < 0: dropped
}

// words returns the window's first word index and its length in words.
func (w tstWin) words(maxM int32) (lo, n int) {
	lo = int(w.lo) >> 6
	return lo, int(min(w.hi, maxM))>>6 - lo + 1
}

// tstSweepScratch is everything one destination's solve allocates.
type tstSweepScratch struct {
	win    []tstWin         // by vertex id: [0, vj] when the rank is the id, else all
	order  []graph.VertexID // reached vertices, decreasing rank
	rows   []graph.VertexID // their ancestry rows, back to back
	rowEnd []int            // order[i]'s row is rows[rowEnd[i]:rowEnd[i+1]]
	d, t   []uint64         // depth and target slabs, addressed by tstWin.off
	ans    []uint64         // answer levels A, words [0, maxM/64]
}

var tstSweepPool = sync.Pool{New: func() any { return new(tstSweepScratch) }}

// sized returns s with length n and unspecified contents, reallocating only
// when it has to grow.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// row returns the recorded ancestry row of order[i].
func (sc *tstSweepScratch) row(i int) []graph.VertexID {
	return sc.rows[sc.rowEnd[i]:sc.rowEnd[i+1]]
}

// tstSweepState carries the per-query constants across destinations.
type tstSweepState struct {
	e    *Engine
	ad   *adjacency
	src  []graph.VertexID
	rank prov.Rank
}

func (e *Engine) newTstSweep(ad *adjacency, src []graph.VertexID, rank prov.Rank) *tstSweepState {
	return &tstSweepState{e: e, ad: ad, src: src, rank: rank}
}

// run evaluates one destination and accumulates its VC2 vertices into out.
func (st *tstSweepState) run(vj graph.VertexID, out *bitmap.Bitset) {
	sc := tstSweepPool.Get().(*tstSweepScratch)
	defer tstSweepPool.Put(sc)
	if maxM := st.depths(sc, vj); maxM >= 0 {
		st.targets(sc, maxM, out)
	}
}

// depths runs pass 0 and the depth sweep for vj, leaving the windows, the
// recorded rows and D in sc. It returns maxM, negative when no source is
// reached (the slabs are then untouched).
func (st *tstSweepState) depths(sc *tstSweepScratch, vj graph.VertexID) int32 {
	p, ad, rk := st.e.P, st.ad, st.rank
	n := int(vj) + 1 // nothing newer than vj is reached
	if !rk.IsID() {
		n = p.NumVertices()
	}
	win := sized(sc.win, n)
	for i := range win {
		win[i].hi = -1
	}
	win[vj] = tstWin{}
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
func (st *tstSweepState) targets(sc *tstSweepScratch, maxM int32, out *bitmap.Bitset) {
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
