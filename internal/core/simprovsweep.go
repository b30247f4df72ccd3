package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// The SimProvTst sweep for label-only queries, on every DAG.
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
// ancestry edge once per pass. With A the answer-level set and C(v) the
// continuation (height) set — the lengths of the alternating ancestry paths
// that start at v — define
//
//	T(v) = { i : exists h in C(v) with i+h in A }
//
// — the depths at which arriving at v can still complete to an answer-level
// path. Then v in VC2  <=>  D(v) and T(v) meet, and T satisfies local
// recurrences that one increasing-rank pass evaluates (dependencies have
// smaller ranks):
//
//	Tr(a) = union_{e' in inputs(a)}    T(e')     (activities)
//	T(e)  = A | union_{a in gen(e)}    Tr(a)-1   (entities)
//
// derived by distributing "completes to A" over the height recurrences
// H(e) = {0} | union H'(a), H'(a) = union (H(e')+1).
//
// The passes walk the snapshot's order of being (prov.Graph.OrderOfBeing): a
// rank under which every ancestry edge descends, which is the vertex id on an
// id-monotone graph (every provd store) and a topological order of the U/G
// edges anywhere else; a cycle has none, and Segment refuses it with
// ErrNotDAG before any runner is built. Pass 0 walks down the rank from
// rank(vj) and computes every reached vertex's D exactly: ancestry rows only
// hold smaller ranks, so D(v) is final when the countdown reaches v, which
// then pushes D(v)+1 to each generator (an entity) or D(v) to each input (an
// activity). It records the reached order and each row once and yields the
// exact answer ceiling maxM = max hi(src), hi(v) = max D(v) — no source
// reached, no further work. The T pass then walks the recorded order back up,
// builds each T(v) from its row members' and tests membership in place.
//
// Depth sets are intervals. A set is a sorted list of disjoint, non-adjacent
// runs [lo, hi] of depths; on provenance it is almost always one run. Over the
// 64 seg_cold pool queries at Pd-20000 a reached vertex's D averages
// 1.00-1.10 runs per query (at most 5) and T one (at most 2), where a word
// window over D's hull averages 4-30 words (at most 54); at Pd-100000 D
// averages 1.02 runs against 67-140 words. A set that would exceed maxRuns
// runs, or that receives from a promoted set, is promoted to a word window
// over its hull [lo(v), min(hi(v), maxM)] (words lo>>6 .. hi>>6, vertices
// with lo(v) > maxM dropped): one more decreasing-rank pass fills the
// promoted D windows, and the T pass builds promoted T windows; a run source
// enters a window through fillRange, a promoted one through the shift
// kernels below. Without promotion a diamond chain, whose diamonds each join
// two branches 2 activity-steps apart, gives depth sets of one parity with
// k+1 runs: at k = 500 run lists cost 38 ms where words cost 0.5 ms, and
// with promotion the sweep costs 1.1 ms there and about what words cost at
// k = 2000.
// Mixing the two encodings is exact because runs encode a set exactly and
// every window is the one the word sweep used, which two facts bound:
//
//   - window invariant: an ancestry edge v -> u of step s (1 from an entity
//     to its generator, 0 from an activity to its input) gives
//     lo(u) <= lo(v)+s and hi(u) >= hi(v)+s, so window(u) covers
//     window(v)+s clipped at maxM: every depth pushed lands inside the
//     receiver's window or above maxM, where it cannot matter.
//   - T on D's window only: membership is D(v) meets T(v), so T(v) is needed
//     on window(v) alone (run lists are clipped to it), and by the invariant
//     the recurrences read T(u) only on window(v)+s, inside window(u); T has
//     no depth above maxM.
//
// Because the windows are exact there is no depth bound to guess, so
// Options.NoEarlyStop has nothing to switch off here. All scratch is pooled
// (tstSweepPool): a warm solve allocates nothing. Rows are read through
// adjacency, so the same code serves frozen snapshots, live graphs and
// filtered boundaries. The all-words sweep this replaced is the tests'
// oracle for every set (words_oracle_test.go).

// maxRuns is the most runs a set holds before it is promoted to a word
// window (Pd's measured maximum is 5).
const maxRuns = 8

// promoted is tstWin.dn or tstWin.tn for a set held as a word window.
const promoted = -1

// span is one run [lo, hi] of depths.
type span struct{ lo, hi int32 }

// tstWin is what the passes record of one vertex.
type tstWin struct {
	lo, hi int32 // D's hull: shortest and longest depth from vj; hi < 0: unreached
	// D(v): with dn = 1 the hull itself, with dn in [2, maxRuns] the runs
	// dRuns[d : d+dn], promoted the word window dw[d:] (hull only in pass 0).
	// T(v): tRuns[t : t+tn], or promoted the word window tw[t:].
	d, t   int32
	dn, tn int16
}

// words returns the window's first word index and its length in words.
func (w *tstWin) words(maxM int32) (lo, n int) {
	lo = int(w.lo) >> 6
	return lo, int(min(w.hi, maxM))>>6 - lo + 1
}

// tstSweepScratch is everything one destination's solve allocates.
type tstSweepScratch struct {
	win    []tstWin         // by vertex id: [0, vj] when the rank is the id, else all
	order  []graph.VertexID // reached vertices, decreasing rank
	rows   []graph.VertexID // their ancestry rows, back to back
	rowEnd []int            // order[i]'s row is rows[rowEnd[i]:rowEnd[i+1]]
	dRuns  []span           // multi-run depth sets, maxRuns slots each
	tRuns  []span           // target sets, back to back
	ansRun []span           // answer levels A
	acc    []span           // the runs of a union being built
	dw, tw []uint64         // promoted depth and target windows
	ans    []uint64         // A, words [0, maxM/64]

	promoted int // sets promoted in the last solve
}

var tstSweepPool = sync.Pool{New: func() any { return new(tstSweepScratch) }}

// sized returns s with length n and unspecified contents, reallocating only
// when it has to grow.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// row returns the recorded ancestry row of order[i].
func (sc *tstSweepScratch) row(i int) []graph.VertexID {
	return sc.rows[sc.rowEnd[i]:sc.rowEnd[i+1]]
}

// dOf returns a run-held D(v); one backs the single-run case.
func (sc *tstSweepScratch) dOf(w *tstWin, one *[1]span) []span {
	if w.dn == 1 {
		one[0] = span{w.lo, w.hi}
		return one[:]
	}
	return sc.dRuns[w.d : w.d+int32(w.dn)]
}

// tOf returns a run-held T(v).
func (sc *tstSweepScratch) tOf(w *tstWin) []span {
	return sc.tRuns[w.t : w.t+int32(w.tn)]
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

// depths runs pass 0 for vj, and the fill pass when a depth set was
// promoted, leaving D, the recorded rows and A in sc. It returns maxM,
// negative when no source is reached (no window is then allocated) or the
// request is done.
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
	win[vj] = tstWin{dn: 1}
	sc.win, sc.dRuns, sc.promoted = win, sc.dRuns[:0], 0
	order, rows, rowEnd := sc.order[:0], sc.rows[:0], append(sc.rowEnd[:0], 0)
	for r := rk.Of(vj); r >= 0; r-- {
		v := rk.At(r)
		w := win[v]
		if w.hi < 0 {
			continue
		}
		if len(order)&pollMask == pollMask && stopped(ad.done) {
			return -1
		}
		start, s := len(rows), int32(0)
		if p.IsKind(v, prov.KindEntity) {
			// [a]_{m+1} via generators: one activity-step deeper.
			rows, s = ad.generatorsOf(v, rows), 1
		} else {
			// [e]_m via inputs (the activity carries the incremented depth).
			rows = ad.inputsOf(v, rows)
		}
		for _, u := range rows[start:] {
			x := &win[u]
			switch lo, hi := w.lo+s, w.hi+s; {
			case x.hi < 0:
				*x = tstWin{lo: lo, hi: hi, dn: w.dn}
				if w.dn == promoted {
					sc.promoted++
				} else if w.dn > 1 {
					x.d = sc.newChunk()
					for k, r := range sc.dRuns[w.d : w.d+int32(w.dn)] {
						sc.dRuns[x.d+int32(k)] = span{r.lo + s, r.hi + s}
					}
				}
			case x.dn == 1 && w.dn == 1 && lo <= x.hi+1 && x.lo <= hi+1:
				x.lo, x.hi = min(x.lo, lo), max(x.hi, hi)
			case x.dn == promoted || w.dn == promoted:
				if x.dn != promoted {
					x.dn, sc.promoted = promoted, sc.promoted+1
				}
				x.lo, x.hi = min(x.lo, lo), max(x.hi, hi)
			default:
				sc.mergeDepths(x, &w, s)
			}
		}
		order, rowEnd = append(order, v), append(rowEnd, len(rows))
	}
	sc.order, sc.rows, sc.rowEnd = order, rows, rowEnd

	maxM := int32(-1)
	for _, s := range st.src {
		if int(s) < n {
			maxM = max(maxM, win[s].hi)
		}
	}
	if maxM < 0 {
		return maxM
	}
	if sc.promoted > 0 {
		sc.fillDepths(st.e.P, maxM)
	}

	// Answer levels: the depths at which a source is reached, as words for
	// promoted target windows and as runs. Every such depth is
	// <= hi(src) <= maxM, so A needs no mask.
	sc.ans = sized(sc.ans, int(maxM)>>6+1)
	clear(sc.ans)
	for _, s := range st.src {
		if int(s) >= n || win[s].hi < 0 {
			continue
		}
		if w := &win[s]; w.dn == promoted {
			lo, nw := w.words(maxM)
			orInto(sc.ans[lo:lo+nw], sc.dw[w.d:int(w.d)+nw])
		} else {
			var one [1]span
			for _, r := range sc.dOf(w, &one) {
				fillRange(sc.ans, 0, r.lo, r.hi)
			}
		}
	}
	sc.ansRun = appendRuns(sc.ansRun[:0], sc.ans)
	return maxM
}

// newChunk returns the offset of maxRuns fresh slots in dRuns.
func (sc *tstSweepScratch) newChunk() int32 {
	d := int32(len(sc.dRuns))
	sc.dRuns = append(sc.dRuns, make([]span, maxRuns)...)
	return d
}

// mergeDepths is D(u) |= D(v)+s for run-held D(u) (at x) and D(v) (at w)
// whose union is not one run by the hull alone, promoting D(u) past maxRuns.
func (sc *tstSweepScratch) mergeDepths(x, w *tstWin, s int32) {
	var oneX, oneW [1]span
	u := append(sc.acc[:0], sc.dOf(x, &oneX)...)
	for _, r := range sc.dOf(w, &oneW) {
		u = append(u, span{r.lo + s, r.hi + s})
	}
	sc.acc = u
	if u = coalesce(u); len(u) > maxRuns {
		x.dn, sc.promoted = promoted, sc.promoted+1
		x.lo, x.hi = min(x.lo, w.lo+s), max(x.hi, w.hi+s)
		return
	}
	if len(u) > 1 {
		if x.dn == 1 {
			x.d = sc.newChunk()
		}
		copy(sc.dRuns[x.d:], u)
	}
	x.lo, x.hi, x.dn = u[0].lo, u[len(u)-1].hi, int16(len(u))
}

// fillDepths is the fill pass (decreasing rank): it lays out the promoted,
// undropped depth windows and pushes every depth set into them.
func (sc *tstSweepScratch) fillDepths(p *prov.Graph, maxM int32) {
	win, total := sc.win, 0
	for _, v := range sc.order {
		if w := &win[v]; w.dn == promoted && w.lo <= maxM {
			_, nw := w.words(maxM)
			w.d, total = int32(total), total+nw
		}
	}
	sc.dw = sized(sc.dw, total)
	clear(sc.dw)
	for i, v := range sc.order {
		w := &win[v]
		if w.lo > maxM {
			continue
		}
		s := int32(0)
		if p.IsKind(v, prov.KindEntity) {
			s = 1
		}
		for _, u := range sc.row(i) {
			x := &win[u]
			if x.dn != promoted || x.lo > maxM {
				continue
			}
			xlo, xn := x.words(maxM)
			dst := sc.dw[x.d : int(x.d)+xn]
			switch {
			case w.dn != promoted:
				var one [1]span
				for _, r := range sc.dOf(w, &one) {
					fillRange(dst, xlo, r.lo+s, r.hi+s)
				}
			case s == 1:
				lo, nw := w.words(maxM)
				orShl1Into(dst, xlo, sc.dw[w.d:int(w.d)+nw], lo)
			default:
				// An input's window covers its activity's.
				lo, nw := w.words(maxM)
				at := lo - xlo
				orInto(dst[at:at+nw], sc.dw[w.d:int(w.d)+nw])
			}
		}
	}
}

// targets is the increasing-rank pass: build T(v) on v's window from its row
// members' and test membership in place. It stops early once the request is
// done.
func (st *tstSweepState) targets(sc *tstSweepScratch, maxM int32, out *bitmap.Bitset) {
	p, win := st.e.P, sc.win
	sc.tRuns, sc.tw = sc.tRuns[:0], sc.tw[:0]
	for i := len(sc.order) - 1; i >= 0; i-- {
		if i&pollMask == 0 && stopped(st.ad.done) {
			return
		}
		v := sc.order[i]
		w := &win[v]
		if w.lo > maxM {
			continue // dropped: no depth of it can reach an answer level
		}
		hi, s := min(w.hi, maxM), int32(0)
		entity := p.IsKind(v, prov.KindEntity)
		if entity {
			s = -1 // each generator's T one step shallower
		}
		// The runs are gathered, then coalesced; a union that outgrows
		// maxRuns on the way is promoted without being finished.
		acc, ok := sc.acc[:0], true
		for _, u := range sc.row(i) {
			if !ok {
				break
			}
			x := &win[u]
			switch {
			case x.lo > maxM:
			case x.tn == promoted:
				ok = false
			default:
				for _, r := range sc.tOf(x) {
					lo, hi := max(r.lo+s, w.lo), min(r.hi+s, hi)
					if lo > hi {
						continue
					}
					if acc = append(acc, span{lo, hi}); len(acc) > 2*maxRuns {
						acc = coalesce(acc)
						ok = ok && len(acc) <= maxRuns
					}
				}
			}
		}
		if ok && entity { // an entity's T also holds A
			acc, ok = sc.answersIn(acc, w.lo, hi)
		}
		if ok && len(acc) > 1 {
			acc = coalesce(acc)
			ok = len(acc) <= maxRuns
		}
		sc.acc = acc
		switch {
		case !ok:
			sc.promoteTargets(w, sc.row(i), entity, maxM)
		case len(acc) == 1: // the common case
			w.t, w.tn = int32(len(sc.tRuns)), 1
			sc.tRuns = append(sc.tRuns, acc[0])
		default:
			w.t, w.tn = int32(len(sc.tRuns)), int16(len(acc))
			sc.tRuns = append(sc.tRuns, acc...)
		}
		if sc.meets(w, maxM) {
			out.Add(uint32(v))
		}
	}
}

// answersIn appends A clipped to [lo, hi] to acc, or reports false once that
// is more than maxRuns runs.
func (sc *tstSweepScratch) answersIn(acc []span, lo, hi int32) ([]span, bool) {
	a, i := sc.ansRun, 0
	if len(a) > maxRuns {
		i, _ = slices.BinarySearchFunc(a, lo, func(r span, lo int32) int { return cmp.Compare(r.hi, lo) })
	}
	for n := 0; i < len(a) && a[i].lo <= hi; i++ {
		if a[i].hi < lo {
			continue
		}
		if n++; n > maxRuns {
			return acc, false
		}
		acc = append(acc, span{max(a[i].lo, lo), min(a[i].hi, hi)})
	}
	return acc, true
}

// promoteTargets builds T(v) as a word window appended to tw, from A (an
// entity) and its row members' T, run-held or promoted.
func (sc *tstSweepScratch) promoteTargets(w *tstWin, row []graph.VertexID, entity bool, maxM int32) {
	lo, nw := w.words(maxM)
	off := len(sc.tw)
	sc.tw = slices.Grow(sc.tw, nw)[:off+nw]
	tv, s := sc.tw[off:], int32(0)
	if entity {
		copy(tv, sc.ans[lo:lo+nw])
		s = -1
	} else {
		clear(tv)
	}
	for _, u := range row {
		x := &sc.win[u]
		switch {
		case x.lo > maxM:
		case x.tn != promoted:
			for _, r := range sc.tOf(x) {
				fillRange(tv, lo, r.lo+s, r.hi+s)
			}
		case entity:
			xlo, xn := x.words(maxM)
			orShr1Into(tv, lo, sc.tw[x.t:int(x.t)+xn], xlo)
		default:
			// An input's window covers its activity's.
			at := int(x.t) + lo - int(x.lo)>>6
			orInto(tv, sc.tw[at:at+nw])
		}
	}
	w.t, w.tn, sc.promoted = int32(off), promoted, sc.promoted+1
}

// meets reports whether D(v) and T(v) share a depth, in whichever encoding
// each is held.
func (sc *tstSweepScratch) meets(w *tstWin, maxM int32) bool {
	if w.dn == 1 && w.tn == 1 { // the common case
		t := sc.tRuns[w.t]
		return t.lo <= w.hi && w.lo <= t.hi
	}
	if w.dn != promoted && w.tn != promoted {
		var one [1]span
		return runsMeet(sc.dOf(w, &one), sc.tOf(w))
	}
	lo, nw := w.words(maxM)
	switch {
	case w.dn != promoted:
		var one [1]span
		tv := sc.tw[w.t : int(w.t)+nw]
		for _, r := range sc.dOf(w, &one) {
			if anyInRange(tv, lo, r.lo, r.hi) {
				return true
			}
		}
		return false
	case w.tn != promoted:
		dv := sc.dw[w.d : int(w.d)+nw]
		for _, r := range sc.tOf(w) {
			if anyInRange(dv, lo, r.lo, r.hi) {
				return true
			}
		}
		return false
	}
	return intersects(sc.dw[w.d:int(w.d)+nw], sc.tw[w.t:int(w.t)+nw])
}

// coalesce sorts rs by start and merges overlapping and adjacent runs, in
// place, returning the run list of their union.
func coalesce(rs []span) []span {
	if len(rs) < 2 {
		return rs
	}
	if len(rs) > 16 {
		slices.SortFunc(rs, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	} else {
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && rs[j].lo < rs[j-1].lo; j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		if last := &out[len(out)-1]; r.lo <= last.hi+1 {
			last.hi = max(last.hi, r.hi)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// runsMeet reports whether two sorted run lists share a depth.
func runsMeet(a, b []span) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].hi < b[j].lo:
			i++
		case b[j].hi < a[i].lo:
			j++
		default:
			return true
		}
	}
	return false
}

// appendRuns appends the runs of the bits set in words, word 0 holding
// depths 0-63.
func appendRuns(rs []span, words []uint64) []span {
	for i, w := range words {
		base := int32(i) << 6
		for w != 0 {
			lo := int32(bits.TrailingZeros64(w))
			hi := int32(bits.TrailingZeros64(^(w | (1<<lo - 1)))) - 1
			if n := len(rs); n > 0 && rs[n-1].hi+1 == base+lo {
				rs[n-1].hi = base + hi
			} else {
				rs = append(rs, span{base + lo, base + hi})
			}
			if hi == 63 {
				break
			}
			w &= ^uint64(0) << (hi + 1)
		}
	}
	return rs
}

// rangeMasks clips [lo, hi] to the window that starts at word wlo and spans
// len(words) words, and returns its first and last word index in the window
// with their masks; i > j when nothing of the range is inside.
func rangeMasks(words []uint64, wlo int, lo, hi int32) (i, j int, first, last uint64) {
	base := int32(wlo) << 6
	lo, hi = max(lo, base)-base, min(hi, base+int32(len(words))<<6-1)-base
	if lo > hi {
		return 1, 0, 0, 0
	}
	return int(lo >> 6), int(hi >> 6), ^uint64(0) << (lo & 63), ^uint64(0) >> (63 - hi&63)
}

// fillRange sets depths [lo, hi] in a window of one bit vector starting at
// word wlo; depths outside the window are dropped.
func fillRange(words []uint64, wlo int, lo, hi int32) {
	i, j, first, last := rangeMasks(words, wlo, lo, hi)
	switch {
	case i > j:
	case i == j:
		words[i] |= first & last
	default:
		words[i] |= first
		for k := i + 1; k < j; k++ {
			words[k] = ^uint64(0)
		}
		words[j] |= last
	}
}

// anyInRange reports whether a window of one bit vector starting at word wlo
// holds a depth in [lo, hi].
func anyInRange(words []uint64, wlo int, lo, hi int32) bool {
	i, j, first, last := rangeMasks(words, wlo, lo, hi)
	switch {
	case i > j:
		return false
	case i == j:
		return words[i]&first&last != 0
	}
	if words[i]&first != 0 || words[j]&last != 0 {
		return true
	}
	for _, w := range words[i+1 : j] {
		if w != 0 {
			return true
		}
	}
	return false
}

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
