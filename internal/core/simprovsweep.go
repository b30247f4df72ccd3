package core

import (
	"math/bits"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Three-sweep SimProvTst for label-only queries on id-monotone graphs.
//
// On a PROV graph with plain labels a path's word is determined by its
// activity-depth, so per destination vj the whole computation reduces to
// per-vertex DEPTH sets over [0, maxDepth]:
//
//	D(v) = { m : an alternating ancestry path of m activity-steps runs
//	            from vj to v }
//
// A level m is an answer level iff m is in D(src) for some source. The
// level-synchronous runner (simprovlevels.go) materializes every
// equivalence class [e]_m explicitly, so each edge is re-traversed once per
// level its endpoint appears in; on deep diamond-shaped provenance that
// level multiplicity is large. This solver visits every ancestry edge
// exactly once per sweep. With A the answer-level set and C(v) the
// continuation (height) set — the lengths of the alternating ancestry paths
// that start at v — define
//
//	T(v) = { i : exists h in C(v) with i+h in A }
//
// — the depths at which arriving at v can still complete to an answer-level
// path. Membership becomes a single word-parallel intersection,
// v in VC2  <=>  D(v) AND T(v) != 0, and T satisfies local recurrences that
// one increasing-id sweep evaluates (dependencies have smaller ids):
//
//	Tr(a) = union_{e' in inputs(a)}    T(e')     (activities)
//	T(e)  = A | union_{a in gen(e)}    Tr(a)>>1  (entities)
//
// derived by distributing "completes to A" over the height recurrences
// H(e) = {0} | union H'(a), H'(a) = union (H(e')+1). Three linear passes
// over the reached subgraph at O(maxDepth/64) words per edge. Depth and
// target sets live in flat slab arenas indexed by discovery slot instead of
// per-vertex map entries.
//
// The sweep requires ancestry edges to strictly descend in vertex id
// (ancestryMonotone); newTstRunner hands non-monotone graphs to the
// level-synchronous runner. Rows are read through adjacency, so the same
// code serves frozen snapshots, live graphs and filtered boundaries.

// bitvec is a fixed-width bit vector over depths.
type bitvec []uint64

func (b bitvec) set(i int) { b[i/64] |= 1 << (i % 64) }

// orInto dst |= src.
func orInto(dst, src bitvec) {
	for i, w := range src {
		dst[i] |= w
	}
}

// orShift1Into dst |= (src << 1).
func orShift1Into(dst, src bitvec) {
	carry := uint64(0)
	for i, w := range src {
		dst[i] |= (w << 1) | carry
		carry = w >> 63
	}
}

// orShr1Into dst |= (src >> 1), dropping bit 0 (a continuation one step
// longer needs arrival one step shallower).
func orShr1Into(dst, src bitvec) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		w := src[i] >> 1
		if i+1 < len(src) {
			w |= src[i+1] << 63
		}
		dst[i] |= w
	}
}

// intersects reports whether a AND b is non-zero.
func (b bitvec) intersects(o bitvec) bool {
	for i, w := range b {
		if i < len(o) && w&o[i] != 0 {
			return true
		}
	}
	return false
}

// maxBit returns the highest set bit (or -1).
func (b bitvec) maxBit() int {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(b[i])
		}
	}
	return -1
}

// bvArena hands out fixed-width bit vectors from append-only slabs, indexed
// by 1-based slot. Slabs arrive zeroed from the allocator, so a freshly
// assigned slot is an empty vector.
type bvArena struct {
	w       int // words per vector
	perSlab int // vectors per slab
	slabs   [][]uint64
}

// bvArenaSlabWords caps a slab at ~2 MB so a huge reach never re-copies a
// monolithic arena.
const bvArenaSlabWords = 1 << 18

// newBvArena sizes the slab for vectors of w words and at most maxSlots
// slots: a reach that fits one slab allocates exactly its own footprint
// (a 300-vertex graph costs KBs, not the 2 MB cap).
func newBvArena(w, maxSlots int) *bvArena {
	per := bvArenaSlabWords / w
	if per > maxSlots {
		per = maxSlots
	}
	if per < 1 {
		per = 1
	}
	return &bvArena{w: w, perSlab: per}
}

func (a *bvArena) vec(slot int32) bitvec {
	i := int(slot) - 1
	si := i / a.perSlab
	for len(a.slabs) <= si {
		a.slabs = append(a.slabs, make([]uint64, a.perSlab*a.w))
	}
	off := (i % a.perSlab) * a.w
	return bitvec(a.slabs[si][off : off+a.w : off+a.w])
}

// tstSweepState carries the per-query constants across destinations.
type tstSweepState struct {
	e         *Engine
	ad        *adjacency
	src       []graph.VertexID
	minSrcID  int64
	nAct      int
	earlyStop bool
}

func (e *Engine) newTstSweep(ad *adjacency, src []graph.VertexID) *tstSweepState {
	st := &tstSweepState{
		e:         e,
		ad:        ad,
		src:       src,
		minSrcID:  int64(1) << 62,
		nAct:      len(e.P.Activities()),
		earlyStop: !e.opts.NoEarlyStop,
	}
	for _, s := range src {
		if int64(s) < st.minSrcID {
			st.minSrcID = int64(s)
		}
	}
	return st
}

// run evaluates one destination and accumulates its VC2 vertices into out.
func (st *tstSweepState) run(vj graph.VertexID, out *bitmap.Bitset) {
	// Depth cap: each level strictly descends by at least one activity and
	// one entity id, so levels beyond (id(vj) - minSrcId)/2 + 1 cannot
	// contain a source. Without early stopping fall back to the longest
	// possible alternation.
	maxD := st.nAct + 1
	if st.earlyStop {
		if gap := int(int64(vj) - st.minSrcID); gap >= 0 && gap/2+2 < maxD {
			maxD = gap/2 + 2
		} else if gap < 0 {
			maxD = 1
		}
	}
	width := maxD + 2
	W := (width + 63) / 64

	p, ad := st.e.P, st.ad
	n := int(vj) + 1
	// Slots are 1-based so the zero value of slotOf means "unreached". Only
	// ids in [0, vj] can be reached, which bounds the depth arena.
	slotOf := make([]int32, n)
	depth := newBvArena(W, n)
	nslots := int32(0)
	reached := bitmap.NewBitset(n)
	slot := func(v graph.VertexID) int32 {
		if s := slotOf[v]; s != 0 {
			return s
		}
		nslots++
		slotOf[v] = nslots
		reached.Add(uint32(v))
		return nslots
	}

	depth.vec(slot(vj)).set(0)

	// Downward sweep (decreasing ids). Ancestry rows only hold strictly
	// smaller ids, so a vertex's depth set is final when the countdown
	// reaches it and every push lands ahead of the scan.
	var row []graph.VertexID
	for cur := int(vj); cur >= 0; cur-- {
		if !reached.Contains(uint32(cur)) {
			continue
		}
		v := graph.VertexID(cur)
		dv := depth.vec(slotOf[cur])
		if p.IsKind(v, prov.KindEntity) {
			// [a]_{m+1} via generators: one activity-step deeper.
			row = ad.generatorsOf(v, row[:0])
			for _, a := range row {
				orShift1Into(depth.vec(slot(a)), dv)
			}
		} else {
			// [e]_m via inputs (the activity carries the incremented depth).
			row = ad.inputsOf(v, row[:0])
			for _, in := range row {
				orInto(depth.vec(slot(in)), dv)
			}
		}
	}

	// Answer levels: depths at which a source is reached, capped at maxD+1
	// (deeper bits are word-granularity spill, never genuine answer levels).
	var answers bitvec
	for _, s := range st.src {
		if int(s) >= n {
			continue
		}
		if sl := slotOf[s]; sl != 0 {
			if answers == nil {
				answers = make(bitvec, W)
			}
			orInto(answers, depth.vec(sl))
		}
	}
	if answers == nil {
		return
	}
	top := maxD + 1
	for i := range answers {
		if base := i * 64; base+63 > top {
			if base > top {
				answers[i] = 0
			} else {
				answers[i] &= (1 << uint(top-base+1)) - 1
			}
		}
	}
	maxM := answers.maxBit()
	if maxM < 0 {
		return
	}

	// Upward sweep (increasing ids): evaluate T bottom-up and test
	// membership in place. T only needs bits [0, maxM], so the target
	// arena's width shrinks to the answer window, and its slot count is
	// known exactly.
	TW := maxM/64 + 1
	ansT := answers[:TW]
	tar := newBvArena(TW, int(nslots))
	reached.Iterate(func(xv uint32) bool {
		v := graph.VertexID(xv)
		sl := slotOf[xv]
		tv := tar.vec(sl)
		if p.IsKind(v, prov.KindEntity) {
			copy(tv, ansT)
			row = ad.generatorsOf(v, row[:0])
			for _, a := range row {
				orShr1Into(tv, tar.vec(slotOf[a]))
			}
		} else {
			row = ad.inputsOf(v, row[:0])
			for _, in := range row {
				orInto(tv, tar.vec(slotOf[in]))
			}
		}
		if depth.vec(sl)[:TW].intersects(tv) {
			out.Add(xv)
		}
		return true
	})
}
