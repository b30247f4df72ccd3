package core

import (
	"cmp"
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
// prune over the levels). Runtime is O(|G| + |U|) per destination. One
// runner evaluates it on every DAG: the sweep (simprovsweep.go), walking the
// snapshot's order of being with each level set held as runs of depths.
//
// A property-match constraint (Options.MatchActivityProp/MatchEntityProp)
// breaks that transitivity: an entity reached along two paths with different
// property values matches partners of either path, and those need not match
// each other. Such a query never reaches the sweep; vc2Solver hands it to
// SimProvAlg, whose worklist checks the constraint pair by pair.

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
//     every v ≠ vj, and so does the backward prune above level 0;
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

// run solves class k with solve, which evaluates SimProvTst for one
// destination into out (a worker's sweep runner; in the tests, an oracle),
// accumulating into out. Every step is an Add except the handshake around
// the representative's own run, so the union of the classes' results does
// not depend on their order or on which set each one ran on.
func (sc *tstClasses) run(k int, solve func(graph.VertexID, *bitmap.Bitset), out *bitmap.Bitset) {
	lo := 0
	if k > 0 {
		lo = sc.ends[k-1]
	}
	rep, members := sc.dests[lo].v, sc.dests[lo+1:sc.ends[k]]
	// Take rep out first, so that whether the run puts it back is the run's
	// own answer.
	had := out.Remove(uint32(rep))
	solve(rep, out)
	if out.Contains(uint32(rep)) {
		for _, m := range members {
			out.Add(uint32(m.v))
		}
	}
	if had {
		out.Add(uint32(rep))
	}
}
