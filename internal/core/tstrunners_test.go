package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/cflr"
	"repro/internal/graph"
	"repro/internal/prov"
)

// White-box coverage of the SimProvTst runner (the sweep) against the
// all-words oracle (words_oracle_test.go, set by set), the level-synchronous
// oracle (levels_oracle_test.go) and the class-chain oracle
// (chain_oracle_test.go): called directly on the same label-only
// queries they must produce identical VC2 sets — on both row layouts,
// under excluded relations, programmatic filters, disabled early stopping
// and non-monotone ingestion — and equal SimProvAlg's; the dispatcher must
// hand each query the solver it dictates. ("Vec" in some test names dates
// from when the sweep and level-synchronous runners sat behind an option;
// the names are what the test floor tracks.)

// tstRunner is what the tests drive: SimProvTst for one destination at a
// time, accumulating into out — the sweep, or one of the three oracles.
type tstRunner interface {
	run(vj graph.VertexID, out *bitmap.Bitset)
}

// sweep is the runner Segment's workers build, on the graph's order of
// being.
func (e *Engine) sweep(ad *adjacency, src []graph.VertexID) *tstSweepState {
	rank, ok := e.P.OrderOfBeing()
	if !ok {
		panic("sweep: the ancestry edges form a cycle")
	}
	return e.newTstSweep(ad, src, rank)
}

func bitsetMap(b *bitmap.Bitset) map[uint32]bool {
	m := map[uint32]bool{}
	b.Iterate(func(x uint32) bool { m[x] = true; return true })
	return m
}

func diffSets(t *testing.T, label string, want, got map[uint32]bool) {
	t.Helper()
	for v := range want {
		if !got[v] {
			t.Errorf("%s: missing vertex %d", label, v)
		}
	}
	for v := range got {
		if !want[v] {
			t.Errorf("%s: extra vertex %d", label, v)
		}
	}
}

// runTst drives one runner over every destination separately: the paper's
// per-destination SimProvTst, the reference runSimProvTst is held to.
func runTst(p *prov.Graph, r tstRunner, q Query, ad *adjacency) map[uint32]bool {
	out := bitmap.NewBitset(p.NumVertices())
	for _, vj := range dedupVertices(q.Dst) {
		if ad.vertexOK(vj) {
			r.run(vj, out)
		}
	}
	return bitsetMap(out)
}

// runnersAgree runs the sweep and the oracles directly on both row layouts
// of the graph (Layouts) — once per destination (runTst) and once per
// destination class (runSimProvTst) — then the dispatched SimProvTst and
// SimProvAlg, and requires one VC2 set from all of them. The class-chain
// oracle on the full rebuild, run per destination, is the reference. The
// sweep is also held to the all-words oracle set by set
// (checkSweepWindows).
func runnersAgree(t *testing.T, label string, g *prov.Graph, q Query, opts Options) map[uint32]bool {
	t.Helper()
	ref, _ := runnersAgreeOn(t, label, g, q, opts, "chain")
	return ref
}

// runnersAgreeOn is runnersAgree with the reference runner named by ref.
// Inputs hundreds of levels deep, where the class chain and SimProvAlg take
// seconds to minutes, use "levels": both are left out and the
// level-synchronous runner is the reference. Inputs where that runner takes
// seconds too use "words": the all-words oracle alone is the reference.
func runnersAgreeOn(t *testing.T, label string, g *prov.Graph, q Query, opts Options, ref string) (map[uint32]bool, sweepWindows) {
	t.Helper()
	var want map[uint32]bool
	var seen sweepWindows
	for _, p := range Layouts(g) {
		layout := LayoutName(p)
		e := NewEngine(p, opts)
		ad := newAdjacency(p, q.Boundary)
		src := dedupVertices(q.Src)
		wd := e.words(ad, src)
		runners := map[string]tstRunner{"words": wd}
		switch ref {
		case "chain":
			runners["chain"] = e.newTstChain(ad, src)
			fallthrough
		case "levels":
			runners["levels"] = e.newTstLevels(ad, src)
		}
		sw := e.sweep(ad, src)
		runners["sweep"] = sw
		seen = checkSweepWindows(t, fmt.Sprintf("%s/%s", label, layout), sw, wd, q, ad)
		if want == nil {
			want = runTst(p, runners[ref], q, ad)
			diffSets(t, fmt.Sprintf("%s/%s/%s/classes", label, layout, ref), want, bitsetMap(e.runSimProvTst(runners[ref], src, q.Dst, ad)))
			delete(runners, ref)
		}
		for name, r := range runners {
			diffSets(t, fmt.Sprintf("%s/%s/%s", label, layout, name), want, runTst(p, r, q, ad))
			diffSets(t, fmt.Sprintf("%s/%s/%s/classes", label, layout, name), want, bitsetMap(e.runSimProvTst(r, src, q.Dst, ad)))
		}
		solvers := []SolverKind{SolverTst, SolverAlg}
		if ref != "chain" {
			solvers = solvers[:1]
		}
		for _, solver := range solvers {
			o := opts
			o.Solver = solver
			set, err := NewEngine(p, o).SimilarPaths(q)
			if err != nil {
				t.Fatalf("%s/%s/%v: %v", label, layout, solver, err)
			}
			diffSets(t, fmt.Sprintf("%s/%s/%v", label, layout, solver), want, bitsetMap(set))
		}
	}
	return want, seen
}

// sweepWindows is what checkSweepWindows saw, so a test can demand that its
// input did exercise the window arithmetic and both encodings of a set.
type sweepWindows struct {
	maxM      int32 // largest answer ceiling over the destinations
	maxWidth  int   // widest window [lo, min(hi, maxM)], in levels
	maxWords  int   // widest window, in words
	offsetRow int   // ancestry edges whose two windows start in different words
	dropped   int   // reached vertices with lo > maxM
	promoted  int   // sets held as word windows
	sets      int   // sets on undropped vertices, D and T each counted
	mixed     int   // undropped vertices with one set promoted, one run-held
}

// checkSweepWindows solves every destination with the sweep and with the
// all-words oracle, each on a fresh scratch, and holds the sweep to the oracle
// set by set: the same answer ceiling, reached order, hulls and VC2, and on
// every undropped vertex's window [lo(v), min(hi(v), maxM)] the same D and
// the same T, whichever way the sweep holds each. A run list must be sorted,
// coalesced, at most maxRuns long and (for D) span its hull exactly; the
// oracle's D must have no bit outside [lo(v), hi(v)] and set bit lo(v), and
// bit hi(v) unless the answer ceiling clipped it. A destination that reaches
// no source must leave the windows unallocated.
func checkSweepWindows(t *testing.T, label string, st *tstSweepState, wd *tstWordsState, q Query, ad *adjacency) sweepWindows {
	t.Helper()
	var seen sweepWindows
	var gBuf, oBuf, maskBuf []uint64
	n := st.e.P.NumVertices()
	for _, vj := range dedupVertices(q.Dst) {
		if !ad.vertexOK(vj) {
			continue
		}
		sc, oc := new(tstSweepScratch), new(wordsScratch)
		maxM := st.depths(sc, vj)
		if om := wd.depths(oc, vj); om != maxM {
			t.Fatalf("%s: vj=%d: answer ceiling %d, the oracle's %d", label, vj, maxM, om)
		}
		if maxM < 0 {
			if sc.dw != nil || sc.tw != nil || sc.ans != nil || sc.tRuns != nil {
				t.Errorf("%s: vj=%d reaches no source but windows were allocated", label, vj)
			}
			continue
		}
		got, want := bitmap.NewBitset(n), bitmap.NewBitset(n)
		st.targets(sc, maxM, got)
		wd.targets(oc, maxM, want)
		diffSets(t, fmt.Sprintf("%s: vj=%d: sweep against words", label, vj), bitsetMap(want), bitsetMap(got))
		if !slices.Equal(sc.order, oc.order) {
			t.Fatalf("%s: vj=%d: reached order differs from the oracle's", label, vj)
		}
		seen.maxM, seen.promoted = max(seen.maxM, maxM), seen.promoted+sc.promoted
		for i, v := range sc.order {
			w, ow := &sc.win[v], oc.win[v]
			if w.lo != ow.lo || w.hi != ow.hi {
				t.Fatalf("%s: vj=%d v=%d: hull [%d, %d], the oracle's [%d, %d]", label, vj, v, w.lo, w.hi, ow.lo, ow.hi)
			}
			if ow.off < 0 {
				if w.lo <= maxM {
					t.Fatalf("%s: vj=%d v=%d dropped with lo=%d <= maxM=%d", label, vj, v, w.lo, maxM)
				}
				seen.dropped++
				continue
			}
			lo, nw := ow.words(maxM)
			hi := min(w.hi, maxM)
			seen.maxWords, seen.maxWidth, seen.sets = max(seen.maxWords, nw), max(seen.maxWidth, int(hi-w.lo)+1), seen.sets+2
			for _, u := range sc.row(i) {
				if x := oc.win[u]; x.off >= 0 && int(x.lo)>>6 != lo {
					seen.offsetRow++
				}
			}
			od, ot := oc.d[ow.off:ow.off+nw], oc.t[ow.off:ow.off+nw]
			get := func(m int32) bool { return od[int(m)>>6-lo]&(1<<(m&63)) != 0 }
			for i, x := range od {
				if out := x &^ spanBits(lo+i, w.lo, w.hi); out != 0 {
					m := int32(lo+i)<<6 + int32(bits.TrailingZeros64(out))
					t.Fatalf("%s: vj=%d v=%d: depth bit %d outside [%d, %d]", label, vj, v, m, w.lo, w.hi)
				}
			}
			if !get(w.lo) || (w.hi <= maxM && !get(w.hi)) {
				t.Fatalf("%s: vj=%d v=%d: window [%d, %d] (maxM %d) has an end bit clear", label, vj, v, w.lo, w.hi, maxM)
			}
			var dRuns, tRuns []span
			var dWords, tWords []uint64
			if w.dn == promoted {
				dWords = sc.dw[w.d : int(w.d)+nw]
			} else {
				var one [1]span
				dRuns = sc.dOf(w, &one)
				checkRunList(t, dRuns, "%s: vj=%d v=%d: D", label, vj, v)
				if dRuns[0].lo != w.lo || dRuns[len(dRuns)-1].hi != w.hi {
					t.Fatalf("%s: vj=%d v=%d: D runs %v do not span the hull [%d, %d]", label, vj, v, dRuns, w.lo, w.hi)
				}
			}
			if (w.dn == promoted) != (w.tn == promoted) {
				seen.mixed++
			}
			if w.tn == promoted {
				tWords = sc.tw[w.t : int(w.t)+nw]
			} else {
				tRuns = sc.tOf(w)
				checkRunList(t, tRuns, "%s: vj=%d v=%d: T", label, vj, v)
			}
			for _, set := range []struct {
				name        string
				runs        []span
				words, want []uint64
			}{{"D", dRuns, dWords, od}, {"T", tRuns, tWords, ot}} {
				maskBuf = slices.Grow(maskBuf[:0], nw)
				g := windowBits(gBuf, maskBuf, set.runs, set.words, lo, nw, w.lo, hi)
				o := windowBits(oBuf, maskBuf, nil, set.want, lo, nw, w.lo, hi)
				gBuf, oBuf = g, o
				if !slices.Equal(g, o) {
					t.Fatalf("%s: vj=%d v=%d: %s on [%d, %d] is %x, the oracle's %x", label, vj, v, set.name, w.lo, hi, g, o)
				}
			}
		}
	}
	return seen
}

// checkRunList fails unless rs holds at most maxRuns non-empty runs, sorted
// and coalesced (a gap of at least one depth between two runs); the label is
// formatted from format and args.
func checkRunList(t *testing.T, rs []span, format string, args ...any) {
	if len(rs) > maxRuns {
		t.Helper()
		t.Fatalf("%s: %d runs, more than %d", fmt.Sprintf(format, args...), len(rs), maxRuns)
	}
	for i, r := range rs {
		if r.lo > r.hi || (i > 0 && r.lo <= rs[i-1].hi+1) {
			t.Helper()
			t.Fatalf("%s: runs %v are not sorted and coalesced", fmt.Sprintf(format, args...), rs)
		}
	}
}

// windowBits returns a set's depths in [lo, hi] as the nw words starting at
// word wlo, from its runs or, when words is not nil, from its word window.
// It fills out's backing array, and uses mask's as scratch.
func windowBits(out, mask []uint64, runs []span, words []uint64, wlo, nw int, lo, hi int32) []uint64 {
	out, mask = slices.Grow(out[:0], nw)[:nw], slices.Grow(mask[:0], nw)[:nw]
	clear(out)
	clear(mask)
	copy(out, words)
	for _, r := range runs {
		fillRange(out, wlo, r.lo, r.hi)
	}
	fillRange(mask, wlo, lo, hi)
	for i := range out {
		out[i] &= mask[i]
	}
	return out
}

// spanBits is the bits of word k (depths 64k to 64k+63) that lie in [lo, hi].
func spanBits(k int, lo, hi int32) uint64 {
	base := int32(k) << 6
	a, b := max(lo, base), min(hi, base+63)
	switch {
	case a > b:
		return 0
	case b-a == 63:
		return ^uint64(0)
	}
	return (uint64(1)<<(b-a+1) - 1) << (a - base)
}

// smallLifecycle builds a deterministic mixed-shape lifecycle.
func smallLifecycle(extraRounds int) (*prov.Graph, []graph.VertexID, []graph.VertexID) {
	rc := prov.NewRecorder()
	d := rc.Import("a", "data", "")
	m := rc.Import("a", "model", "")
	cur := []graph.VertexID{d, m}
	for i := 0; i < extraRounds; i++ {
		_, out := rc.Run("a", "step", cur, []string{"mid", "side"})
		// Mix fan-in/fan-out: next round uses one new and one old entity.
		cur = []graph.VertexID{out[0], d}
		if i%2 == 1 {
			cur = append(cur, m)
		}
	}
	_, final := rc.Run("a", "final", cur, []string{"result"})
	return rc.P, []graph.VertexID{d, m}, final
}

// randomLifecycle records runs activities, each reading 1-3 random earlier
// entities and writing 1-2 new ones (package gen imports core, so the
// white-box tests grow their own Pd-like shapes). The query puts the sources
// mid-history, so the temporal early stop fires, and asks for two late
// destinations, so one runner's scratch serves more than one vj.
func randomLifecycle(seed int64, runs int) (*prov.Graph, Query) {
	rng := rand.New(rand.NewSource(seed))
	rc := prov.NewRecorder()
	ents := []graph.VertexID{rc.Import("a", "data", ""), rc.Import("a", "model", "")}
	for i := 0; i < runs; i++ {
		ins := make([]graph.VertexID, 1+rng.Intn(3))
		for j := range ins {
			ins[j] = ents[rng.Intn(len(ents))]
		}
		outs := []string{"o1", "o2"}[:1+rng.Intn(2)]
		_, out := rc.Run("a", fmt.Sprintf("cmd%d", rng.Intn(3)), ins, outs)
		ents = append(ents, out...)
	}
	mid := len(ents) / 2
	return rc.P, Query{
		Src: []graph.VertexID{ents[mid], ents[mid+1]},
		Dst: []graph.VertexID{ents[len(ents)-1], ents[len(ents)-2], ents[len(ents)-1]},
	}
}

// nonMonotone builds a graph whose activities are created before their
// inputs, so Used edges point old -> new and the id is no order of being.
func nonMonotone(t *testing.T) (*prov.Graph, Query) {
	t.Helper()
	p := prov.New()
	a1 := p.NewActivity("a1")
	a2 := p.NewActivity("a2")
	a3 := p.NewActivity("a3")
	src := p.NewEntity("src")
	mid := p.NewEntity("mid")
	side := p.NewEntity("side")
	dst := p.NewEntity("dst")
	p.Used(a1, src)
	p.WasGeneratedBy(mid, a1)
	p.WasGeneratedBy(side, a1)
	p.Used(a2, mid)
	p.Used(a3, side)
	p.WasGeneratedBy(dst, a2)
	p.WasGeneratedBy(dst, a3)
	if p.AncestryMonotone() {
		t.Fatal("graph should be non-monotone")
	}
	return p, Query{Src: []graph.VertexID{src}, Dst: []graph.VertexID{dst}}
}

func TestTstImplementationsAgree(t *testing.T) {
	for rounds := 1; rounds <= 6; rounds++ {
		p, src, dst := smallLifecycle(rounds)
		if got := runnersAgree(t, fmt.Sprintf("rounds=%d", rounds), p, Query{Src: src, Dst: dst}, Options{}); len(got) == 0 {
			t.Errorf("rounds=%d: empty VC2, the runners agreed on nothing", rounds)
		}
	}
}

// TestTstImplementationsAgreeNoEarlyStop repeats without the temporal early
// stop, which only SimProvAlg and the class-chain oracle have.
func TestTstImplementationsAgreeNoEarlyStop(t *testing.T) {
	for rounds := 1; rounds <= 6; rounds++ {
		p, src, dst := smallLifecycle(rounds)
		runnersAgree(t, fmt.Sprintf("rounds=%d", rounds), p, Query{Src: src, Dst: dst}, Options{NoEarlyStop: true})
	}
}

// TestVecSolversAgreeOnLifecycle: randomized lifecycles with mid-history
// sources and two destinations.
func TestVecSolversAgreeOnLifecycle(t *testing.T) {
	nonEmpty := 0
	for seed := int64(1); seed <= 12; seed++ {
		p, q := randomLifecycle(seed, 40)
		nonEmpty += len(runnersAgree(t, fmt.Sprintf("seed=%d", seed), p, q, Options{}))
		runnersAgree(t, fmt.Sprintf("seed=%d/noearlystop", seed), p, q, Options{NoEarlyStop: true})
	}
	if nonEmpty == 0 {
		t.Fatal("every randomized query had an empty VC2")
	}
}

// TestVecSolversExcludedRels covers every boundary shape adjacency filters:
// excluded relation types, a programmatic vertex filter, a programmatic
// edge filter.
func TestVecSolversExcludedRels(t *testing.T) {
	p, src, dst := smallLifecycle(5)
	for _, excl := range [][]prov.Rel{
		{prov.RelGen},
		{prov.RelUsed},
		{prov.RelGen, prov.RelUsed},
		{prov.RelDeriv, prov.RelAssoc},
	} {
		q := Query{Src: src, Dst: dst, Boundary: Boundary{ExcludeRels: excl}}
		runnersAgree(t, fmt.Sprintf("excl=%v", excl), p, q, Options{})
	}
	unfiltered := runnersAgree(t, "unfiltered", p, Query{Src: src, Dst: dst}, Options{})
	vf := Boundary{VertexFilters: []VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v%7 != 3 }}}
	if got := runnersAgree(t, "vertex-filter", p, Query{Src: src, Dst: dst, Boundary: vf}, Options{}); len(got) >= len(unfiltered) {
		t.Errorf("vertex filter removed nothing: %d vs %d", len(got), len(unfiltered))
	}
	ef := Boundary{EdgeFilters: []EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%3 != 1 }}}
	if got := runnersAgree(t, "edge-filter", p, Query{Src: src, Dst: dst, Boundary: ef}, Options{}); len(got) >= len(unfiltered) {
		t.Errorf("edge filter removed nothing: %d vs %d", len(got), len(unfiltered))
	}
	for seed := int64(1); seed <= 6; seed++ {
		rp, rq := randomLifecycle(seed, 40)
		rq.Boundary = vf
		runnersAgree(t, fmt.Sprintf("seed=%d/vertex-filter", seed), rp, rq, Options{})
		rq.Boundary = ef
		runnersAgree(t, fmt.Sprintf("seed=%d/edge-filter", seed), rp, rq, Options{})
	}
}

// TestVecSolversNonMonotone: on out-of-order ingestion the sweep walks a
// topological rank instead of the id, and it, the level-synchronous oracle
// and SimProvAlg must stay exact against the class chain — plain, filtered,
// on both row layouts.
func TestVecSolversNonMonotone(t *testing.T) {
	p, q := nonMonotone(t)
	if got := runnersAgree(t, "nonmonotone", p, q, Options{}); len(got) != p.NumVertices() {
		t.Errorf("VC2 has %d vertices, want all %d", len(got), p.NumVertices())
	}
	runnersAgree(t, "nonmonotone/noearlystop", p, q, Options{NoEarlyStop: true})
	q.Boundary = Boundary{VertexFilters: []VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v != 5 }}}
	if got := runnersAgree(t, "nonmonotone/filtered", p, q, Options{}); got[5] || got[2] {
		t.Errorf("filtered branch (side, a3) still in VC2: %v", got)
	}
}

// ladder records n runs where run i reads the outputs of runs i-1 and (the
// skip edge) i-3. From the last rung, the entity k rungs up sits at every
// depth m = k, k-2, ... down to k-2*(k/3): windows about 2k/3 levels wide
// whose start moves one word every ~190 rungs. ents[i] is run i's output
// (ents[0] the import); island is an early entity nothing ever reads.
func ladder(n int) (p *prov.Graph, ents []graph.VertexID, island graph.VertexID) {
	rc := prov.NewRecorder()
	ents = []graph.VertexID{rc.Import("a", "rung0", "")}
	island = rc.Import("a", "island", "")
	for i := 1; i <= n; i++ {
		ins := []graph.VertexID{ents[i-1]}
		if i >= 3 {
			ins = append(ins, ents[i-3])
		}
		_, out := rc.Run("a", "step", ins, []string{fmt.Sprintf("rung%d", i)})
		ents = append(ents, out[0])
	}
	return rc.P, ents, island
}

// TestSweepDeepWindowsLadder drives the sweep's window arithmetic where the
// randomized lifecycles (under 64 levels, one word per window) cannot: answer
// ceilings on bits 63, 64 and 127, windows several words wide whose
// neighbours start in different words, vertices dropped beyond the ceiling,
// two destinations through one pooled scratch.
func TestSweepDeepWindowsLadder(t *testing.T) {
	const n = 400
	p, ents, _ := ladder(n)
	dst := []graph.VertexID{ents[n], ents[n-1]}
	for _, k := range []int{63, 64, 127, 128, 300} {
		for _, opts := range []Options{{}, {NoEarlyStop: true}} {
			label := fmt.Sprintf("k=%d/noearlystop=%v", k, opts.NoEarlyStop)
			q := Query{Src: []graph.VertexID{ents[n-k]}, Dst: dst}
			// The class chain and SimProvAlg are the references up to 128
			// levels; beyond that they take too long.
			ref := "chain"
			if k > 128 {
				ref = "levels"
			}
			got, seen := runnersAgreeOn(t, label, p, q, opts, ref)
			if len(got) == 0 {
				t.Errorf("%s: empty VC2", label)
			}
			if int(seen.maxM) != k {
				t.Errorf("%s: answer ceiling %d, want %d", label, seen.maxM, k)
			}
			if 3*k < n-3 && seen.dropped == 0 {
				t.Errorf("%s: no vertex beyond the ceiling was dropped", label)
			}
			if k == 300 && (seen.maxWords < 4 || seen.offsetRow == 0) {
				t.Errorf("%s: windows at most %d words, %d offset rows: the offset arithmetic was not exercised", label, seen.maxWords, seen.offsetRow)
			}
		}
	}
}

// TestSweepDegenerateSources: sources the destination never reaches (an
// unread entity, an entity newer than the destination) give an empty VC2
// without allocating a window — checkSweepWindows asserts the latter — alone and
// beside a reachable source; a source equal to the destination is an answer
// at level 0.
func TestSweepDegenerateSources(t *testing.T) {
	const n = 200
	p, ents, island := ladder(n)
	mid := ents[n/2]
	for _, tc := range []struct {
		name      string
		src, dst  []graph.VertexID
		wantEmpty bool
	}{
		{"island", []graph.VertexID{island}, []graph.VertexID{ents[n]}, true},
		{"above-vj", []graph.VertexID{ents[n]}, []graph.VertexID{mid}, true},
		{"island+above", []graph.VertexID{island, ents[n]}, []graph.VertexID{mid, ents[n/2+1]}, true},
		{"island+reachable", []graph.VertexID{island, ents[10]}, []graph.VertexID{mid}, false},
		{"above+reachable", []graph.VertexID{ents[n], ents[10]}, []graph.VertexID{mid}, false},
		{"src=dst+deeper", []graph.VertexID{mid, ents[10]}, []graph.VertexID{mid}, false},
	} {
		got := runnersAgree(t, tc.name, p, Query{Src: tc.src, Dst: tc.dst}, Options{})
		if (len(got) == 0) != tc.wantEmpty {
			t.Errorf("%s: VC2 has %d vertices, want empty=%v", tc.name, len(got), tc.wantEmpty)
		}
	}
	if got := runnersAgree(t, "src=dst", p, Query{Src: []graph.VertexID{mid}, Dst: []graph.VertexID{mid}}, Options{}); len(got) != 1 || !got[uint32(mid)] {
		t.Errorf("src=dst: VC2 = %v, want just %d", got, mid)
	}
}

// diamonds records k diamonds in a chain on rc, from bottom: each diamond's
// top is written by a run reading a short branch, which reaches the bottom in
// 2 activity-steps, and a long one, which reaches it in 2+gap; the top is the
// next diamond's bottom. The branches of even diamonds meet at the bottom
// entity; those of odd ones at an activity, one run that reads the bottom
// and writes both branch roots (one step more on each branch). From the last
// top, the bottom i diamonds down sits at i+1 depths gap apart: i+1 runs when
// gap >= 2, so depth sets outgrow maxRuns a few diamonds down, at entities
// and at activities alike. mid is the top of diamond k/2.
func diamonds(rc *prov.Recorder, bottom graph.VertexID, k, gap int) (mid, top graph.VertexID) {
	top = bottom
	for i := 0; i < k; i++ {
		shortRoot, long := top, top
		if i%2 == 1 {
			_, roots := rc.Run("a", "fork", []graph.VertexID{top}, []string{"p", "q"})
			shortRoot, long = roots[0], roots[1]
		}
		_, short := rc.Run("a", "short", []graph.VertexID{shortRoot}, []string{"s"})
		for range gap + 1 {
			_, out := rc.Run("a", "long", []graph.VertexID{long}, []string{"l"})
			long = out[0]
		}
		_, x := rc.Run("a", "join", []graph.VertexID{short[0], long}, []string{"x"})
		if top = x[0]; i == k/2 {
			mid = top
		}
	}
	return mid, top
}

// diamondChain is a chain of k diamonds with branch gap gap, queried from its
// root and its middle top to its last top.
func diamondChain(k, gap int) (*prov.Graph, Query) {
	rc := prov.NewRecorder()
	root := rc.Import("a", "root", "")
	mid, top := diamonds(rc, root, k, gap)
	return rc.P, Query{Src: []graph.VertexID{root, mid}, Dst: []graph.VertexID{top}}
}

// partialPromotion joins a chain of k diamonds (gap 2) and a plain chain of
// n >= 3k runs under one last run, whose output is the destination. The one
// source is the plain-chain entity at depth 3k, an answer level inside the
// diamonds' depth range, so there a vertex's T — the answer level less its
// fragmented heights — fragments as its D does, one run at a time: target
// sets outgrow maxRuns by coalescing members that are still run lists. Only
// the diamond side fragments: every plain-chain vertex sits at one depth.
func partialPromotion(k, n int) (*prov.Graph, Query) {
	rc := prov.NewRecorder()
	_, top := diamonds(rc, rc.Import("a", "root", ""), k, 2)
	plain := []graph.VertexID{rc.Import("a", "plain", "")}
	for i := 0; i < n; i++ {
		_, out := rc.Run("a", "step", plain[i:i+1], []string{"p"})
		plain = append(plain, out[0])
	}
	_, dst := rc.Run("a", "final", []graph.VertexID{top, plain[n]}, []string{"dst"})
	return rc.P, Query{Src: plain[n+1-3*k : n+2-3*k], Dst: dst}
}

// mixedTargets builds an activity J at depth 2 whose target set is promoted
// although the depth it holds comes from a run-held member: J reads e1, whose
// window [2, 19] holds the answer levels 3, 5, ..., 19 (the source s is read
// at every odd depth), so T(e1) is promoted and lacks 2; and e2, one step
// above an import, whose T is the run {2}.
func mixedTargets() (*prov.Graph, Query) {
	rc := prov.NewRecorder()
	s, e1, e3 := rc.Import("a", "s", ""), rc.Import("a", "e1", ""), rc.Import("a", "e3", "")
	_, e2 := rc.Run("a", "e2", []graph.VertexID{e3}, []string{"e2"})
	_, f := rc.Run("a", "J", []graph.VertexID{e1, e2[0]}, []string{"f"})
	u := rc.Import("a", "u20", "")
	for i := 19; i >= 0; i-- {
		ins := []graph.VertexID{u}
		if i%2 == 0 {
			ins = append(ins, s)
		}
		switch i {
		case 18:
			ins = append(ins, e1)
		case 0:
			ins = append(ins, f[0])
		}
		_, out := rc.Run("a", "step", ins, []string{"u"})
		u = out[0]
	}
	return rc.P, Query{Src: []graph.VertexID{s}, Dst: []graph.VertexID{u}}
}

// TestSweepPromotes drives the word windows where Pd never does: on diamond
// chains of gap 2 (depth sets of one parity) and 3 both D and T outgrow
// maxRuns, so sets are promoted and every mix of encodings meets in a
// membership test; on the partial graph only the diamond side is promoted.
// The class chain and SimProvAlg are the references up to 13 diamonds, the
// level-synchronous runner at 60 and 61; checkSweepWindows holds every set to
// the all-words oracle.
func TestSweepPromotes(t *testing.T) {
	for _, gap := range []int{2, 3} {
		// Depth sets first outgrow maxRuns 8 diamonds below the top: at an
		// entity for even k, at an activity for odd k.
		for _, k := range []int{12, 13, 60, 61} {
			label := fmt.Sprintf("diamonds/gap=%d/k=%d", gap, k)
			ref := "chain"
			if k > 13 {
				ref = "levels"
			}
			p, q := diamondChain(k, gap)
			got, seen := runnersAgreeOn(t, label, p, q, Options{}, ref)
			if len(got) == 0 || seen.promoted == 0 || seen.mixed == 0 {
				t.Errorf("%s: |VC2| = %d, %d sets promoted, %d mixed vertices: the word windows were not exercised", label, len(got), seen.promoted, seen.mixed)
			}
		}
	}
	p, q := partialPromotion(12, 200)
	got, seen := runnersAgreeOn(t, "partial", p, q, Options{}, "chain")
	if len(got) == 0 || seen.promoted == 0 || 2*seen.promoted >= seen.sets {
		t.Errorf("partial: |VC2| = %d, %d of %d sets promoted: want some, on the diamond side only", len(got), seen.promoted, seen.sets)
	}
	p, q = mixedTargets()
	if got, seen := runnersAgreeOn(t, "mixed-targets", p, q, Options{}, "chain"); len(got) == 0 || seen.promoted == 0 {
		t.Errorf("mixed-targets: |VC2| = %d, %d sets promoted", len(got), seen.promoted)
	}
}

// TestRunOps holds the run-list primitives to a one-bool-per-depth model:
// appendRuns, coalesce (of shuffled, shifted and clipped runs), runsMeet, and
// fillRange and anyInRange on windows that start past word 0.
func TestRunOps(t *testing.T) {
	const depths = 384
	rng := rand.New(rand.NewSource(1))
	toRuns := func(set []bool) []span {
		words := make([]uint64, depths/64)
		for m, in := range set {
			if in {
				words[m/64] |= 1 << (m % 64)
			}
		}
		return appendRuns(nil, words)
	}
	randSet := func() []bool {
		set := make([]bool, depths)
		for range rng.Intn(12) {
			lo := rng.Intn(depths)
			for m := lo; m <= min(depths-1, lo+rng.Intn(70)); m++ {
				set[m] = true
			}
		}
		return set
	}
	for iter := 0; iter < 3000; iter++ {
		a, b := randSet(), randSet()
		ar, br := toRuns(a), toRuns(b)
		for i, r := range ar {
			if r.lo > r.hi || (i > 0 && r.lo <= ar[i-1].hi+1) {
				t.Fatalf("appendRuns: %v is not sorted and coalesced", ar)
			}
		}
		if got := toRuns(windowSet(ar, depths)); !slices.Equal(got, ar) {
			t.Fatalf("appendRuns: %v does not round-trip (%v)", ar, got)
		}
		for m := range depths {
			if windowSet(ar, depths)[m] != a[m] {
				t.Fatalf("appendRuns: depth %d", m)
			}
		}

		s := int32(rng.Intn(3) - 1)
		clo := int32(rng.Intn(depths))
		chi := clo + int32(rng.Intn(depths-int(clo)))
		want := slices.Clone(a)
		meet := false
		for m := range depths {
			if d := int32(m) + s; b[m] && d >= clo && d <= chi {
				want[d] = true
			}
			meet = meet || a[m] && b[m]
		}
		in := slices.Clone(ar)
		for _, r := range br {
			if lo, hi := max(r.lo+s, clo), min(r.hi+s, chi); lo <= hi {
				in = append(in, span{lo, hi})
			}
		}
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		if got, want := coalesce(slices.Clone(in)), toRuns(want); !slices.Equal(got, want) {
			t.Fatalf("coalesce(%v) = %v, want %v", in, got, want)
		}
		if runsMeet(ar, br) != meet {
			t.Fatalf("runsMeet(%v, %v) = %v", ar, br, !meet)
		}

		wlo, nw := rng.Intn(3), 1+rng.Intn(3)
		lo := int32(rng.Intn(depths))
		hi := lo + int32(rng.Intn(150)) - 20
		fill, aw := make([]uint64, nw), make([]uint64, nw)
		fillRange(fill, wlo, lo, hi)
		hit := false
		for m := wlo * 64; m < (wlo+nw)*64; m++ {
			in := int32(m) >= lo && int32(m) <= hi
			if got := fill[m/64-wlo]&(1<<(m%64)) != 0; got != in {
				t.Fatalf("fillRange(window %d+%d, [%d, %d]): depth %d is %v", wlo, nw, lo, hi, m, got)
			}
			if a[m] {
				aw[m/64-wlo] |= 1 << (m % 64)
				hit = hit || in
			}
		}
		if anyInRange(aw, wlo, lo, hi) != hit {
			t.Fatalf("anyInRange(window %d+%d, [%d, %d]) = %v", wlo, nw, lo, hi, !hit)
		}
	}
}

// windowSet spells runs out as one bool per depth in [0, n).
func windowSet(rs []span, n int) []bool {
	set := make([]bool, n)
	for _, r := range rs {
		for m := r.lo; m <= r.hi; m++ {
			set[m] = true
		}
	}
	return set
}

// countRuns counts the destinations a runner is called on.
type countRuns struct {
	tstRunner
	n int
}

func (c *countRuns) run(vj graph.VertexID, out *bitmap.Bitset) {
	c.n++
	c.tstRunner.run(vj, out)
}

// siblingLifecycle is randomLifecycle's shape ending in a run that writes
// one output (other) and a run that writes four (sibs), so destinations
// drawn from the tail hold a class of several members beside a singleton;
// mid are two mid-history entities, imports the two imported ones.
type siblingLifecycle struct {
	p                  *prov.Graph
	mid, imports, sibs []graph.VertexID
	other              graph.VertexID
}

func newSiblingLifecycle(seed int64) siblingLifecycle {
	rng := rand.New(rand.NewSource(seed))
	rc := prov.NewRecorder()
	ents := []graph.VertexID{rc.Import("a", "data", ""), rc.Import("a", "model", "")}
	pick := func() []graph.VertexID {
		ins := make([]graph.VertexID, 1+rng.Intn(3))
		for j := range ins {
			ins[j] = ents[rng.Intn(len(ents))]
		}
		return ins
	}
	for i := 0; i < 30; i++ {
		_, out := rc.Run("a", fmt.Sprintf("cmd%d", rng.Intn(3)), pick(), []string{"o1", "o2"}[:1+rng.Intn(2)])
		ents = append(ents, out...)
	}
	mid := len(ents) / 2
	_, other := rc.Run("a", "other", pick(), []string{"other"})
	_, sibs := rc.Run("a", "last", append(pick(), ents[len(ents)-1]), []string{"s1", "s2", "s3", "s4"})
	return siblingLifecycle{p: rc.P, mid: ents[mid : mid+2], imports: ents[:2], sibs: sibs, other: other[0]}
}

// TestTstClassesAgree holds the one-run-per-class grouping to the
// per-destination runs (runnersAgree: every runner, grouped and not, on both
// row layouts, and SimProvAlg) where grouping has something to get wrong —
// siblings beside an unrelated destination, repeated ids, a sibling that is
// also a source, imported destinations with empty generator rows, every row
// emptied by excluding G, and an edge filter that splits a class — and pins
// the number of runs the dispatched runner makes.
func TestTstClassesAgree(t *testing.T) {
	joined := 0 // the last sibling (never a representative) in VC2
	for seed := int64(1); seed <= 6; seed++ {
		lc := newSiblingLifecycle(seed)
		sibs, other := lc.sibs, lc.other
		var sib1Gen graph.EdgeID
		for e := graph.EdgeID(0); int(e) < lc.p.NumEdges(); e++ {
			if lc.p.PG().Src(e) == sibs[1] && lc.p.RelOf(e) == prov.RelGen {
				sib1Gen = e
			}
		}
		withSrc := []graph.VertexID{lc.mid[0], sibs[1]}
		cases := []struct {
			name string
			q    Query
			runs int
		}{
			{"sibs=2+other", Query{Src: lc.mid, Dst: []graph.VertexID{sibs[0], sibs[1], other}}, 2},
			{"sibs=3+other", Query{Src: lc.mid, Dst: []graph.VertexID{other, sibs[2], sibs[0], sibs[1]}}, 2},
			{"sibs=4+other", Query{Src: lc.mid, Dst: append([]graph.VertexID{other}, sibs...)}, 2},
			{"duplicates", Query{Src: lc.mid, Dst: []graph.VertexID{sibs[0], other, sibs[0], sibs[1], other}}, 2},
			{"sibling-is-source", Query{Src: withSrc, Dst: sibs[:3]}, 2},
			{"imports", Query{Src: lc.mid, Dst: append([]graph.VertexID{sibs[0]}, lc.imports...)}, 2},
			{"exclude-G", Query{Src: []graph.VertexID{lc.mid[0], sibs[0]}, Dst: append(append([]graph.VertexID{other}, sibs...), lc.imports...),
				Boundary: Boundary{ExcludeRels: []prov.Rel{prov.RelGen}}}, 2},
			{"edge-filter-split", Query{Src: lc.mid, Dst: sibs[:3],
				Boundary: Boundary{EdgeFilters: []EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e != sib1Gen }}}}, 2},
		}
		for _, tc := range cases {
			label := fmt.Sprintf("seed=%d/%s", seed, tc.name)
			got := runnersAgree(t, label, lc.p, tc.q, Options{})
			runnersAgree(t, label+"/noearlystop", lc.p, tc.q, Options{NoEarlyStop: true})
			if got[uint32(sibs[3])] {
				joined++
			}
			switch tc.name {
			case "exclude-G":
				if len(got) != 1 || !got[uint32(sibs[0])] {
					t.Errorf("%s: VC2 = %v, want just the source-destination %d", label, got, sibs[0])
				}
			case "edge-filter-split":
				if got[uint32(sibs[1])] {
					t.Errorf("%s: %d, cut from its generator, is in VC2", label, sibs[1])
				}
			}
			for _, g := range Layouts(lc.p) {
				e, ad, src := NewEngine(g, Options{}), newAdjacency(g, tc.q.Boundary), dedupVertices(tc.q.Src)
				c := &countRuns{tstRunner: e.sweep(ad, src)}
				e.runSimProvTst(c, src, tc.q.Dst, ad)
				if c.n != tc.runs {
					t.Errorf("%s/%s: %d runs, want %d", label, LayoutName(g), c.n, tc.runs)
				}
			}
		}
	}
	if joined == 0 {
		t.Fatal("no class member ever joined VC2 through its representative's run")
	}

	// A representative already in VC2 before its own run: x, a destination
	// that is also a source (so it runs first), reaches the source e0 at
	// level 2 through s1's sibling branch, which puts s1 in x's VC2; s1's own
	// run reaches no source, so s2 must stay out.
	rc := prov.NewRecorder()
	e0, seed := rc.Import("a", "src0", ""), rc.Import("a", "seed", "")
	_, sib := rc.Run("a", "fork", []graph.VertexID{seed}, []string{"s1", "s2"})
	_, side := rc.Run("a", "side", []graph.VertexID{e0}, []string{"side"})
	_, x := rc.Run("a", "join", []graph.VertexID{sib[0], side[0]}, []string{"x"})
	q := Query{Src: []graph.VertexID{e0, x[0]}, Dst: []graph.VertexID{sib[1], x[0], sib[0]}}
	if got := runnersAgree(t, "rep-already-in", rc.P, q, Options{}); !got[uint32(sib[0])] || got[uint32(sib[1])] {
		t.Errorf("rep-already-in: VC2 = %v, want s1 (%d) in and s2 (%d) out", got, sib[0], sib[1])
	}
}

// TestVecSolverRegimeChoice pins the dispatcher: a property-match query goes
// to SimProvAlg, and every other SimProvTst query is the sweep, one task per
// destination class, on every DAG — whatever the row layout, the
// boundary, the graph's size or NoEarlyStop. What the graph decides is only
// the order of being both solvers walk: the id on an id-monotone graph, a
// topological rank elsewhere, and on an ancestry cycle none, so the query is
// refused with ErrNotDAG.
func TestVecSolverRegimeChoice(t *testing.T) {
	const alg, sweep = "SimProvAlg", "sweep"
	mono, _, _ := smallLifecycle(3)
	big, _ := randomLifecycle(1, 2000) // ~6000 ancestry edges
	nonMono, _ := nonMonotone(t)
	cyclic, _ := ancestryCycle()
	chain := func(p *prov.Graph) *prov.Graph { return Layouts(p)[1] }
	filtered := Boundary{
		VertexFilters: []VertexFilter{func(*prov.Graph, graph.VertexID) bool { return true }},
		EdgeFilters:   []EdgeFilter{func(*prov.Graph, graph.EdgeID) bool { return true }},
	}
	cases := []struct {
		name string
		p    *prov.Graph
		b    Boundary
		opts Options
		want string
	}{
		{"monotone/chain/small", chain(mono), Boundary{}, Options{}, sweep + "/id"},
		{"monotone/frozen/small", mono.Freeze(), Boundary{}, Options{}, sweep + "/id"},
		{"monotone/chain/big", chain(big), Boundary{}, Options{}, sweep + "/id"},
		{"monotone/frozen/big", big.Freeze(), Boundary{}, Options{}, sweep + "/id"},
		{"monotone/frozen/filtered", mono.Freeze(), filtered, Options{}, sweep + "/id"},
		{"monotone/noearlystop", mono.Freeze(), Boundary{}, Options{NoEarlyStop: true}, sweep + "/id"},
		{"nonmonotone/frozen", nonMono.Freeze(), Boundary{}, Options{}, sweep + "/rank"},
		{"nonmonotone/frozen/filtered", nonMono.Freeze(), filtered, Options{}, sweep + "/rank"},
		{"nonmonotone/chain", chain(nonMono), Boundary{}, Options{}, sweep + "/rank"},
		{"nonmonotone/noearlystop", nonMono.Freeze(), Boundary{}, Options{NoEarlyStop: true}, sweep + "/rank"},
		{"match-activity/monotone", mono.Freeze(), Boundary{}, Options{MatchActivityProp: prov.PropCommand}, alg + "/id"},
		{"match-entity/monotone", chain(mono), Boundary{}, Options{MatchEntityProp: prov.PropName}, alg + "/id"},
		{"match-both/filtered", mono.Freeze(), filtered, Options{MatchActivityProp: prov.PropCommand, MatchEntityProp: prov.PropName}, alg + "/id"},
		{"match-activity/nonmonotone", chain(nonMono), Boundary{}, Options{MatchActivityProp: prov.PropCommand}, alg + "/rank"},
		{"cycle/chain", chain(cyclic), Boundary{}, Options{}, "not a DAG"},
		{"cycle/frozen/alg", cyclic.Freeze(), Boundary{}, Options{Solver: SolverAlg}, "not a DAG"},
	}
	for _, tc := range cases {
		e := NewEngine(tc.p, tc.opts)
		tasks, err := e.newSegTasks(Query{}, newAdjacency(tc.p, tc.b), false)
		var got string
		switch {
		case err != nil:
			if !errors.Is(err, ErrNotDAG) {
				t.Errorf("%s: error %v is not ErrNotDAG", tc.name, err)
			}
			got = "not a DAG"
		case tasks.classes != nil:
			tstClassPool.Put(tasks.classes)
			got = sweep
		default:
			got = e.vc2Solver().String()
		}
		if err == nil && tasks.rank.IsID() {
			got += "/id"
		} else if err == nil {
			got += "/rank"
		}
		if got != tc.want {
			t.Errorf("%s: solver %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestVecSolverExcludedBlocksNotRead pins the block-skipping contract: a
// boundary excluding a relation must keep every runner, SimProvAlg and a
// property-match query from ever reading a row of that relation's CSR block.
func TestVecSolverExcludedBlocksNotRead(t *testing.T) {
	p, src, dst := smallLifecycle(4)
	fz := p.Freeze()
	q := Query{Src: src, Dst: dst, Boundary: Boundary{ExcludeRels: []prov.Rel{prov.RelGen}}}
	e := NewEngine(fz, Options{})
	runs := map[string]func(ad *adjacency){
		"sweep":  func(ad *adjacency) { runTst(fz, e.sweep(ad, src), q, ad) },
		"levels": func(ad *adjacency) { runTst(fz, e.newTstLevels(ad, src), q, ad) },
		"alg": func(ad *adjacency) {
			if _, err := NewEngine(fz, Options{Solver: SolverAlg}).similarPathVertices(q, ad); err != nil {
				t.Fatal(err)
			}
		},
		"match": func(ad *adjacency) {
			if _, err := NewEngine(fz, Options{MatchActivityProp: prov.PropCommand}).similarPathVertices(q, ad); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range runs {
		ad := newAdjacency(fz, q.Boundary)
		run(ad)
		if ad.rows[prov.RelGen] != [2]int{} {
			t.Errorf("%s: excluded G block was read (%v rows in, out)", name, ad.rows[prov.RelGen])
		}
	}
}

// TestVecAlgFactBudget: SimProvAlg honors MaxFacts on either row layout.
func TestVecAlgFactBudget(t *testing.T) {
	p, src, dst := smallLifecycle(5)
	for _, g := range Layouts(p) {
		opts := Options{Solver: SolverAlg, MaxFacts: 2}
		_, err := NewEngine(g, opts).SimilarPaths(Query{Src: src, Dst: dst})
		if !errors.Is(err, cflr.ErrFactBudget) {
			t.Fatalf("%s: want ErrFactBudget, got %v", LayoutName(g), err)
		}
	}
}

// TestVecSolverSegmentParity diffs whole segments (vertices, edges, rule
// attribution) across the two row layouts and the two solvers.
func TestVecSolverSegmentParity(t *testing.T) {
	p, src, dst := smallLifecycle(6)
	q := Query{Src: src, Dst: dst}
	ref, err := NewEngine(p.Freeze(), Options{}).Segment(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range Layouts(p) {
		for _, solver := range []SolverKind{SolverTst, SolverAlg} {
			label := fmt.Sprintf("%s/%v", LayoutName(g), solver)
			got, err := NewEngine(g, Options{Solver: solver}).Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ref.VertexRuns, got.VertexRuns) {
				t.Fatalf("%s: vertices %v, want %v", label, got.VertexRuns, ref.VertexRuns)
			}
			if !slices.Equal(ref.EdgeRuns, got.EdgeRuns) {
				t.Fatalf("%s: edges %v, want %v", label, got.EdgeRuns, ref.EdgeRuns)
			}
			if fmt.Sprint(ref.Rules) != fmt.Sprint(got.Rules) {
				t.Fatalf("%s: rules %v, want %v", label, got.Rules, ref.Rules)
			}
		}
	}
}

// TestBitvecOps covers the windowed word-parallel primitives directly: a
// window is a sub-slice of one bit vector plus the word it starts at.
func TestBitvecOps(t *testing.T) {
	get := func(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
	b := make([]uint64, 4)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b[i/64] |= 1 << (i % 64)
	}
	// Shift-left-by-1 into a fresh vector, same window.
	dst := make([]uint64, 4)
	orShl1Into(dst, 0, b, 0)
	for _, i := range []int{1, 2, 64, 65, 66, 128, 129, 200} {
		if !get(dst, i) {
			t.Fatalf("orShl1Into missing bit %d", i)
		}
	}
	if get(dst, 0) {
		t.Fatal("shift created bit 0")
	}
	// Shift-right-by-1 undoes it (bit 0 of the source is dropped).
	back := make([]uint64, 4)
	orShr1Into(back, 0, dst, 0)
	for i := range b {
		if back[i] != b[i] {
			t.Fatalf("orShr1Into word %d: %x, want %x", i, back[i], b[i])
		}
	}
	// A source window that starts later and ends earlier than the
	// destination's: words 1-2 of b into a window over words 0-3.
	wide := make([]uint64, 4)
	orShl1Into(wide, 0, b[1:3], 1)
	if fmt.Sprint(wide) != fmt.Sprint([]uint64{0, dst[1] &^ 1, dst[2], 0}) {
		t.Fatalf("orShl1Into from an inner window: %x", wide)
	}
	// A destination window that starts one word later (the source's lowest
	// bit is 63) and ends before the carry out of the source: clipped.
	late := make([]uint64, 1)
	orShl1Into(late, 1, b[:1], 0)
	if late[0] != 1 {
		t.Fatalf("orShl1Into across the window start: %x", late[0])
	}
	orShl1Into(late[:0], 1, b, 0) // empty destination: nothing to write
	clipped := make([]uint64, 2)
	orShl1Into(clipped, 0, b[:2], 0) // bit 127 shifts to 128: dropped
	if clipped[0] != dst[0] || clipped[1] != dst[1] {
		t.Fatalf("orShl1Into clipped at the window end: %x", clipped)
	}
	// Shift-right reads the word past the destination's end when the source
	// window has it, and zero when it has not.
	narrow := make([]uint64, 1)
	orShr1Into(narrow, 0, b, 0)
	if !get(narrow, 0) || !get(narrow, 62) || !get(narrow, 63) || get(narrow, 1) {
		t.Fatalf("orShr1Into into a narrower window: %x", narrow[0])
	}
	narrow[0] = 0
	orShr1Into(narrow, 0, b[:1], 0)
	if !get(narrow, 0) || !get(narrow, 62) || get(narrow, 63) {
		t.Fatalf("orShr1Into with the next word outside the source: %x", narrow[0])
	}
	// A source window that starts one word after the destination's: only its
	// bit 0 crosses back.
	narrow[0] = 0
	orShr1Into(narrow, 0, b[1:], 1)
	if narrow[0] != 1<<63 {
		t.Fatalf("orShr1Into across the window start: %x", narrow[0])
	}
	full, mid := make([]uint64, 4), make([]uint64, 2)
	orShr1Into(full, 0, b, 0)
	orShr1Into(mid, 1, b, 0) // destination words 1-2 of a 4-word source
	if mid[0] != full[1] || mid[1] != full[2] || full[1] != 0xc000000000000001 {
		t.Fatalf("orShr1Into into an inner window: %x", mid)
	}
	acc := make([]uint64, 4)
	acc[0] = 1 << 7
	orInto(acc, b)
	if !get(acc, 7) || !get(acc, 199) {
		t.Fatal("orInto lost bits")
	}
	// Intersections.
	c := make([]uint64, 4)
	c[1] = 1 << 1
	if !intersects(b, c) {
		t.Fatal("intersects false negative")
	}
	c[1] = 1 << 2
	if intersects(b, c) {
		t.Fatal("intersects false positive")
	}
}

// TestAncestryMonotone: Pd-style ingestion is monotone; a hand-built
// violation is detected, live and frozen; and the answer a frozen snapshot
// memoizes is carried through ExtendFrozen at delta cost — a monotone
// snapshot extended by one out-of-order U edge flips to false, and its order
// of being then stops being the id, while SimProvTst stays the sweep and
// matches the level-synchronous oracle there.
func TestAncestryMonotone(t *testing.T) {
	p, src, _ := smallLifecycle(3)
	if !p.AncestryMonotone() || !p.Freeze().AncestryMonotone() {
		t.Fatal("recorder-built graph should be monotone")
	}
	// Build a graph where an activity uses a LATER entity (allowed by the
	// store, but temporally inconsistent).
	q := prov.New()
	a := q.NewActivity("act")
	e := q.NewEntity("late")
	q.Used(a, e) // a (id 0) -> e (id 1): src <= dst, violates monotonicity
	if q.AncestryMonotone() || q.Freeze().AncestryMonotone() {
		t.Fatal("violation not detected")
	}

	base := p.Freeze()
	if rank, ok := base.OrderOfBeing(); !ok || !rank.IsID() {
		t.Fatalf("monotone snapshot: order of being ok=%v id=%v", ok, rank.IsID())
	}
	// An in-order delta keeps the answer without a rescan being observable;
	// an S edge pointing "up" is not an ancestry edge and does not count.
	more := p.NewActivity("more")
	p.Used(more, src[0])
	x := p.NewEntity("x")
	p.WasGeneratedBy(x, more)
	p.WasAttributedTo(x, p.NewAgent("late-agent"))
	next, incr := p.ExtendFrozen(base)
	if !incr || !next.AncestryMonotone() {
		t.Fatalf("in-order delta: incremental=%v monotone=%v", incr, next.AncestryMonotone())
	}
	act := p.NewActivity("early")
	ent := p.NewEntity("later")
	p.Used(act, ent)
	p.WasGeneratedBy(p.NewEntity("out"), act)
	bad, incr := p.ExtendFrozen(next)
	if !incr || bad.AncestryMonotone() || p.AncestryMonotone() {
		t.Fatalf("out-of-order U edge: incremental=%v, snapshot monotone=%v, live monotone=%v", incr, bad.AncestryMonotone(), p.AncestryMonotone())
	}
	if rank, ok := bad.OrderOfBeing(); !ok || rank.IsID() {
		t.Fatalf("non-monotone extension: order of being ok=%v id=%v", ok, rank.IsID())
	}
	ents := bad.Entities()
	if got := runnersAgree(t, "non-monotone extension", p, Query{Src: src, Dst: ents[len(ents)-3:]}, Options{}); len(got) == 0 {
		t.Fatal("non-monotone extension: empty VC2")
	}
	// Non-monotone stays non-monotone however in-order the later deltas are.
	p.Used(p.NewActivity("again"), x)
	if worse, incr := p.ExtendFrozen(bad); !incr || worse.AncestryMonotone() {
		t.Fatalf("extension of a non-monotone snapshot: incremental=%v monotone=%v", incr, worse.AncestryMonotone())
	}
	if !next.AncestryMonotone() {
		t.Fatal("the earlier snapshot's answer changed")
	}
}

// ancestryCycle is a 2-vertex U/G cycle, a -U-> e -G-> a: not a provenance
// DAG (Validate refuses it), but a NewStore over an unvalidated graph holds
// one.
func ancestryCycle() (*prov.Graph, Query) {
	p := prov.New()
	a := p.NewActivity("a")
	e := p.NewEntity("e")
	p.Used(a, e)
	p.WasGeneratedBy(e, a)
	return p, Query{Src: []graph.VertexID{e}, Dst: []graph.VertexID{e}}
}

// TestSegmentRefusesAncestryCycle: a U/G cycle has no order of being, so
// Segment and SimilarPaths refuse it with ErrNotDAG under every solver, on
// both row layouts, before any solve.
func TestSegmentRefusesAncestryCycle(t *testing.T) {
	p, q := ancestryCycle()
	for _, g := range Layouts(p) {
		for _, opts := range []Options{{}, {Solver: SolverAlg}, {Solver: SolverCflrB}, {MatchActivityProp: prov.PropCommand}} {
			e := NewEngine(g, opts)
			if _, err := e.Segment(q); !errors.Is(err, ErrNotDAG) {
				t.Errorf("%s/%v: Segment error %v, want ErrNotDAG", LayoutName(g), opts.Solver, err)
			}
			if _, err := e.SimilarPaths(q); !errors.Is(err, ErrNotDAG) {
				t.Errorf("%s/%v: SimilarPaths error %v, want ErrNotDAG", LayoutName(g), opts.Solver, err)
			}
		}
	}
}
