package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/cflr"
	"repro/internal/graph"
	"repro/internal/prov"
)

// White-box coverage of the three SimProvTst runners (class chain, sweep,
// level-synchronous): called directly on the same label-only queries they
// must produce identical VC2 sets — on live and frozen graphs, under
// excluded relations, programmatic filters, disabled early stopping and
// non-monotone ingestion — and equal SimProvAlg's; the dispatcher must hand
// each input class the runner the query and graph dictate. ("Vec" in some
// test names dates from when the sweep and level-synchronous runners sat
// behind an option; the names are what the test floor tracks.)

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

// runnersAgree runs every applicable runner directly on the live graph and
// on its frozen snapshot — once per destination (runTst) and once per
// destination class (runSimProvTst) — then the dispatched SimProvTst and
// SimProvAlg, and requires one VC2 set from all of them. The class chain on
// the live graph, run per destination, is the reference. The sweep is only
// defined on id-monotone graphs; where it runs, its depth slab is also
// checked against pass 0's windows.
func runnersAgree(t *testing.T, label string, live *prov.Graph, q Query, opts Options) map[uint32]bool {
	t.Helper()
	ref, _ := runnersAgreeOn(t, label, live, q, opts, false)
	return ref
}

// runnersAgreeOn is runnersAgree; deep marks inputs hundreds of levels deep,
// where the class chain and SimProvAlg take seconds to minutes: they are left
// out and the level-synchronous runner on the live graph is the reference.
func runnersAgreeOn(t *testing.T, label string, live *prov.Graph, q Query, opts Options, deep bool) (map[uint32]bool, sweepWindows) {
	t.Helper()
	var ref map[uint32]bool
	var seen sweepWindows
	for _, rep := range []struct {
		name string
		p    *prov.Graph
	}{{"live", live}, {"frozen", live.Freeze()}} {
		e := NewEngine(rep.p, opts)
		ad := newAdjacency(rep.p, q.Boundary)
		src := dedupVertices(q.Src)
		runners := map[string]tstRunner{"levels": e.newTstLevels(ad, src)}
		refName := "levels"
		if !deep {
			runners["chain"], refName = e.newTstChain(ad, src), "chain"
		}
		if rep.p.AncestryMonotone() {
			sw := e.newTstSweep(ad, src)
			runners["sweep"] = sw
			seen = checkSweepWindows(t, fmt.Sprintf("%s/%s", label, rep.name), sw, q, ad)
		}
		if ref == nil {
			ref = runTst(rep.p, runners[refName], q, ad)
			diffSets(t, fmt.Sprintf("%s/%s/%s/classes", label, rep.name, refName), ref, bitsetMap(e.runSimProvTst(runners[refName], src, q.Dst, ad)))
			delete(runners, refName)
		}
		for name, r := range runners {
			diffSets(t, fmt.Sprintf("%s/%s/%s", label, rep.name, name), ref, runTst(rep.p, r, q, ad))
			diffSets(t, fmt.Sprintf("%s/%s/%s/classes", label, rep.name, name), ref, bitsetMap(e.runSimProvTst(r, src, q.Dst, ad)))
		}
		solvers := []SolverKind{SolverTst, SolverAlg}
		if deep || (!rep.p.AncestryMonotone() && !opts.NoEarlyStop) {
			// SimProvAlg's early stop drops a pair by the order-of-being of
			// its two sides alone, which is only sound when ancestry
			// descends in order; SimProvTst also looks at the level the
			// pair leads to. They are only comparable without it here.
			solvers = solvers[:1]
		}
		for _, solver := range solvers {
			o := opts
			o.Solver = solver
			set, err := NewEngine(rep.p, o).SimilarPaths(q)
			if err != nil {
				t.Fatalf("%s/%s/%v: %v", label, rep.name, solver, err)
			}
			diffSets(t, fmt.Sprintf("%s/%s/%v", label, rep.name, solver), ref, bitsetMap(set))
		}
	}
	return ref, seen
}

// sweepWindows is what checkSweepWindows saw, so a test can demand that its
// input did exercise the offset arithmetic.
type sweepWindows struct {
	maxM      int32 // largest answer ceiling over the destinations
	maxWords  int   // widest window, in words
	offsetRow int   // ancestry edges whose two windows start in different words
	dropped   int   // reached vertices with lo > maxM
}

// checkSweepWindows runs pass 0 and the depth sweep per destination on a
// fresh scratch and holds the slab to pass 0's promise: D(v) has no bit
// outside [lo(v), hi(v)], bit lo(v) is set, and so is bit hi(v) unless the
// answer ceiling clipped it. A destination that reaches no source must leave
// the slabs unallocated.
func checkSweepWindows(t *testing.T, label string, st *tstSweepState, q Query, ad *adjacency) sweepWindows {
	t.Helper()
	var seen sweepWindows
	for _, vj := range dedupVertices(q.Dst) {
		if !ad.vertexOK(vj) {
			continue
		}
		sc := new(tstSweepScratch)
		maxM := st.depths(sc, vj)
		if maxM < 0 {
			if sc.d != nil || sc.t != nil || sc.ans != nil {
				t.Errorf("%s: vj=%d reaches no source but the slabs were allocated", label, vj)
			}
			continue
		}
		seen.maxM = max(seen.maxM, maxM)
		for i, v := range sc.order {
			w := sc.win[v]
			if w.off < 0 {
				if w.lo <= maxM {
					t.Fatalf("%s: vj=%d v=%d dropped with lo=%d <= maxM=%d", label, vj, v, w.lo, maxM)
				}
				seen.dropped++
				continue
			}
			lo, nw := w.words(maxM)
			seen.maxWords = max(seen.maxWords, nw)
			for _, u := range sc.row(i) {
				if x := sc.win[u]; x.off >= 0 && int(x.lo)>>6 != lo {
					seen.offsetRow++
				}
			}
			get := func(m int32) bool { return sc.d[w.off+int(m)>>6-lo]&(1<<(m&63)) != 0 }
			for m := int32(lo) << 6; m < int32(lo+nw)<<6; m++ {
				if get(m) && (m < w.lo || m > w.hi) {
					t.Fatalf("%s: vj=%d v=%d: depth bit %d outside [%d, %d]", label, vj, v, m, w.lo, w.hi)
				}
			}
			if !get(w.lo) || (w.hi <= maxM && !get(w.hi)) {
				t.Fatalf("%s: vj=%d v=%d: window [%d, %d] (maxM %d) has an end bit clear", label, vj, v, w.lo, w.hi, maxM)
			}
		}
	}
	return seen
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
// inputs, so Used edges point old -> new and the sweep does not apply.
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

// TestTstImplementationsAgreeNoEarlyStop repeats without the depth cap.
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

// TestVecSolversNonMonotone: out-of-order ingestion bars the sweep, and the
// level-synchronous runner must stay exact against the class chain — plain,
// filtered, live and frozen.
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
			got, seen := runnersAgreeOn(t, label, p, q, opts, k > 128)
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
// without touching a slab — checkSweepWindows asserts the latter — alone and
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
// per-destination runs (runnersAgree: every runner, grouped and not, live
// and frozen, and SimProvAlg) where grouping has something to get wrong —
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
		for _, e := range lc.p.PG().Out(sibs[1]) {
			if lc.p.RelOf(e) == prov.RelGen {
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
			for _, g := range []*prov.Graph{lc.p, lc.p.Freeze()} {
				e, ad, src := NewEngine(g, Options{}), newAdjacency(g, tc.q.Boundary), dedupVertices(tc.q.Src)
				c := &countRuns{tstRunner: e.newTstRunner(ad, src)}
				e.runSimProvTst(c, src, tc.q.Dst, ad)
				if c.n != tc.runs {
					t.Errorf("%s/frozen=%v: %d runs, want %d", label, g.Frozen(), c.n, tc.runs)
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

// TestVecSolverRegimeChoice pins the dispatcher: the runner is a function of
// (property-match constraint?, ancestryMonotone()) and of nothing else —
// not the representation, not the boundary, not the graph's size.
func TestVecSolverRegimeChoice(t *testing.T) {
	const chain, sweep, levels = "*core.tstChainState", "*core.tstSweepState", "*core.tstLevelsState"
	mono, _, _ := smallLifecycle(3)
	big, _ := randomLifecycle(1, 2000) // ~6000 ancestry edges
	nonMono, _ := nonMonotone(t)
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
		{"monotone/live/small", mono, Boundary{}, Options{}, sweep},
		{"monotone/frozen/small", mono.Freeze(), Boundary{}, Options{}, sweep},
		{"monotone/live/big", big, Boundary{}, Options{}, sweep},
		{"monotone/frozen/big", big.Freeze(), Boundary{}, Options{}, sweep},
		{"monotone/frozen/filtered", mono.Freeze(), filtered, Options{}, sweep},
		{"monotone/noearlystop", mono.Freeze(), Boundary{}, Options{NoEarlyStop: true}, sweep},
		{"nonmonotone/frozen", nonMono.Freeze(), Boundary{}, Options{}, levels},
		// These two fell to the class chain while the level-synchronous
		// runner required frozen rows and a plain boundary.
		{"nonmonotone/frozen/filtered", nonMono.Freeze(), filtered, Options{}, levels},
		{"nonmonotone/live", nonMono, Boundary{}, Options{}, levels},
		{"match-activity/monotone", mono.Freeze(), Boundary{}, Options{MatchActivityProp: prov.PropCommand}, chain},
		{"match-entity/monotone", mono, Boundary{}, Options{MatchEntityProp: prov.PropName}, chain},
		{"match-activity/nonmonotone", nonMono, Boundary{}, Options{MatchActivityProp: prov.PropCommand}, chain},
	}
	for _, tc := range cases {
		r := NewEngine(tc.p, tc.opts).newTstRunner(newAdjacency(tc.p, tc.b), nil)
		if got := fmt.Sprintf("%T", r); got != tc.want {
			t.Errorf("%s: runner %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestVecSolverExcludedBlocksNotRead pins the block-skipping contract: a
// boundary excluding a relation must keep every runner, and SimProvAlg, from
// ever reading a row of that relation's CSR block.
func TestVecSolverExcludedBlocksNotRead(t *testing.T) {
	p, src, dst := smallLifecycle(4)
	fz := p.Freeze()
	genLabel := fz.RelLabel(prov.RelGen)
	q := Query{Src: src, Dst: dst, Boundary: Boundary{ExcludeRels: []prov.Rel{prov.RelGen}}}
	e := NewEngine(fz, Options{})
	ad := newAdjacency(fz, q.Boundary)
	runs := map[string]func(){
		"chain":  func() { runTst(fz, e.newTstChain(ad, src), q, ad) },
		"sweep":  func() { runTst(fz, e.newTstSweep(ad, src), q, ad) },
		"levels": func() { runTst(fz, e.newTstLevels(ad, src), q, ad) },
		"alg": func() {
			if _, err := NewEngine(fz, Options{Solver: SolverAlg}).SimilarPaths(q); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range runs {
		sawGen := false
		restore := graph.SetRowReadHook(func(l graph.Label, out bool) {
			if l == genLabel {
				sawGen = true
			}
		})
		run()
		restore()
		if sawGen {
			t.Errorf("%s: excluded G block was read", name)
		}
	}
}

// TestVecAlgFactBudget: SimProvAlg honors MaxFacts on either representation.
func TestVecAlgFactBudget(t *testing.T) {
	p, src, dst := smallLifecycle(5)
	for _, g := range []*prov.Graph{p, p.Freeze()} {
		opts := Options{Solver: SolverAlg, MaxFacts: 2}
		_, err := NewEngine(g, opts).SimilarPaths(Query{Src: src, Dst: dst})
		if !errors.Is(err, cflr.ErrFactBudget) {
			t.Fatalf("frozen=%v: want ErrFactBudget, got %v", g.Frozen(), err)
		}
	}
}

// TestVecSolverSegmentParity diffs whole segments (vertices, edges, rule
// attribution) across the two representations and the two solvers.
func TestVecSolverSegmentParity(t *testing.T) {
	p, src, dst := smallLifecycle(6)
	q := Query{Src: src, Dst: dst}
	ref, err := NewEngine(p, Options{}).Segment(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*prov.Graph{p, p.Freeze()} {
		for _, solver := range []SolverKind{SolverTst, SolverAlg} {
			label := fmt.Sprintf("frozen=%v/%v", g.Frozen(), solver)
			got, err := NewEngine(g, Options{Solver: solver}).Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ref.Vertices) != fmt.Sprint(got.Vertices) {
				t.Fatalf("%s: vertices %v, want %v", label, got.Vertices, ref.Vertices)
			}
			if fmt.Sprint(ref.Edges) != fmt.Sprint(got.Edges) {
				t.Fatalf("%s: edges %v, want %v", label, got.Edges, ref.Edges)
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
// snapshot extended by one out-of-order U edge flips to false, and the
// dispatcher then picks the level-synchronous runner.
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

	runnerOf := func(g *prov.Graph) string {
		return fmt.Sprintf("%T", NewEngine(g, Options{}).newTstRunner(newAdjacency(g, Boundary{}), nil))
	}
	base := p.Freeze()
	if got := runnerOf(base); got != "*core.tstSweepState" {
		t.Fatalf("monotone snapshot: runner %s", got)
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
	bad, incr := p.ExtendFrozen(next)
	if !incr || bad.AncestryMonotone() || p.AncestryMonotone() {
		t.Fatalf("out-of-order U edge: incremental=%v, snapshot monotone=%v, live monotone=%v", incr, bad.AncestryMonotone(), p.AncestryMonotone())
	}
	if got := runnerOf(bad); got != "*core.tstLevelsState" {
		t.Fatalf("non-monotone extension: runner %s", got)
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
