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

// runTst drives one runner over the query's destinations the way
// runSimProvTst does.
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
// on its frozen snapshot, then the dispatched SimProvTst and SimProvAlg, and
// requires one VC2 set from all of them. The class chain on the live graph
// is the reference. The sweep is only defined on id-monotone graphs.
func runnersAgree(t *testing.T, label string, live *prov.Graph, q Query, opts Options) map[uint32]bool {
	t.Helper()
	var ref map[uint32]bool
	for _, rep := range []struct {
		name string
		p    *prov.Graph
	}{{"live", live}, {"frozen", live.Freeze()}} {
		e := NewEngine(rep.p, opts)
		ad := newAdjacency(rep.p, q.Boundary)
		src := dedupVertices(q.Src)
		runners := map[string]tstRunner{
			"chain":  e.newTstChain(ad, src),
			"levels": e.newTstLevels(ad, src),
		}
		if e.ancestryMonotone() {
			runners["sweep"] = e.newTstSweep(ad, src)
		}
		if ref == nil {
			ref = runTst(rep.p, runners["chain"], q, ad)
		}
		for name, r := range runners {
			diffSets(t, fmt.Sprintf("%s/%s/%s", label, rep.name, name), ref, runTst(rep.p, r, q, ad))
		}
		solvers := []SolverKind{SolverTst, SolverAlg}
		if !e.ancestryMonotone() && !opts.NoEarlyStop {
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
	return ref
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
	if NewEngine(p, Options{}).ancestryMonotone() {
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

// TestBitvecOps covers the word-parallel primitives directly.
func TestBitvecOps(t *testing.T) {
	get := func(b bitvec, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
	b := make(bitvec, 4)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b.set(i)
		if !get(b, i) {
			t.Fatalf("set/get %d", i)
		}
	}
	if get(b, 2) || get(b, 130) {
		t.Fatal("phantom bits")
	}
	if b.maxBit() != 199 {
		t.Fatalf("maxBit %d", b.maxBit())
	}
	if (bitvec{0, 0}).maxBit() != -1 {
		t.Fatal("maxBit of empty vector")
	}
	// Shift-left-by-1 into a fresh vector.
	dst := make(bitvec, 4)
	orShift1Into(dst, b)
	for _, i := range []int{1, 2, 64, 65, 66, 128, 129, 200} {
		if !get(dst, i) {
			t.Fatalf("orShift1Into missing bit %d", i)
		}
	}
	if get(dst, 0) {
		t.Fatal("shift created bit 0")
	}
	// Shift-right-by-1 undoes it (bit 0 of the source is dropped).
	back := make(bitvec, 4)
	orShr1Into(back, dst)
	for i := range b {
		if back[i] != b[i] {
			t.Fatalf("orShr1Into word %d: %x, want %x", i, back[i], b[i])
		}
	}
	narrow := make(bitvec, 1)
	orShr1Into(narrow, b)
	if !get(narrow, 0) || !get(narrow, 62) || !get(narrow, 63) || get(narrow, 1) {
		t.Fatalf("orShr1Into into a narrower vector: %x", narrow[0])
	}
	acc := make(bitvec, 4)
	acc.set(7)
	orInto(acc, b)
	if !get(acc, 7) || !get(acc, 199) {
		t.Fatal("orInto lost bits")
	}
	// Intersections.
	c := make(bitvec, 4)
	c.set(65)
	if !b.intersects(c) {
		t.Fatal("intersects false negative")
	}
	c2 := make(bitvec, 4)
	c2.set(66)
	if b.intersects(c2) {
		t.Fatal("intersects false positive")
	}
}

// TestAncestryMonotone: Pd-style ingestion is monotone; a hand-built
// violation is detected.
func TestAncestryMonotone(t *testing.T) {
	p, _, _ := smallLifecycle(3)
	eng := NewEngine(p, Options{})
	if !eng.ancestryMonotone() {
		t.Fatal("recorder-built graph should be monotone")
	}
	// Build a graph where an activity uses a LATER entity (allowed by the
	// store, but temporally inconsistent).
	q := prov.New()
	a := q.NewActivity("act")
	e := q.NewEntity("late")
	q.Used(a, e) // a (id 0) -> e (id 1): src <= dst, violates monotonicity
	eng2 := NewEngine(q, Options{})
	if eng2.ancestryMonotone() {
		t.Fatal("violation not detected")
	}
}
