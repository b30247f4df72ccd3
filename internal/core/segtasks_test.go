package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cflr"
	"repro/internal/graph"
	"repro/internal/prov"
)

// TestSegmentOverlapMatchesSerial holds Segment's fork-join to SegmentStages,
// which runs every stage in turn on the caller: the segments must be
// reflect.DeepEqual (vertices, edges, Rules, the vertex set and Support()),
// and an error must be the same error. The inputs reach the SimProvTst sweep
// (on the id and on a topological rank), SimProvAlg and a property-match
// query (solved by SimProvAlg), on both row layouts (Layouts), with
// destination sets of several classes, a destination that is also a source,
// repeated ids, vertex and edge filters, excluded relations and expansions.
// Run it under -cpu 1,2 and -race: at one proc Segment has one worker, at two
// the class runs and the closures overlap.
func TestSegmentOverlapMatchesSerial(t *testing.T) {
	multiClass := 0
	for seed := int64(1); seed <= 4; seed++ {
		lc := newSiblingLifecycle(seed)
		// An activity that consumes an entity newer than itself: the graph
		// stops being id-monotone and the sweep walks a topological rank.
		nonMono := newSiblingLifecycle(seed).p
		act := nonMono.Freeze().GeneratorsOf(lc.mid[0], nil)[0]
		nonMono.Used(act, nonMono.NewEntity("late"))
		if nonMono.AncestryMonotone() {
			t.Fatal("the late input left the graph id-monotone")
		}
		sibs, other := lc.sibs, lc.other
		dsts := map[string][]graph.VertexID{
			// other, the sibling class, an import (empty generator row) and a
			// source: four classes.
			"classes":   {other, sibs[0], sibs[1], lc.imports[0], lc.mid[0]},
			"repeated":  {sibs[2], other, sibs[2], lc.mid[1], sibs[0], other, lc.mid[1]},
			"one-class": sibs,
		}
		boundaries := map[string]Boundary{
			"plain":         {},
			"vertex-filter": {VertexFilters: []VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v%7 != 3 }}},
			"edge-filter":   {EdgeFilters: []EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%3 != 1 }}},
			"excl+expand": {ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAttr},
				Expansions: []Expansion{{Within: sibs[:2], K: 2}, {Within: lc.mid, K: 1}}},
		}
		engines := map[string]Options{
			"tst":   {},
			"match": {MatchActivityProp: prov.PropCommand},
			"alg":   {Solver: SolverAlg},
			"noes":  {Solver: SolverAlg, NoEarlyStop: true},
		}
		for gname, g := range map[string]*prov.Graph{"mono": lc.p, "nonmono": nonMono} {
			for _, rep := range Layouts(g) {
				for dname, dst := range dsts {
					for bname, b := range boundaries {
						for oname, opts := range engines {
							label := fmt.Sprintf("seed=%d/%s/%s/%s/%s/%s", seed, gname, LayoutName(rep), dname, bname, oname)
							q := Query{Src: lc.mid, Dst: dst, Boundary: b}
							overlapMatchesSerial(t, label, rep, q, opts)
							if dname == "classes" && oname == "tst" {
								e, ad := NewEngine(rep, opts), newAdjacency(rep, b)
								cl := e.tstClasses(dedupVertices(q.Src), q.Dst, ad)
								if cl.len() >= 3 {
									multiClass++
								}
								tstClassPool.Put(cl)
							}
						}
					}
				}
			}
		}
	}
	if multiClass == 0 {
		t.Fatal("no destination set formed three classes")
	}
	// A lifecycle large enough that the class runs and the closures outlast a
	// worker's wake-up, so at two procs the fork-join does overlap them.
	big, bq := randomLifecycle(7, 3000)
	bq.Dst = nil
	for v := graph.VertexID(big.NumVertices() - 1); len(bq.Dst) < 6; v-- {
		if big.IsKind(v, prov.KindEntity) {
			bq.Dst = append(bq.Dst, v)
		}
	}
	for _, rep := range Layouts(big) {
		overlapMatchesSerial(t, fmt.Sprintf("big/%s", LayoutName(rep)), rep, bq, Options{})
	}
	// A solver error surfaces from the fork-join as it does serially.
	p, src, dst := smallLifecycle(5)
	_, err := NewEngine(p.Freeze(), Options{Solver: SolverAlg, MaxFacts: 2}).Segment(Query{Src: src, Dst: dst})
	if !errors.Is(err, cflr.ErrFactBudget) {
		t.Fatalf("fact budget: got %v", err)
	}
}

// overlapMatchesSerial compares Segment with SegmentStages, then with the
// task list dealt out on this goroutine to two and three workers, last task
// first: which worker runs which task, and so which runner and share a class
// lands on, is up to the scheduler, and a small query can finish on the
// caller before a second worker wakes.
func overlapMatchesSerial(t *testing.T, label string, p *prov.Graph, q Query, opts Options) {
	t.Helper()
	e := NewEngine(p, opts)
	want, _, werr := SegmentStages(e, q)
	got, gerr := e.Segment(q)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: error %v, serial %v", label, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Segment differs from the serial stages (%d vs %d vertices, %d vs %d edges)",
			label, got.NumVertices(), want.NumVertices(), got.NumEdges(), want.NumEdges())
	}
	if werr != nil {
		return
	}
	for workers := 2; workers <= 3; workers++ {
		ad := newAdjacency(p, q.Boundary)
		tasks, err := e.newSegTasks(q, ad, true)
		if err != nil {
			t.Fatalf("%s/%d workers: %v", label, workers, err)
		}
		ws := make([]segWorker, workers)
		for i := range ws {
			ws[i].ad = *newAdjacency(p, q.Boundary)
		}
		for i := tasks.len() - 1; i >= 0; i-- {
			w := &ws[i%workers]
			tasks.do(w, &w.ad, i)
		}
		vc2, err := tasks.vc2(ws)
		if err != nil {
			t.Fatalf("%s/%d workers: %v", label, workers, err)
		}
		vc1, support := directPaths(tasks.fwd, tasks.bwd)
		if got := e.induce(q, ad, vc1, vc2, support); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d workers: segment differs from the serial stages", label, workers)
		}
	}
}

// TestSegmentWorkerPanicReachesCaller: a vertex filter that panics inside the
// two ancestry closure tasks (on vertices nothing else reads) must panic on
// the goroutine that called Segment — where net/http's per-handler recovery
// runs — and leave no worker behind. At two procs the two closures wait for
// each other before panicking, so one of the panics is raised on a worker.
func TestSegmentWorkerPanicReachesCaller(t *testing.T) {
	p := prov.New()
	src := p.NewEntity("src")
	fwdTrap := p.NewEntity("derived-from only") // reached by the forward closure alone
	act := p.NewActivity("run")
	side := p.NewActivity("side") // reached by the backward closure alone
	dst := p.NewEntity("dst")
	p.Used(act, src)
	p.Used(side, src)
	p.WasGeneratedBy(dst, act)
	p.WasGeneratedBy(p.NewEntity("side-out"), side)
	p.WasDerivedFrom(dst, fwdTrap)

	before := runtime.NumGoroutine()
	for _, g := range Layouts(p) {
		var arrived atomic.Int32
		filter := func(_ *prov.Graph, v graph.VertexID) bool {
			if v != fwdTrap && v != side {
				return true
			}
			arrived.Add(1)
			for deadline := time.Now().Add(time.Second); runtime.GOMAXPROCS(0) > 1 && arrived.Load() < 2 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			panic(fmt.Sprintf("trap %d", v))
		}
		q := Query{Src: []graph.VertexID{src}, Dst: []graph.VertexID{dst},
			Boundary: Boundary{VertexFilters: []VertexFilter{filter}}}
		got := func() (r any) {
			defer func() { r = recover() }()
			NewEngine(g, Options{}).Segment(q)
			return nil
		}()
		if got != fmt.Sprintf("trap %d", fwdTrap) && got != fmt.Sprintf("trap %d", side) {
			t.Fatalf("%s: recovered %v, want a trap's panic", LayoutName(g), got)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panics, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
