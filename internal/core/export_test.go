package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// The oracles of oracle_test.go, exposed to the external tests
// (which can import gen without an import cycle).
var (
	DenseSummarize    = denseSummarize
	StringClassLabels = stringClassLabels
)

// ClassLabels returns classify's class of every occurrence, segment by
// segment.
func ClassLabels(segs []*Segment, opts SumOptions) []int {
	return newSumInput(segs, opts).labels
}

// DeepRunnersAgree is the white-box runner agreement of tstrunners_test.go in
// a deep mode: ref is "levels" (the level-synchronous runner as reference) or
// "words" (the all-words oracle alone), and the sweep is held to the oracle
// set by set. It returns |VC2|, the widest window seen in levels and the
// number of sets the sweep promoted.
func DeepRunnersAgree(t *testing.T, label string, live *prov.Graph, q Query, opts Options, ref string) (vc2, width, promoted int) {
	t.Helper()
	got, seen := runnersAgreeOn(t, label, live, q, opts, ref)
	return len(got), seen.maxWidth, seen.promoted
}

// DiamondChain is diamondChain (tstrunners_test.go): k diamonds whose
// branches differ by gap activity-steps, with its query.
func DiamondChain(k, gap int) (*prov.Graph, Query) { return diamondChain(k, gap) }

// PartialPromotion is partialPromotion (tstrunners_test.go) with its query.
func PartialPromotion(k, n int) (*prov.Graph, Query) { return partialPromotion(k, n) }

// SweepPromotions is the number of sets the sweep holds as word windows over
// q's destination classes.
func SweepPromotions(e *Engine, q Query) int {
	ad := newAdjacency(e.P, q.Boundary)
	src := dedupVertices(q.Src)
	st, sc, n := e.sweep(ad, src), new(tstSweepScratch), 0
	r := func(vj graph.VertexID, out *bitmap.Bitset) {
		if maxM := st.depths(sc, vj); maxM >= 0 {
			st.targets(sc, maxM, out)
		}
		n += sc.promoted
	}
	e.runSimProvTst(tstRunFunc(r), src, q.Dst, ad)
	return n
}

// tstRunFunc is a function that is a tstRunner.
type tstRunFunc func(graph.VertexID, *bitmap.Bitset)

func (f tstRunFunc) run(vj graph.VertexID, out *bitmap.Bitset) { f(vj, out) }

// SegmentWords is Segment with VC2 from the all-words oracle
// (words_oracle_test.go), each stage in turn on the caller: the reference a
// whole segment of the sweep is held to.
func SegmentWords(e *Engine, q Query) (*Segment, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	ad := newAdjacency(e.P, q.Boundary)
	vc1, support := directPaths(e.ancestryClosure(q.Dst, ad, true), e.ancestryClosure(q.Src, ad, false))
	src := dedupVertices(q.Src)
	return e.induce(q, ad, vc1, e.runSimProvTst(e.words(ad, src), src, q.Dst, ad), support), nil
}

// ClosureRows is AncestryClosure with the rows its walk fetched.
func ClosureRows(e *Engine, seeds []graph.VertexID, b Boundary, forward bool) (*bitmap.Bitset, RowCounts) {
	ad := newAdjacency(e.P, b)
	closure := e.ancestryClosure(seeds, ad, forward)
	return closure, ad.rows
}

// RandomLifecycle is randomLifecycle (tstrunners_test.go) with its query.
func RandomLifecycle(seed int64, runs int) (*prov.Graph, Query) { return randomLifecycle(seed, runs) }

// SiblingLifecycle is newSiblingLifecycle's graph, queried from its two
// mid-history entities to the singleton and the four-sibling class.
func SiblingLifecycle(seed int64) (*prov.Graph, Query) {
	lc := newSiblingLifecycle(seed)
	return lc.p, Query{Src: lc.mid, Dst: append([]graph.VertexID{lc.other}, lc.sibs...)}
}

// AlgNumFacts is the number of Ee and Aa facts SimProvAlg derives for q under
// e's options, on the graph's order of being.
func AlgNumFacts(e *Engine, q Query) (int, error) {
	rank, ok := e.P.OrderOfBeing()
	if !ok {
		return 0, errAncestryCycle
	}
	facts, err := e.runSimProvAlg(dedupVertices(q.Src), dedupVertices(q.Dst), newAdjacency(e.P, q.Boundary), rank)
	if err != nil {
		return 0, err
	}
	return facts.NumFacts(), nil
}

// ChainVC2 is VC2 by the class-chain oracle (chain_oracle_test.go) under e's
// options, the reference for property-match queries.
func ChainVC2(e *Engine, q Query) *bitmap.Bitset { return e.chainVC2(q) }

// TstClassRuns is SimilarPaths under SimProvTst with the sweep's calls
// counted: the number of destination classes runSimProvTst formed.
func TstClassRuns(e *Engine, q Query) (*bitmap.Bitset, int) {
	ad := newAdjacency(e.P, q.Boundary)
	src := dedupVertices(q.Src)
	c := &countRuns{tstRunner: e.sweep(ad, src)}
	return e.runSimProvTst(c, src, q.Dst, ad), c.n
}

// runSimProvTst is the VC2 class tasks run in order on one runner and one
// set: the serial form of Segment's SimProvTst work, with the runner the
// caller's (so a test can count or replace its calls).
func (e *Engine) runSimProvTst(r tstRunner, src, dst []graph.VertexID, ad *adjacency) *bitmap.Bitset {
	out := bitmap.NewBitset(e.P.NumVertices())
	cl := e.tstClasses(src, dst, ad)
	defer tstClassPool.Put(cl)
	for k := range cl.len() {
		cl.run(k, r.run, out)
	}
	return out
}

// SegStages are the stage clocks of one SegmentStages call.
type SegStages struct{ Closure, VC2, Induce time.Duration }

// SegmentStages is Segment with every stage run in turn on the caller and a
// clock around each: the two ancestry closures (VC1 and the support set's
// seed), the VC2 solve, and induce. It is the serial reference Segment's
// fork-join is held to; the benchmark checks its result against Segment's.
func SegmentStages(e *Engine, q Query) (*Segment, SegStages, error) {
	var st SegStages
	if err := e.validateQuery(q); err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	ad := newAdjacency(e.P, q.Boundary)
	vc1, support := directPaths(e.ancestryClosure(q.Dst, ad, true), e.ancestryClosure(q.Src, ad, false))
	t1 := time.Now()
	vc2, err := e.similarPathVertices(q, ad)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	seg := e.induce(q, ad, vc1, vc2, support)
	st = SegStages{Closure: t1.Sub(t0), VC2: t2.Sub(t1), Induce: time.Since(t2)}
	return seg, st, nil
}

// oracle_test.go stays byte for byte what it was when PgSum ran on
// per-node arc slices and an origEdge list. The names it uses from that data
// path are kept here, over the flat one: the dense graph type, g0 as the
// oracle reads it (edges collected from the segments independently of
// newInput, classes from the production classify) and the reach guard over a
// dense graph.

type sumGraph struct {
	label   []int
	out, in [][]halfArc
}

func (g *sumGraph) numNodes() int { return len(g.label) }

type origEdge struct {
	seg      int
	from, to int // occurrence indices
	rel      prov.Rel
}

type occRef struct {
	seg int
	v   graph.VertexID
}

type oracleInput struct {
	labels  []int
	occs    []occRef
	edges   []origEdge
	classNm map[int]string
}

func newSumInput(segs []*Segment, opts SumOptions) *oracleInput {
	sc := sumPool.Get().(*sumScratch)
	defer sc.release()
	g0, err := newInput(sc, segs, opts)
	if err != nil {
		panic(err)
	}
	in := &oracleInput{classNm: make(map[int]string)}
	for i, s := range segs {
		base, idx := len(in.occs), make(map[graph.VertexID]int, len(s.Vertices))
		for j, v := range s.Vertices {
			idx[v] = base + j
			cl := int(g0.g.label[base+j])
			in.occs, in.labels = append(in.occs, occRef{seg: i, v: v}), append(in.labels, cl)
			in.classNm[cl] = g0.names[cl]
		}
		g := s.P.PG()
		for _, e := range s.Edges {
			in.edges = append(in.edges, origEdge{seg: i, from: idx[g.Src(e)], to: idx[g.Dst(e)], rel: s.P.RelOf(e)})
		}
	}
	return in
}

func baseColor(p *prov.Graph, v graph.VertexID, k Aggregation) string {
	return string(appendBaseColor(nil, p, v, k))
}

func newReachGuard(g *sumGraph) *reachGuard {
	var edges [][3]int
	for from, arcs := range g.out {
		for _, a := range arcs {
			edges = append(edges, [3]int{from, a.to, int(a.rel)})
		}
	}
	rg, err := newGuard(buildSum(g.label, edges))
	if err != nil {
		panic(err)
	}
	return rg
}

// buildSum creates a flatGraph, in an arena of its own, from an edge list
// with labels per node.
func buildSum(labels []int, edges [][3]int) *flatGraph {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = packEdge(int32(e[0]), uint8(e[2]), int32(e[1]))
	}
	label, numLabels := make([]int32, len(labels)), 0
	for v, l := range labels {
		label[v], numLabels = int32(l), max(numLabels, l+1)
	}
	g := newFlatGraph(new(arena), new(Work), len(labels), keys)
	g.setLabels(label, numLabels)
	return g
}

// denseOf spells a flatGraph out as the oracle's graph type.
func denseOf(g *flatGraph) *sumGraph {
	n := g.numNodes()
	d := &sumGraph{label: make([]int, n), out: make([][]halfArc, n), in: make([][]halfArc, n)}
	for v := range d.label {
		d.label[v] = int(g.label[v])
		for _, a := range g.out.of(int32(v)) {
			d.out[v] = append(d.out[v], halfArc{to: int(arcFar(a)), rel: arcRel(a)})
		}
		for _, a := range g.in.of(int32(v)) {
			d.in[v] = append(d.in[v], halfArc{to: int(arcFar(a)), rel: arcRel(a)})
		}
	}
	return d
}

// SumStages are the stage clocks of one SummarizeStages call, and the work
// it did: simulations solved, Kahn sorts and merge-phase scans.
type SumStages struct {
	Input, Build, Sim, Merge, Assemble time.Duration
	Sims, Topos, Phases                int
}

// SummarizeStages is Summarize with a clock around each stage: g0 +
// classify, the quotient rebuilds, the simulations (with their Kahn sorts),
// the merge-phase scans and assemble. The benchmark checks its result
// against Summarize's.
func SummarizeStages(segs []*Segment, opts SumOptions) (*Psg, SumStages, error) {
	w := new(Work)
	psg, err := SummarizeWork(w, segs, opts)
	d := w.stages
	return psg, SumStages{
		Input: d[stageInput], Build: d[stageBuild], Sim: d[stageSim], Merge: d[stageMerge], Assemble: d[stageAssemble],
		Sims: w.Sims, Topos: w.Topos, Phases: w.Phases,
	}, err
}

// MergeChecks counts what a checking probe (quotient_test.go) held to a
// fresh solve: inherited preorders, inherited orders, skipped phases.
type MergeChecks struct{ Preorders, Orders, Skips int }

// CheckQuotients is Summarize under a checking probe: after every
// equivalence merge the inherited preorder and order are held to a fresh
// solve, and every phase skipped as idle is run anyway. The Psg must be
// Summarize's.
func CheckQuotients(t *testing.T, segs []*Segment, opts SumOptions) MergeChecks {
	t.Helper()
	var c MergeChecks
	psg, err := summarize(new(Work), segs, opts, checkingProbe(t, &c))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Summarize(segs, opts); !reflect.DeepEqual(psg, want) {
		t.Fatal("a checked Summarize returned another Psg")
	}
	return c
}

// CheckQuotientsOnRandomDAGs is the same check over random DAGs decoded by
// graphFromBytes, each run ending where the dense merge loop does: half
// with one to three labels (large classes, rows over two words, merges that
// leave most classes changed), half with many.
func CheckQuotientsOnRandomDAGs(t *testing.T, trials int, seed int64) MergeChecks {
	t.Helper()
	var c MergeChecks
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(79)
		numLabels := 1 + rng.Intn(3)
		if trial%2 == 1 {
			numLabels = 1 + rng.Intn(n)
		}
		labels, edges := graphFromBytes(randomGraphBytes(rng, n, numLabels, rng.Intn(3*n)))
		checkMergeLoop(t, fmt.Sprintf("trial %d", trial), labels, edges, &c)
	}
	return c
}
