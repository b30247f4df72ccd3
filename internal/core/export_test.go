package core

import (
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
// its deep mode (level-synchronous runner as reference, sweep windows
// checked). It returns |VC2| and the widest sweep window seen, in words.
func DeepRunnersAgree(t *testing.T, label string, live *prov.Graph, q Query, opts Options) (vc2, maxWords int) {
	t.Helper()
	ref, seen := runnersAgreeOn(t, label, live, q, opts, true)
	return len(ref), seen.maxWords
}

// TstClassRuns is SimilarPaths under SimProvTst with the dispatched runner's
// calls counted: the number of destination classes runSimProvTst formed.
func TstClassRuns(e *Engine, q Query) (*bitmap.Bitset, int) {
	ad := newAdjacency(e.P, q.Boundary)
	src := dedupVertices(q.Src)
	c := &countRuns{tstRunner: e.newTstRunner(ad, src)}
	return e.runSimProvTst(c, src, q.Dst, ad), c.n
}

// SegStages are the stage clocks of one SegmentStages call.
type SegStages struct{ Closure, VC2, Induce time.Duration }

// SegmentStages is Segment with a clock around each stage: the two ancestry
// closures (VC1 and the support set's seed), the VC2 solve, and induce. The
// benchmark checks its result against Segment's.
func SegmentStages(e *Engine, q Query) (*Segment, SegStages, error) {
	var st SegStages
	if err := e.validateQuery(q); err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	ad := newAdjacency(e.P, q.Boundary)
	vc1, support := e.directPathVertices(q, ad)
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
	return newGuard(buildSum(g.label, edges))
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
	g := newFlatGraph(new(arena), len(labels), keys)
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

// SumStages are the stage clocks of one SummarizeStages call.
type SumStages struct{ Input, Build, Sim, Merge, Assemble time.Duration }

// SummarizeStages is Summarize with a clock around each stage: g0 +
// classify, the simulations (computed ahead of the phase that reads them, so
// mergePhase finds them memoized), the merge phases, the quotient rebuilds
// and assemble. The benchmark checks its result against Summarize's.
func SummarizeStages(segs []*Segment, opts SumOptions) (*Psg, SumStages, error) {
	var st SumStages
	last := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d, last = *d+now.Sub(last), now
	}
	sc := sumPool.Get().(*sumScratch)
	defer sc.release()
	g0, err := newInput(sc, segs, opts)
	if err != nil {
		return nil, st, err
	}
	nodeOf := sc.call.i32.take(g0.g.numNodes())
	for i := range nodeOf {
		nodeOf[i] = int32(i)
	}
	cur, built := g0.g, 0
	lap(&st.Input)
	rounds := 0
	for opts.MaxRounds == 0 || rounds < opts.MaxRounds {
		progressed := false
		for _, phase := range []mergeCondition{condInEquiv, condOutEquiv, condDominance} {
			for _, forward := range []bool{false, true} {
				if phase == condDominance || forward == (phase == condOutEquiv) {
					if _, err := cur.sim(forward); err != nil {
						return nil, st, err
					}
				}
			}
			lap(&st.Sim)
			remap, numNew, err := mergePhase(cur, phase)
			lap(&st.Merge)
			if err != nil {
				return nil, st, err
			}
			if remap == nil {
				continue
			}
			progressed = true
			for i, nd := range nodeOf {
				nodeOf[i] = remap[nd]
			}
			mem := &sc.round[built&1]
			mem.reset()
			cur, built = cur.quotient(mem, remap, numNew), built+1
			lap(&st.Build)
		}
		rounds++
		if !progressed {
			break
		}
	}
	psg := g0.assemble(cur.numNodes(), nodeOf, rounds)
	lap(&st.Assemble)
	return psg, st, nil
}
