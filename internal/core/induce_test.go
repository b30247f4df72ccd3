package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// TestInduceMatchesRowOracle holds Segment — closures that read only the
// rows a vertex's kind can have, VC4 and ES from one scan of the edge
// columns, put in id order by an edge bitset — to the row oracle
// (rows_oracle_test.go), which reads every ancestry row of every closure
// vertex, the S and A rows of every segment vertex, then scans the edge
// columns: Vertices, Rules, Edges and Support() must be reflect.DeepEqual,
// and Edges exact-size. The inputs are Pd-2000 (two queries), an Sd graph
// queried segment by segment and Pd-2000 under permuted ids, each on both
// row layouts (Layouts), under relation exclusions, a vertex filter that
// drops some agents, an edge filter, expansions and VC1ExcludeDerivations.
// AdjustExpand, whose scan adds no agents, is held to the oracle's on every
// one of the segments, and so are the edges of the Sd generator's segments
// (NewSegment). Windows of consecutive Pd-2000 ids from 1% to 60% of the
// graph are held to the oracle under every boundary, with and without VC4.
func TestInduceMatchesRowOracle(t *testing.T) {
	type input struct {
		name string
		p    *prov.Graph
		qs   []core.Query
	}
	pd := gen.Pd(gen.PdConfig{N: 2000, Seed: 1})
	src, dst := gen.DefaultQuery(pd)
	src50, dst50 := gen.QueryAtRank(pd, 50)
	pdQs := []core.Query{{Src: src, Dst: dst}, {Src: src50, Dst: dst50}}
	pp, perm, _ := permute(pd, 7)
	var permQs []core.Query
	for _, q := range pdQs {
		permQs = append(permQs, core.Query{Src: mapIDs(perm, q.Src), Dst: mapIDs(perm, q.Dst)})
	}
	sd, segs := gen.Sd(gen.SdConfig{Segments: 4, Seed: 3})
	var sdQs []core.Query
	for _, s := range segs {
		var ents []graph.VertexID
		for _, v := range s.Vertices() {
			if sd.IsKind(v, prov.KindEntity) {
				ents = append(ents, v)
			}
		}
		// From the segment's seed entities to its last two outputs.
		sdQs = append(sdQs, core.Query{Src: ents[:3], Dst: ents[len(ents)-2:]})
		if want := core.RowOracleNewSegmentEdges(s.P, s.Vertices()); !slices.Equal(s.EdgeRuns, want) || len(s.EdgeRuns) != cap(s.EdgeRuns) {
			t.Fatalf("Sd segment: NewSegment induced %d edge runs (cap %d), the oracle %d", len(s.EdgeRuns), cap(s.EdgeRuns), len(want))
		}
	}
	inputs := []input{{"Pd-2000", pd, pdQs}, {"Sd", sd, sdQs}, {"Pd-2000/permuted", pp, permQs}}

	agentsDropped := false
	for _, in := range inputs {
		for _, p := range core.Layouts(in.p) {
			for _, opts := range []core.Options{{}, {VC1ExcludeDerivations: true}} {
				e := core.NewEngine(p, opts)
				for qi, q := range in.qs {
					var plain *core.Segment
					for _, b := range oracleBoundaries {
						label := fmt.Sprintf("%s/%s/exclD=%v/q%d/%s", in.name, core.LayoutName(p), opts.VC1ExcludeDerivations, qi, b.name)
						bq := q
						bq.Boundary = b.of(q)
						got, err := e.Segment(bq)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want, err := core.RowOracleSegment(e, bq)
						if err != nil {
							t.Fatalf("%s: oracle: %v", label, err)
						}
						diffToOracle(t, label, got, want)
						ex := core.Expansion{Within: q.Src, K: 3}
						adj, err := e.AdjustExpand(got, ex)
						if err != nil {
							t.Fatalf("%s: AdjustExpand: %v", label, err)
						}
						diffToOracle(t, label+"/adjust-expand", adj, core.RowOracleAdjustExpand(e, want, ex))
						switch b.name {
						case "plain":
							if ruleCount(got, core.RuleC1) == 0 || ruleCount(got, core.RuleC4) == 0 {
								t.Fatalf("%s: no C1 vertex or no agent: the case compares too little", label)
							}
							plain = got
						case "drop-agents":
							agentsDropped = agentsDropped || ruleCount(got, core.RuleC4) < ruleCount(plain, core.RuleC4)
						}
					}
				}
			}
		}
	}
	if !agentsDropped {
		t.Fatal("the agent filter never dropped a segment's agent: the case compared too little")
	}

	// Windows of consecutive ids in the middle of Pd-2000 (entities,
	// activities and agents, so edges cross the window's two ends), on both
	// row layouts.
	for _, p := range core.Layouts(pd) {
		n := p.NumVertices()
		for _, pct := range []int{1, 15, 60} {
			k := n * pct / 100
			vs := make([]graph.VertexID, k)
			for i := range vs {
				vs[i] = graph.VertexID((n-k)/2 + i)
			}
			for _, b := range oracleBoundaries {
				for _, agents := range []bool{false, true} {
					label := fmt.Sprintf("%s/|vs|=%d of %d/%s/agents=%v", core.LayoutName(p), k, n, b.name, agents)
					bound := b.of(core.Query{Src: vs[:1], Dst: vs[k-1:]})
					wantEdges, wantAgents := core.RowOracleInducedEdges(p, bound, vs, agents)
					if runIDs(wantEdges) < k/2 || agents && b.name == "plain" && len(wantAgents) == 0 {
						t.Fatalf("%s: %d edges and %d agents compare too little", label, runIDs(wantEdges), len(wantAgents))
					}
					edges, added := core.InducedEdges(p, bound, vs, agents)
					if !slices.Equal(edges, wantEdges) || len(edges) != cap(edges) || !reflect.DeepEqual(added, wantAgents) {
						t.Fatalf("%s: %d edge runs (cap %d) and %d agents, the oracle %d and %d",
							label, len(edges), cap(edges), len(added), len(wantEdges), len(wantAgents))
					}
				}
			}
		}
	}
}

// oracleBoundaries are the boundaries TestInduceMatchesRowOracle runs
// every input under, each a function of the query (the expansions start
// from its vertices).
var oracleBoundaries = []struct {
	name string
	of   func(q core.Query) core.Boundary
}{
	{"plain", exclRels()},
	{"excl-S", exclRels(prov.RelAssoc)},
	{"excl-A", exclRels(prov.RelAttr)},
	{"excl-SA", exclRels(prov.RelAssoc, prov.RelAttr)},
	{"excl-D", exclRels(prov.RelDeriv)},
	{"drop-agents", func(core.Query) core.Boundary {
		return core.Boundary{VertexFilters: []core.VertexFilter{dropAgents}}
	}},
	{"edge-filter", func(core.Query) core.Boundary {
		return core.Boundary{EdgeFilters: []core.EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%13 != 5 }}}
	}},
	{"expansions", func(q core.Query) core.Boundary {
		return core.Boundary{Expansions: []core.Expansion{{Within: q.Dst, K: 3}, {Within: q.Src, K: 2}}}
	}},
}

// dropAgents is a vertex filter that refuses every odd agent.
func dropAgents(p *prov.Graph, v graph.VertexID) bool {
	return !p.IsKind(v, prov.KindAgent) || v%2 == 0
}

func exclRels(rels ...prov.Rel) func(core.Query) core.Boundary {
	return func(core.Query) core.Boundary { return core.Boundary{ExcludeRels: rels} }
}

func diffToOracle(t *testing.T, label string, got, want *core.Segment) {
	t.Helper()
	if !slices.Equal(got.VertexRuns, want.VertexRuns) || len(got.VertexRuns) != cap(got.VertexRuns) {
		t.Fatalf("%s: %d vertex runs (cap %d), the oracle %d", label, len(got.VertexRuns), cap(got.VertexRuns), len(want.VertexRuns))
	}
	if !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Fatalf("%s: rules differ from the oracle's", label)
	}
	if !slices.Equal(got.EdgeRuns, want.EdgeRuns) || len(got.EdgeRuns) != cap(got.EdgeRuns) {
		t.Fatalf("%s: %d edge runs (cap %d), the oracle %d", label, len(got.EdgeRuns), cap(got.EdgeRuns), len(want.EdgeRuns))
	}
	if !reflect.DeepEqual(got.Support(), want.Support()) {
		t.Fatalf("%s: support sets differ from the oracle's", label)
	}
}

func ruleCount(s *core.Segment, r core.Rule) int {
	n := 0
	for _, x := range s.Rules {
		if x == r {
			n++
		}
	}
	return n
}

// TestClosureReadsKindRows pins which rows a closure reads on a frozen graph:
// toward ancestors one G and one D out-row per entity and one U out-row per
// activity of the closure, toward descendants one U and one D in-row per
// entity and one G in-row per activity, and no D row at all under
// VC1ExcludeDerivations. The closure equals the row oracle's, which reads
// all three ancestry rows of every vertex.
func TestClosureReadsKindRows(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 2000, Seed: 1}).Freeze()
	src, dst := gen.DefaultQuery(p)
	for _, exclD := range []bool{false, true} {
		e := core.NewEngine(p, core.Options{VC1ExcludeDerivations: exclD})
		for _, fwd := range []bool{true, false} {
			seeds := src
			entRels, actRel := []prov.Rel{prov.RelUsed, prov.RelDeriv}, prov.RelGen
			if fwd {
				seeds = dst
				entRels, actRel = []prov.Rel{prov.RelGen, prov.RelDeriv}, prov.RelUsed
			}
			if exclD {
				entRels = entRels[:1]
			}
			got, seen := core.ClosureRows(e, seeds, core.Boundary{}, fwd)
			d := 0
			if fwd {
				d = 1
			}
			var want core.RowCounts
			ents, acts := 0, 0
			for _, x := range got.ToSlice() {
				switch p.KindOf(graph.VertexID(x)) {
				case prov.KindEntity:
					ents++
					for _, r := range entRels {
						want[r][d]++
					}
				case prov.KindActivity:
					acts++
					want[actRel][d]++
				default:
					t.Fatalf("fwd=%v exclD=%v: the closure reached agent %d", fwd, exclD, x)
				}
			}
			if ents < 10 || acts < 10 {
				t.Fatalf("fwd=%v exclD=%v: closure of %d entities and %d activities compares too little", fwd, exclD, ents, acts)
			}
			if seen != want {
				t.Fatalf("fwd=%v exclD=%v: row reads %v, want %v (%d entities, %d activities)", fwd, exclD, seen, want, ents, acts)
			}
			if oracle := core.RowOracleClosure(e, seeds, core.Boundary{}, fwd); !reflect.DeepEqual(got.ToSlice(), oracle.ToSlice()) {
				t.Fatalf("fwd=%v exclD=%v: %d vertices, the row oracle %d", fwd, exclD, got.Cardinality(), oracle.Cardinality())
			}
		}
	}
}

// TestInducedEdgesConcurrent segments from several goroutines at once, on
// two graphs of different sizes: the pooled edge-id bitset is the only state
// two calls can share, so under -race this shows one handed to two calls,
// and a bitset returned with marks left in it shows as extra edges.
func TestInducedEdgesConcurrent(t *testing.T) {
	pdEng, pdQs := pdPoolQueries(t, 2000, 8)
	sd, segs := gen.Sd(gen.SdConfig{Segments: 4, Seed: 3})
	sdEng := core.NewEngine(sd.Freeze(), core.Options{})
	type job struct {
		e *core.Engine
		q core.Query
	}
	var jobs []job
	for _, q := range pdQs {
		jobs = append(jobs, job{pdEng, q})
	}
	for _, s := range segs {
		jobs = append(jobs, job{sdEng, core.Query{Src: s.Vertices()[:1], Dst: s.Vertices()[len(s.Vertices())-1:]}})
	}
	want := make([][]core.Run[graph.EdgeID], len(jobs))
	for i, j := range jobs {
		seg, err := j.e.Segment(j.q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = seg.EdgeRuns
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range jobs {
					i := (k + g*3) % len(jobs)
					seg, err := jobs[i].e.Segment(jobs[i].q)
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(seg.EdgeRuns, want[i]) {
						t.Errorf("goroutine %d, job %d: %d edge runs, the sequential solve %d", g, i, len(seg.EdgeRuns), len(want[i]))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNewSegmentRefusesOutOfRange: NewSegment refuses a vertex id at or
// past the snapshot's vertex count with validateQuery's wording, before
// inducedEdges reads it, and takes every id below it.
func TestNewSegmentRefusesOutOfRange(t *testing.T) {
	p := prov.New()
	a, e := p.NewAgent("u"), p.NewEntity("in")
	run := p.NewActivity("run")
	p.WasAssociatedWith(run, a)
	p.Used(run, e)
	fz := p.Freeze()
	for _, v := range []graph.VertexID{3, 999, graph.NoVertex} {
		seg, err := core.NewSegment(fz, []graph.VertexID{e, v})
		if want := fmt.Sprintf("core: segment vertex %d out of range", v); err == nil || err.Error() != want || seg != nil {
			t.Fatalf("NewSegment with vertex %d of 3: segment %v, err %v, want %q", v, seg, err, want)
		}
	}
	seg, err := core.NewSegment(fz, []graph.VertexID{a, e, run})
	if err != nil || seg.NumVertices() != 3 || seg.NumEdges() != 2 {
		t.Fatalf("NewSegment of all 3 vertices: %v, %v", seg, err)
	}
}
