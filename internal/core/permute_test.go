package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// permute relabels p's vertex ids by a seeded permutation — vertex v becomes
// perm[v] — keeping every vertex's kind and properties and the edge order, so
// every edge keeps its id. The result is the same DAG, whose ids are almost
// surely no order of being; inv maps the new ids back.
func permute(p *prov.Graph, seed int64) (q *prov.Graph, perm, inv []graph.VertexID) {
	n := p.NumVertices()
	perm, inv = make([]graph.VertexID, n), make([]graph.VertexID, n)
	for v, pv := range rand.New(rand.NewSource(seed)).Perm(n) {
		perm[v], inv[pv] = graph.VertexID(pv), graph.VertexID(v)
	}
	q = prov.New()
	add := map[prov.Kind]func(string) graph.VertexID{
		prov.KindEntity: q.NewEntity, prov.KindActivity: q.NewActivity, prov.KindAgent: q.NewAgent,
	}
	for _, v := range inv {
		nv := add[p.KindOf(v)]("")
		p.PG().VertexProps(v, func(key string, val graph.Value) bool {
			q.PG().SetVertexProp(nv, key, val)
			return true
		})
	}
	g := p.PG()
	for e := range g.NumEdges() {
		id := graph.EdgeID(e)
		if _, err := q.AddRel(p.RelOf(id), perm[g.Src(id)], perm[g.Dst(id)]); err != nil {
			panic(err)
		}
	}
	return q, perm, inv
}

func mapIDs(m, vs []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, len(vs))
	for i, v := range vs {
		out[i] = m[v]
	}
	return out
}

// rulesByID is a segment's rule attribution keyed by the vertex's id under m
// (nil: the segment's own ids).
func rulesByID(s *core.Segment, m []graph.VertexID) map[graph.VertexID]core.Rule {
	out := make(map[graph.VertexID]core.Rule, len(s.Vertices()))
	for i, v := range s.Vertices() {
		if m != nil {
			v = m[v]
		}
		out[v] = s.Rules[i]
	}
	return out
}

// TestPermutationDifferential holds SimProvTst and SimProvAlg on graphs whose
// ids were relabeled by a random permutation, so that both walk a topological
// rank instead of the id, to the unpermuted graph's answers: VC2 and whole
// Segments (vertices, edges, rules), mapped back through the permutation, with
// and without NoEarlyStop, on both row layouts (Layouts), plain and behind a
// vertex filter.
// The inputs are the random and sibling lifecycles with their own queries and
// Pd-2000 with DefaultQuery and sources at ranks 50 and 90; long mode adds
// Pd-20000 with the same three queries. SimProvAlg takes ~150 ms a solve at
// Pd-2000 and ~30 s at Pd-20000, so on Pd it runs on the chain layout of
// Pd-2000's rank-50 query alone, where its early stop prunes the most.
func TestPermutationDifferential(t *testing.T) {
	type input struct {
		name string
		p    *prov.Graph
		qs   []core.Query
		alg  func(qi int, chain bool) bool // whether SimProvAlg runs
	}
	var inputs []input
	always := func(int, bool) bool { return true }
	for seed := int64(1); seed <= 12; seed++ {
		p, q := core.RandomLifecycle(seed, 40)
		inputs = append(inputs, input{fmt.Sprintf("random/%d", seed), p, []core.Query{q}, always})
		p, q = core.SiblingLifecycle(seed)
		inputs = append(inputs, input{fmt.Sprintf("siblings/%d", seed), p, []core.Query{q}, always})
	}
	pdInputs := 0
	for _, n := range []int{2000, 20000} {
		if n == 20000 && testing.Short() {
			continue
		}
		pdInputs++
		p := gen.Pd(gen.PdConfig{N: n, Seed: 1})
		src, dst := gen.DefaultQuery(p)
		qs := []core.Query{{Src: src, Dst: dst}}
		for _, rank := range []int{50, 90} {
			src, dst := gen.QueryAtRank(p, rank)
			qs = append(qs, core.Query{Src: src, Dst: dst})
		}
		alg := func(qi int, chain bool) bool { return n == 2000 && qi == 1 && chain }
		inputs = append(inputs, input{fmt.Sprintf("Pd/%d", n), p, qs, alg})
	}
	keep := func(v graph.VertexID) bool { return v%7 != 3 }
	nonEmpty := map[string]int{} // inputs with a non-empty VC2, by family
	for i, in := range inputs {
		pp, perm, inv := permute(in.p, int64(i+1))
		if pp.AncestryMonotone() {
			t.Fatalf("%s: the permuted graph is id-monotone", in.name)
		}
		ref, hit := core.NewEngine(in.p.Freeze(), core.Options{}), false
		for qi, q := range in.qs {
			pq := core.Query{Src: mapIDs(perm, q.Src), Dst: mapIDs(perm, q.Dst)}
			for _, filtered := range []bool{false, true} {
				if filtered {
					q.Boundary.VertexFilters = []core.VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return keep(v) }}
					pq.Boundary.VertexFilters = []core.VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return keep(inv[v]) }}
				}
				wantVC2, err := ref.SimilarPaths(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Segment(q)
				if err != nil {
					t.Fatal(err)
				}
				hit = hit || wantVC2.Cardinality() > 0
				for _, g := range core.Layouts(pp) {
					for _, opts := range []core.Options{{}, {NoEarlyStop: true}, {Solver: core.SolverAlg}, {Solver: core.SolverAlg, NoEarlyStop: true}} {
						if opts.Solver == core.SolverAlg && !in.alg(qi, g.PG().IncrementalSnapshot()) {
							continue
						}
						label := fmt.Sprintf("%s/q%d/filtered=%v/%s/%v/noearlystop=%v", in.name, qi, filtered, core.LayoutName(g), opts.Solver, opts.NoEarlyStop)
						e := core.NewEngine(g, opts)
						vc2, err := e.SimilarPaths(pq)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got := mapIDs(inv, setIDs(vc2.ToSlice()))
						slices.Sort(got)
						if !slices.Equal(got, setIDs(wantVC2.ToSlice())) {
							t.Fatalf("%s: VC2 has %d vertices mapped back, the unpermuted %d", label, len(got), wantVC2.Cardinality())
						}
						seg, err := e.Segment(pq)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !slices.Equal(seg.EdgeRuns, want.EdgeRuns) {
							t.Fatalf("%s: %d edges, the unpermuted %d", label, seg.NumEdges(), want.NumEdges())
						}
						if got, want := rulesByID(seg, inv), rulesByID(want, nil); !maps.Equal(got, want) {
							t.Fatalf("%s: vertices or rules differ mapped back (%d vs %d vertices)", label, len(got), len(want))
						}
					}
				}
			}
		}
		if hit {
			nonEmpty[strings.Split(in.name, "/")[0]]++
		}
	}
	if nonEmpty["random"] == 0 || nonEmpty["siblings"] == 0 || nonEmpty["Pd"] < pdInputs {
		t.Fatalf("non-empty VC2 on %v of %d inputs: the differential compared too little", nonEmpty, len(inputs))
	}
	t.Logf("non-empty VC2 on %v of %d inputs", nonEmpty, len(inputs))
}

func setIDs(xs []uint32) []graph.VertexID {
	out := make([]graph.VertexID, len(xs))
	for i, x := range xs {
		out[i] = graph.VertexID(x)
	}
	return out
}

// TestEarlyStopPrunesOnRank: on the permuted Pd-2000, whose ids are no order
// of being, SimProvAlg's temporal early stop still prunes, because it
// compares the rank: a query with its sources at rank 50 derives fewer facts
// with it than without (the differential above holds the answers equal).
func TestEarlyStopPrunesOnRank(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 2000, Seed: 1})
	pp, perm, _ := permute(p, 1)
	fz := pp.Freeze()
	if fz.AncestryMonotone() {
		t.Fatal("the permuted graph is id-monotone")
	}
	src, dst := gen.QueryAtRank(p, 50)
	q := core.Query{Src: mapIDs(perm, src), Dst: mapIDs(perm, dst)}
	var facts [2]int
	for i, noES := range []bool{false, true} {
		n, err := core.AlgNumFacts(core.NewEngine(fz, core.Options{Solver: core.SolverAlg, NoEarlyStop: noES}), q)
		if err != nil {
			t.Fatal(err)
		}
		facts[i] = n
	}
	if facts[0] >= facts[1] {
		t.Fatalf("early stop derived %d facts, without it %d: the rule did not prune", facts[0], facts[1])
	}
	t.Logf("facts with the early stop %d, without %d", facts[0], facts[1])
}
