package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/prov"
)

// TestPropertyMatchDifferential holds property-match queries, which
// SimProvAlg solves (under either Solver setting), to the class-chain oracle:
// SimilarPaths' VC2 set and Segment's whole result (vertices, edges, rules,
// support) under an activity match, an entity match and both, with and
// without the early stop, live and frozen, plain and behind excluded
// relations and vertex/edge filters, on the hand-built, random and sibling
// lifecycles.
func TestPropertyMatchDifferential(t *testing.T) {
	type shape struct {
		name string
		p    *prov.Graph
		q    Query
	}
	var shapes []shape
	for rounds := 1; rounds <= 6; rounds++ {
		p, src, dst := smallLifecycle(rounds)
		shapes = append(shapes, shape{fmt.Sprintf("small%d", rounds), p, Query{Src: src, Dst: dst}})
	}
	for seed := int64(1); seed <= 12; seed++ {
		p, q := randomLifecycle(seed, 40)
		shapes = append(shapes, shape{fmt.Sprintf("random%d", seed), p, q})
	}
	for seed := int64(1); seed <= 4; seed++ {
		lc := newSiblingLifecycle(seed)
		shapes = append(shapes, shape{fmt.Sprintf("siblings%d", seed), lc.p, Query{Src: lc.mid, Dst: append([]graph.VertexID{lc.other}, lc.sibs...)}})
	}
	boundaries := map[string]Boundary{
		"plain":         {},
		"excl-D+S":      {ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAssoc}},
		"vertex-filter": {VertexFilters: []VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v%7 != 3 }}},
		"edge-filter":   {EdgeFilters: []EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%3 != 1 }}},
	}
	matches := map[string]Options{
		"activity": {MatchActivityProp: prov.PropCommand},
		"entity":   {MatchEntityProp: prov.PropFilename},
		"both":     {MatchActivityProp: prov.PropCommand, MatchEntityProp: prov.PropFilename},
	}
	cases, nonEmpty, narrowed := 0, 0, 0
	for _, sh := range shapes {
		for _, g := range []*prov.Graph{sh.p, sh.p.Freeze()} {
			for bname, b := range boundaries {
				q := sh.q
				q.Boundary = b
				labelOnly := bitsetMap(NewEngine(g, Options{}).chainVC2(q))
				for mname, match := range matches {
					for _, noES := range []bool{false, true} {
						opts := match
						opts.NoEarlyStop = noES
						label := fmt.Sprintf("%s/frozen=%v/%s/%s/noearlystop=%v", sh.name, g.Frozen(), bname, mname, noES)
						oracle := NewEngine(g, opts)
						want := bitsetMap(oracle.chainVC2(q))
						ad := newAdjacency(g, q.Boundary)
						diffSets(t, label+"/chain-per-destination", want, runTst(g, oracle.newTstChain(ad, dedupVertices(q.Src)), q, ad))
						for _, solver := range []SolverKind{SolverTst, SolverAlg} {
							opts.Solver = solver
							e := NewEngine(g, opts)
							got, err := e.SimilarPaths(q)
							if err != nil {
								t.Fatalf("%s/%v: %v", label, solver, err)
							}
							diffSets(t, fmt.Sprintf("%s/%v", label, solver), want, bitsetMap(got))
							seg, err := e.Segment(q)
							if err != nil {
								t.Fatalf("%s/%v: %v", label, solver, err)
							}
							ref, err := oracle.chainSegment(q)
							if err != nil {
								t.Fatalf("%s: oracle: %v", label, err)
							}
							if !reflect.DeepEqual(seg, ref) {
								t.Fatalf("%s/%v: segment differs from the oracle's (%d vs %d vertices, %d vs %d edges)",
									label, solver, seg.NumVertices(), ref.NumVertices(), seg.NumEdges(), ref.NumEdges())
							}
						}
						cases++
						if len(want) > 0 {
							nonEmpty++
						}
						if !reflect.DeepEqual(want, labelOnly) {
							narrowed++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d with a non-empty VC2, %d narrowed by the constraint", cases, nonEmpty, narrowed)
	if nonEmpty == 0 || narrowed == 0 {
		t.Fatalf("%d cases: %d non-empty, %d narrowed by the constraint; the differential compared nothing", cases, nonEmpty, narrowed)
	}
}

// earlyStopTrap is a valid, acyclic graph whose ancestry does not descend in
// id: a0, e1, dst, a1, src with dst ←G a0 ←U e1 ←G a1 ←U src. Every vertex
// but src is older than the source, so a temporal early stop that trusts
// "derivation descends in order-of-being" drops the walk at dst, while the
// similar path dst, a0, e1, a1, src reaches the source at level 2.
func earlyStopTrap(t *testing.T) (*prov.Graph, Query) {
	t.Helper()
	p := prov.New()
	a0 := p.NewActivity("a0")
	e1 := p.NewEntity("e1")
	dst := p.NewEntity("dst")
	a1 := p.NewActivity("a1")
	src := p.NewEntity("src")
	p.WasGeneratedBy(dst, a0)
	p.Used(a0, e1)
	p.WasGeneratedBy(e1, a1)
	p.Used(a1, src)
	for _, a := range []graph.VertexID{a0, a1} {
		p.PG().SetVertexProp(a, prov.PropCommand, graph.String("run"))
	}
	if p.AncestryMonotone() {
		t.Fatal("the trap graph is id-monotone")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("the trap graph is invalid: %v", err)
	}
	return p, Query{Src: []graph.VertexID{src}, Dst: []graph.VertexID{dst}}
}

// TestEarlyStopNonMonotone: on a graph whose ancestry does not descend in id,
// default options must give the NoEarlyStop answer — all five vertices of
// earlyStopTrap — for SimProvTst, SimProvAlg, CflrB, property-match queries
// and the class-chain oracle, in VC2 and in the whole segment, live and
// frozen.
func TestEarlyStopNonMonotone(t *testing.T) {
	p, q := earlyStopTrap(t)
	for _, g := range []*prov.Graph{p, p.Freeze()} {
		for name, opts := range map[string]Options{
			"tst":            {},
			"alg":            {Solver: SolverAlg},
			"cflrb":          {Solver: SolverCflrB},
			"match-activity": {MatchActivityProp: prov.PropCommand},
			"match-entity":   {Solver: SolverAlg, MatchEntityProp: prov.PropName},
		} {
			label := fmt.Sprintf("frozen=%v/%s", g.Frozen(), name)
			noES := opts
			noES.NoEarlyStop = true
			want, err := NewEngine(g, noES).SimilarPaths(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want.Cardinality() != p.NumVertices() {
				t.Fatalf("%s: NoEarlyStop VC2 has %d vertices, want all %d", label, want.Cardinality(), p.NumVertices())
			}
			e := NewEngine(g, opts)
			got, err := e.SimilarPaths(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffSets(t, label, bitsetMap(want), bitsetMap(got))
			diffSets(t, label+"/chain", bitsetMap(want), bitsetMap(e.chainVC2(q)))
			seg, err := e.Segment(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref, err := NewEngine(g, noES).Segment(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(seg, ref) {
				t.Errorf("%s: segment %v, NoEarlyStop %v", label, seg.Vertices, ref.Vertices)
			}
		}
	}
}
