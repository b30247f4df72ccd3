package cypher

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPlannerStandsDownWhenNaive pins the switch the planner differentials
// rest on. They take the naive evaluator (NewNaiveProvEvaluator) as the
// oracle and the planned one as the subject, on the same snapshot; if the
// planner ever ran with naive set, oracle and subject would be the same
// code and the comparison blind. So: with naive set planPattern returns
// nil, and without it the same pattern does get a plan, so the test cannot
// pass by the switch rejecting everything. Both evaluators enumerate
// through iterRelEdges, so a fault there would hide from the differential:
// for each of them, a typed and an untyped pattern, every vertex and both
// directions, the test holds what it yields to the edge columns. A live
// graph has no rows to read at all: the constructors refuse it.
func TestPlannerStandsDownWhenNaive(t *testing.T) {
	live := gen.Pd(gen.PdConfig{N: 40, LambdaIn: 1, Seed: 4})
	frozen := live.Freeze()
	src, _ := gen.DefaultQuery(frozen)
	text := fmt.Sprintf("match p=(b:E)<-[:U|G*1..3]-(e) where id(b) in [%d] return p", src[0])
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	untyped, err := Parse("match (a)-[*1..2]-(b) return a")
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Clauses[0].(MatchClause).Patterns[0]
	seeds := map[string][]graph.VertexID{"b": {src[0]}}

	ev := NewNaiveProvEvaluator(frozen, Options{})
	if plan := ev.planPattern(pat, row{}, seeds); plan != nil {
		t.Fatalf("planner produced %+v with planning off", plan)
	}
	pev := NewProvEvaluator(frozen, Options{})
	if plan := pev.planPattern(pat, row{}, seeds); plan == nil {
		t.Fatal("planner stood down with planning on: the differential has no subject")
	}

	g := frozen.PG()
	admits := func(e *Evaluator, rp RelPattern, id graph.EdgeID) bool {
		for _, tn := range rp.Types {
			if l, ok := e.relLabel(tn); ok && l == g.EdgeLabel(id) {
				return true
			}
		}
		return len(rp.Types) == 0
	}
	for name, e := range map[string]*Evaluator{"naive": ev, "planned": pev} {
		for _, rp := range []RelPattern{pat.Rels[0], untyped.Clauses[0].(MatchClause).Patterns[0].Rels[0]} {
			rows := e.patternRows(PathPattern{Rels: []RelPattern{rp}})[0]
			for d, follows := range []bool{rp.Dir != DirLeft, rp.Dir != DirRight} {
				for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
					var want, got []graph.EdgeID
					for id := graph.EdgeID(0); int(id) < g.NumEdges(); id++ {
						near, far := g.Src(id), g.Dst(id)
						if d == 1 {
							near, far = far, near
						}
						if follows && near == v && admits(e, rp, id) {
							want = append(want, id, graph.EdgeID(far))
						}
					}
					if err := e.iterRelEdges(v, rows[d], func(id graph.EdgeID, far graph.VertexID) error {
						got = append(got, id, graph.EdgeID(far))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %+v, vertex %d, out=%v: iterRelEdges yielded (edge, far end) %v, the edge columns give %v",
							name, rp, v, d == 0, got, want)
					}
				}
			}
		}
	}
	for _, e := range []*Evaluator{ev, pev} {
		if _, err := e.Run(context.Background(), text); err != nil {
			t.Fatal(err)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewProvEvaluator accepted a live graph")
		}
	}()
	NewProvEvaluator(live, Options{})
}
