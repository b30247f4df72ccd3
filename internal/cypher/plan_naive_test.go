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
// planner or the per-label CSR enumeration ever ran with naive set, oracle
// and subject would be the same code and the comparison blind. So: with
// naive set planPattern returns nil, iterRelEdges yields exactly the mixed
// Out/In row filtered by type, and a whole query reads no per-label row —
// and without it the same pattern does get a plan and does read rows, so
// the test cannot pass by the switch rejecting everything. A live graph
// has no rows to read at all: the constructors refuse it.
func TestPlannerStandsDownWhenNaive(t *testing.T) {
	live := gen.Pd(gen.PdConfig{N: 40, LambdaIn: 1, Seed: 4})
	frozen := live.Freeze()
	src, _ := gen.DefaultQuery(frozen)
	text := fmt.Sprintf("match p=(b:E)<-[:U|G*1..3]-(e) where id(b) in [%d] return p", src[0])
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Clauses[0].(MatchClause).Patterns[0]
	seeds := map[string][]graph.VertexID{"b": {src[0]}}

	ev := NewNaiveProvEvaluator(frozen, Options{})
	if plan := ev.planPattern(pat, row{}, seeds); plan != nil {
		t.Fatalf("planner produced %+v with planning off", plan)
	}
	g := frozen.PG()
	for v := 0; v < frozen.NumVertices(); v++ {
		for _, out := range []bool{true, false} {
			edges := g.Out(graph.VertexID(v))
			if !out {
				edges = g.In(graph.VertexID(v))
			}
			var want, got []graph.EdgeID
			for _, e := range edges {
				if ev.relMatches(pat.Rels[0], e) {
					want = append(want, e)
				}
			}
			if err := ev.iterRelEdges(graph.VertexID(v), pat.Rels[0], out, func(e graph.EdgeID, _ graph.VertexID) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("vertex %d out=%v: iterRelEdges yielded %v, the mixed row filtered by type is %v", v, out, got, want)
			}
		}
	}
	if _, err := ev.Run(context.Background(), text); err != nil {
		t.Fatal(err)
	}
	if ev.rows != 0 {
		t.Fatalf("the naive evaluation read %d per-label rows", ev.rows)
	}

	pev := NewProvEvaluator(frozen, Options{})
	if plan := pev.planPattern(pat, row{}, seeds); plan == nil {
		t.Fatal("planner stood down with planning on: the differential has no subject")
	}
	if _, err := pev.Run(context.Background(), text); err != nil {
		t.Fatal(err)
	}
	if pev.rows == 0 {
		t.Fatal("the planned evaluation read no per-label row: the differential has no subject")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewProvEvaluator accepted a live graph")
		}
	}()
	NewProvEvaluator(live, Options{})
}
