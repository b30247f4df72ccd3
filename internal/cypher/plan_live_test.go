package cypher

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPlannerStandsDownOnLiveGraph pins the guard the planner differentials
// rest on. They take "the query on the live graph" as the naive oracle and
// "the query on its frozen snapshot" as the planned subject; if the planner
// or the per-label CSR enumeration ever ran on a live graph, oracle and
// subject would be the same code and the comparison blind. So: on the live
// graph planPattern returns nil, iterRelEdges yields exactly the mixed
// adjacency list filtered by type, and a whole query reads no CSR row — and
// on the snapshot of the same graph the same pattern does get a plan and
// does read rows, so the test cannot pass by the guard rejecting everything.
func TestPlannerStandsDownOnLiveGraph(t *testing.T) {
	live := gen.Pd(gen.PdConfig{N: 40, LambdaIn: 1, Seed: 4})
	frozen := live.Freeze()
	if live.Frozen() || !frozen.Frozen() {
		t.Fatalf("want a live graph and its snapshot, got frozen=%v and frozen=%v", live.Frozen(), frozen.Frozen())
	}
	src, _ := gen.DefaultQuery(live)
	text := fmt.Sprintf("match p=(b:E)<-[:U|G*1..3]-(e) where id(b) in [%d] return p", src[0])
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Clauses[0].(MatchClause).Patterns[0]
	seeds := map[string][]graph.VertexID{"b": {src[0]}}

	ev := NewProvEvaluator(live, Options{})
	if plan := ev.planPattern(pat, row{}, seeds); plan != nil {
		t.Fatalf("planner produced %+v on a live graph", plan)
	}
	for v := 0; v < live.NumVertices(); v++ {
		for _, out := range []bool{true, false} {
			edges := live.PG().Out(graph.VertexID(v))
			if !out {
				edges = live.PG().In(graph.VertexID(v))
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
				t.Fatalf("vertex %d out=%v: iterRelEdges yielded %v, the mixed list filtered by type is %v", v, out, got, want)
			}
		}
	}
	if _, err := ev.Run(text); err != nil {
		t.Fatal(err)
	}
	if ev.rows != 0 {
		t.Fatalf("the live-graph evaluation read %d CSR rows", ev.rows)
	}

	fev := NewProvEvaluator(frozen, Options{})
	if plan := fev.planPattern(pat, row{}, seeds); plan == nil {
		t.Fatal("planner stood down on a frozen snapshot: the differential has no subject")
	}
	if _, err := fev.Run(text); err != nil {
		t.Fatal(err)
	}
	if fev.rows == 0 {
		t.Fatal("the snapshot evaluation read no CSR row: the differential has no subject")
	}
}
