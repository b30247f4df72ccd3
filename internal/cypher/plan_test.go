package cypher_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/difftest"
	"repro/internal/prov"
)

// renderRows flattens a result into a canonical string: the planner contract
// is that rows AND their order are bit-identical to the naive evaluation
// (NewNaiveProvEvaluator: planning off, TestPlannerStandsDownWhenNaive pins
// the switch) on the same snapshot.
func renderRows(res *cypher.Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// runBoth evaluates q on the snapshot planned and naive and requires
// identical rows in identical order.
func runBoth(t testing.TB, p *prov.Graph, q, tag string) {
	t.Helper()
	planned, err := cypher.NewProvEvaluator(p, cypher.Options{Timeout: 30 * time.Second}).Run(context.Background(), q)
	if err != nil {
		t.Fatalf("%s (planned): %v", tag, err)
	}
	naive, err := cypher.NewNaiveProvEvaluator(p, cypher.Options{Timeout: 30 * time.Second}).Run(context.Background(), q)
	if err != nil {
		t.Fatalf("%s (naive): %v", tag, err)
	}
	pr, nr := renderRows(planned), renderRows(naive)
	if pr != nr {
		t.Fatalf("%s: planner diverges from naive\nplanned (%d rows):\n%s\nnaive (%d rows):\n%s",
			tag, len(planned.Rows), pr, len(naive.Rows), nr)
	}
}

// TestPlannerMatchesNaive diffs the snapshot-aware planner against the naive
// DFS over a spread of pattern shapes on frozen graphs — fixed hops,
// bounded and unbounded variable length, both directions, undirected,
// untyped, and unanchored.
func TestPlannerMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := gen.Pd(gen.PdConfig{N: 40, LambdaIn: 1, Seed: seed}).Freeze()
		src, dst := gen.DefaultQuery(p)
		ents := p.Entities()
		acts := p.Activities()
		sl := idList(src)
		dl := idList(dst)
		al := idList(acts[:2])

		queries := []struct{ tag, q string }{
			{"fixed-out", fmt.Sprintf("match (a:A)-[:U]->(b:E) where id(a) in %s return a, b", al)},
			{"fixed-in", fmt.Sprintf("match (b:E)<-[:G]-(a:A) where id(b) in %s return a", idList(ents[len(ents)-2:]))},
			{"fixed-both", fmt.Sprintf("match (a)-[:G]-(b) where id(a) in %s return b", dl)},
			{"varlen-unbounded", fmt.Sprintf("match p=(b:E)<-[:U|G*]-(e:E) where id(b) in %s and id(e) in %s return p", sl, dl)},
			{"varlen-bounded", fmt.Sprintf("match p=(b:E)<-[:U|G*1..3]-(e) where id(b) in %s return p", sl)},
			{"varlen-exact", fmt.Sprintf("match p=(b:E)<-[:U|G*2]-(e) where id(b) in %s return p", sl)},
			{"two-hop-chain", fmt.Sprintf("match (e1:E)<-[:G]-(a:A)-[:U]->(e0:E) where id(e0) in %s return e1, a", sl)},
			{"untyped", fmt.Sprintf("match (a)-[]->(b) where id(a) in %s return b", al)},
			{"unanchored", "match (u:U)<-[:S]-(a:A) return u, a"},
			{"query1", cypher.Query1(src, dst)},
		}
		for _, q := range queries {
			runBoth(t, p, q.q, fmt.Sprintf("seed=%d %s", seed, q.tag))
		}
	}
}

// TestPlannerMatchesNaiveOnChains replays randomized ingest scripts through
// incremental snapshot chains (difftest) and, at every epoch, runs a
// bounded pattern from a random entity on the chain's snapshot planned and
// naive: identical rows in identical order, over rows that span two
// segments as well as contiguous ones.
func TestPlannerMatchesNaiveOnChains(t *testing.T) {
	scripts, size, epochs := 30, 150, 4
	if !testing.Short() {
		scripts, size, epochs = 80, 400, 6
	}
	incremental := 0
	for seed := 0; seed < scripts; seed++ {
		res, err := difftest.CheckCypherScript(int64(seed), size, epochs, naiveOnChain)
		if err != nil {
			t.Fatal(err)
		}
		incremental += res.Incremental
	}
	if incremental == 0 {
		t.Fatal("no script epoch took the incremental freeze path")
	}
	t.Logf("%d scripts, %d incremental epochs", scripts, incremental)
}

// FuzzPlannerNaive hunts for ingest scripts on whose snapshot chains the
// planner and the naive evaluator diverge beyond the fixed seed sweep.
func FuzzPlannerNaive(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := difftest.CheckCypherScript(seed, 100, 4, naiveOnChain); err != nil {
			t.Fatal(err)
		}
	})
}

func naiveOnChain(_, chain *prov.Graph) *cypher.Evaluator {
	return cypher.NewNaiveProvEvaluator(chain, cypher.Options{})
}

// TestPlannerEmptyPattern pins the unmatchable fast path: an anchor id whose
// vertex fails the node's label constraint proves the pattern empty before a
// single row is enumerated, and the result must still equal the naive
// evaluation (zero rows).
func TestPlannerEmptyPattern(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 40, LambdaIn: 1, Seed: 7}).Freeze()
	acts := p.Activities()
	q := fmt.Sprintf("match (b:E)-[:G]->(a) where id(b) in %s return a", idList(acts[:1]))
	runBoth(t, p, q, "activity-as-entity")
	// Out-of-range ids can never bind either.
	q = fmt.Sprintf("match (b:E)<-[:U|G*]-(e) where id(b) in [%d] return e", p.NumVertices()+5)
	runBoth(t, p, q, "out-of-range")
}

// BenchmarkPlannerCorridor times the anchored lineage corridor
// (b:E)<-[:U|G*1..8]-(e:E) over the four source/destination pairs of
// gen.QueryAtRank(p, 0) on Pd-5000: "naive" is the DFS with planning off,
// "planned" the planner's corridor pruning, both on one snapshot. The two
// are held to identical rows once, before any timing.
func BenchmarkPlannerCorridor(b *testing.B) {
	p := gen.Pd(gen.PdConfig{N: 5000, Seed: 1}).Freeze()
	src, dst := gen.QueryAtRank(p, 0)
	var qs []string
	for _, s := range src {
		for _, d := range dst {
			q := fmt.Sprintf("match p=(b:E)<-[:U|G*1..8]-(e:E) where id(b) in [%d] and id(e) in [%d] return p", s, d)
			runBoth(b, p, q, fmt.Sprintf("corridor %d-%d", s, d))
			qs = append(qs, q)
		}
	}
	for _, c := range []struct {
		name string
		ev   func(*prov.Graph, cypher.Options) *cypher.Evaluator
	}{{"naive", cypher.NewNaiveProvEvaluator}, {"planned", cypher.NewProvEvaluator}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := c.ev(p, cypher.Options{}).Run(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// idList mirrors the unexported helper in provquery.go for test use.
func idList(vs []graph.VertexID) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
