package bench

import (
	"fmt"
	"time"

	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Panel "vec": the snapshot-aware Cypher planner's corridor pruning vs the
// naive DFS, on a both-ends-anchored bounded pattern. The planner stands
// down on a live graph, so "naive" is the query on the live graph and
// "planned" the same query on its frozen snapshot. Before timing each size,
// the panel asserts the two produce identical rows — a benchmark of
// diverging engines would be meaningless. (Older `vec` records in
// BENCH_provd.json carry seg/walk columns as well; see README, "Query
// engine".)

// vecCypherQuery renders the panel's anchored corridor pattern: all bounded
// lineage walks descending from entity b down to entity e. The naive DFS
// enumerates every edge-distinct walk in b's 8-hop cone; the planner's
// backward sweep from e prunes branches to the b—e corridor (and proves
// disconnected pairs empty without enumerating at all), turning exponential
// walk counts into linear frontier sweeps.
func vecCypherQuery(b, e graph.VertexID) string {
	return fmt.Sprintf("match p=(b:E)<-[:U|G*1..8]-(e:E) where id(b) in [%d] and id(e) in [%d] return p", b, e)
}

// timeCypher measures the corridor pattern over the query pairs on p (best
// of reps across the whole mix).
func timeCypher(p *prov.Graph, src, dst []graph.VertexID, reps int) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		for _, b := range src {
			for _, e := range dst {
				if _, err := cypher.NewProvEvaluator(p, cypher.Options{}).Run(vecCypherQuery(b, e)); err != nil {
					panic(err)
				}
			}
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// assertPlannerEqualsNaive diffs the snapshot's rows against the live
// graph's on the panel's workload before any timing.
func assertPlannerEqualsNaive(live, frozen *prov.Graph, src, dst []graph.VertexID) {
	for _, b := range src {
		for _, e := range dst {
			qs := vecCypherQuery(b, e)
			planned, perr := cypher.NewProvEvaluator(frozen, cypher.Options{}).Run(qs)
			naive, nerr := cypher.NewProvEvaluator(live, cypher.Options{}).Run(qs)
			if (perr == nil) != (nerr == nil) {
				panic(fmt.Sprintf("bench vec: cypher error divergence: %v vs %v", perr, nerr))
			}
			if perr != nil {
				continue
			}
			if len(planned.Rows) != len(naive.Rows) {
				panic(fmt.Sprintf("bench vec: cypher row divergence on %q: %d vs %d",
					qs, len(planned.Rows), len(naive.Rows)))
			}
			for i := range planned.Rows {
				for j := range planned.Rows[i] {
					if planned.Rows[i][j].String() != naive.Rows[i][j].String() {
						panic(fmt.Sprintf("bench vec: cypher cell divergence on %q at row %d", qs, i))
					}
				}
			}
		}
	}
}

// FigVec compares the naive and planned Cypher evaluators across graph
// sizes.
func FigVec(scale Scale) Figure {
	var ns []int
	switch scale {
	case ScaleSmall:
		ns = []int{5000, 20000}
	case ScaleMedium:
		ns = []int{50000, 100000}
	default:
		ns = []int{100000, 300000, 1000000}
	}
	fig := Figure{
		ID:      "vec",
		Caption: "naive (live graph) vs planned (frozen snapshot) Cypher corridor pattern on Pd",
		XLabel:  "N",
		YLabel:  "runtime",
		Series:  []string{"cypher naive", "cypher planned", "cypher speedup"},
	}
	const reps = 3
	for _, n := range ns {
		p := pdGraph(gen.PdConfig{N: n, Seed: 1})
		src, dst := gen.QueryAtRank(p, 0)
		fz := p.Freeze()

		assertPlannerEqualsNaive(p, fz, src, dst)

		cyNaive := timeCypher(p, src, dst, reps)
		cyPlanned := timeCypher(fz, src, dst, reps)
		speedup := "-"
		if cyPlanned > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(cyNaive)/float64(cyPlanned))
		}
		fig.Rows = append(fig.Rows, Row{X: fmt.Sprint(n), Cells: map[string]string{
			"cypher naive":   secs(cyNaive),
			"cypher planned": secs(cyPlanned),
			"cypher speedup": speedup,
		}})
	}
	return fig
}
