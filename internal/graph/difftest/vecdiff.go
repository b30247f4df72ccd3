package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Live-vs-frozen differential. PgSeg is written once over core's adjacency
// wrapper, which reads a live graph's edge lists and a frozen snapshot's CSR
// rows (at most two segments on incrementally extended epochs) — two
// representations through one walk, promised to be indistinguishable. The
// snapshot-aware Cypher planner (cypher/plan.go) makes the same promise
// against the naive evaluator, which is what runs on a live graph. This
// harness replays randomized ingest
// scripts through incremental snapshot chains — so the two-segment rows of
// extended blocks are exercised, not just freshly frozen contiguous ones —
// and diffs both at every epoch.

// DiffLiveFrozen runs one PgSeg query on the live graph and on a frozen
// snapshot of the same state and asserts identical segments (vertices,
// edges, rule attribution, support set) and identical ancestry closures in
// both directions under the query's boundary.
func DiffLiveFrozen(live, frozen *prov.Graph, q core.Query) error {
	if err := DiffSegments(live, frozen, q); err != nil {
		return fmt.Errorf("live vs frozen: %w", err)
	}
	liveEng := core.NewEngine(live, core.Options{})
	fzEng := core.NewEngine(frozen, core.Options{})
	for _, fwd := range []bool{true, false} {
		seeds := q.Dst
		if !fwd {
			seeds = q.Src
		}
		ll := liveEng.AncestryClosure(seeds, q.Boundary, fwd).ToSlice()
		fl := fzEng.AncestryClosure(seeds, q.Boundary, fwd).ToSlice()
		if !slices.Equal(ll, fl) {
			return fmt.Errorf("closure(fwd=%v) mismatch: live %d vs frozen %d vertices", fwd, len(ll), len(fl))
		}
	}
	return nil
}

// DiffCypherPlanner runs a bounded variable-length pattern from a random
// entity on the frozen snapshot (where the planner runs) and on the live
// graph of the same state (where it stands down and the evaluator is the
// naive DFS) and asserts identical rows in identical order.
func DiffCypherPlanner(rng *rand.Rand, live, frozen *prov.Graph) error {
	ents := frozen.Entities()
	if len(ents) == 0 {
		return nil
	}
	b := ents[rng.Intn(len(ents))]
	q := fmt.Sprintf("match p=(b:E)<-[:U|G*1..3]-(e) where id(b) in [%d] return p", b)
	planned, perr := cypher.NewProvEvaluator(frozen, cypher.Options{}).Run(q)
	naive, nerr := cypher.NewProvEvaluator(live, cypher.Options{}).Run(q)
	if (perr == nil) != (nerr == nil) {
		return fmt.Errorf("cypher error mismatch: planned %v vs naive %v", perr, nerr)
	}
	if perr != nil {
		return nil
	}
	pr, nr := renderRows(planned), renderRows(naive)
	if pr != nr {
		return fmt.Errorf("cypher planner diverges on %q: %d vs %d rows", q, len(planned.Rows), len(naive.Rows))
	}
	return nil
}

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

// CheckVecScript replays a gen.Pd lifecycle graph in randomized edge batches
// through an incremental snapshot chain and, at every epoch, diffs the
// replayer's live graph against the chain's snapshot (PgSeg segments and
// ancestry closures on randomized queries) and the Cypher planner against
// the naive evaluator on bounded patterns.
func CheckVecScript(seed int64, size, epochs, queries int) (Result, error) {
	return checkChainScript(seed, size, epochs, queries, DiffLiveFrozen, DiffCypherPlanner)
}

// checkChainScript is the replay loop CheckVecScript and CheckSolverScript
// share: perQuery runs on each randomized query at every epoch, perEpoch
// (optional) once per epoch, both on the live graph and the snapshot. Every
// epoch also compares the property reads of the live graph and of every
// snapshot so far with the source's.
func checkChainScript(seed int64, size, epochs, queries int,
	perQuery func(live, frozen *prov.Graph, q core.Query) error,
	perEpoch func(rng *rand.Rand, live, frozen *prov.Graph) error) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	src := gen.Pd(gen.PdConfig{N: size, Seed: seed}).PG()
	rep := NewReplayer(src)
	live := prov.Wrap(rep.Graph())
	oracle := oracleOf(src)

	cuts := randomCuts(rng, src.NumEdges(), epochs)
	var prev *graph.Graph
	var snaps []*graph.Graph
	var res Result
	for ep, cut := range cuts {
		rep.StepEdges(cut)
		if ep == len(cuts)-1 {
			rep.FinishVertices()
		}
		incr, inc := rep.Graph().ExtendFrozen(prev)
		res.Epochs++
		if inc {
			res.Incremental++
		}
		snaps = append(snaps, incr)
		for i, g := range append([]*graph.Graph{rep.Graph()}, snaps...) {
			if err := oracle.DiffProps(g); err != nil {
				return res, fmt.Errorf("seed %d epoch %d graph %d (0 = live): %w", seed, ep, i, err)
			}
		}
		p := prov.Wrap(incr)
		for qi := 0; qi < queries; qi++ {
			q, ok := randomQuery(rng, p)
			if !ok {
				break
			}
			if err := perQuery(live, p, q); err != nil {
				return res, fmt.Errorf("seed %d epoch %d query %d: %w", seed, ep, qi, err)
			}
		}
		if perEpoch != nil {
			if err := perEpoch(rng, live, p); err != nil {
				return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
			}
		}
		prev = incr
	}
	return res, nil
}
