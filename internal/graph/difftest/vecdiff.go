package difftest

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Rebuild-vs-chain differential. PgSeg and the Cypher planner read a
// snapshot's CSR rows: contiguous on a full rebuild (Freeze), up to two
// segments per row on an incrementally extended epoch (ExtendFrozen). This
// harness replays randomized ingest scripts through snapshot chains and
// diffs each epoch against a full rebuild of the same state, whose rows
// DiffSnapshots holds to the naive rows of the edge columns.

// diffCypher runs a bounded variable-length pattern from a random entity
// through the planner on the chain's snapshot and through ref, and asserts
// identical rows in identical order.
func diffCypher(rng *rand.Rand, chain *prov.Graph, ref *cypher.Evaluator) error {
	ents := chain.Entities()
	if len(ents) == 0 {
		return nil
	}
	b := ents[rng.Intn(len(ents))]
	q := fmt.Sprintf("match p=(b:E)<-[:U|G*1..3]-(e) where id(b) in [%d] return p", b)
	cres, cerr := cypher.NewProvEvaluator(chain, cypher.Options{}).Run(context.Background(), q)
	rres, rerr := ref.Run(context.Background(), q)
	if (cerr == nil) != (rerr == nil) {
		return fmt.Errorf("cypher error mismatch: chain %v vs reference %v", cerr, rerr)
	}
	if cerr == nil && fmt.Sprintf("%q", cres.Rows) != fmt.Sprintf("%q", rres.Rows) {
		return fmt.Errorf("cypher planner diverges on %q: chain %d vs reference %d rows", q, len(cres.Rows), len(rres.Rows))
	}
	return nil
}

// CheckVecScript replays a gen.Pd lifecycle graph in randomized edge batches
// through an incremental snapshot chain and, at every epoch, diffs a full
// rebuild of the replayer's graph against the chain's snapshot: PgSeg
// segments and ancestry closures on randomized queries (DiffSegments), and
// the planner's rows on a bounded pattern.
func CheckVecScript(seed int64, size, epochs, queries int) (Result, error) {
	return checkChainScript(seed, size, epochs, queries, DiffSegments, func(full, _ *prov.Graph) *cypher.Evaluator {
		return cypher.NewProvEvaluator(full, cypher.Options{})
	})
}

// CheckCypherScript replays a gen.Pd lifecycle graph like CheckVecScript and,
// at every epoch, holds the planner on the chain's snapshot to ref(full,
// chain) on a bounded pattern, where full is a rebuild of the same state.
// The cypher package's tests pass the evaluator with planning off.
func CheckCypherScript(seed int64, size, epochs int, ref func(full, chain *prov.Graph) *cypher.Evaluator) (Result, error) {
	return checkChainScript(seed, size, epochs, 0, nil, ref)
}

// checkChainScript is the replay loop CheckProvScript, CheckVecScript,
// CheckCypherScript and CheckSolverScript share: perQuery runs on each
// randomized query at every epoch, on a full rebuild (its rows checked
// against the edge columns by DiffSnapshots) and the chain's snapshot, and
// cypherRef (optional) gives the reference diffCypher holds the chain's
// planner to once per epoch.
// Every epoch also compares the property reads of the live graph and of
// every snapshot so far, rebuilt and extended, with the source's.
func checkChainScript(seed int64, size, epochs, queries int,
	perQuery func(full, chain *prov.Graph, q core.Query) error,
	cypherRef func(full, chain *prov.Graph) *cypher.Evaluator) (Result, error) {
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
		full := live.Freeze()
		incr, inc := rep.Graph().ExtendFrozen(prev)
		res.Epochs++
		if inc {
			res.Incremental++
		}
		if err := DiffSnapshots(full.PG(), incr); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
		}
		snaps = append(snaps, full.PG(), incr)
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
			if err := perQuery(full, p, q); err != nil {
				return res, fmt.Errorf("seed %d epoch %d query %d: %w", seed, ep, qi, err)
			}
		}
		if cypherRef != nil {
			if err := diffCypher(rng, p, cypherRef(full, p)); err != nil {
				return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
			}
		}
		prev = incr
	}
	return res, nil
}
