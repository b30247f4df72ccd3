package difftest

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/prov"
)

// Solver-level differential: SimProvTst and SimProvAlg (and the CflrB
// baseline, where it is affordable) are the paper's interchangeable VC2
// solvers — Thm. 1/2's contract is that they compute the same set.
// DiffSolvers runs them on one query against both representations of the
// same graph state, the live graph and a frozen snapshot, and asserts one
// VC2 set, then diffs whole segments across solver and representation.
// CheckSolverScript replays that over incremental ExtendFrozen chains, so
// the solvers' row reads see two-segment extended CSR rows, not just
// freshly frozen contiguous ones.

// cflrbMaxVertices bounds the graphs CflrB joins the comparison on: the
// generic subcubic baseline is the slowest of the three by orders of
// magnitude (core's TestSolverEquivalenceOnPd affords it up to this size).
const cflrbMaxVertices = 150

// DiffSolvers asserts every solver yields the same VC2 set on the live graph
// and on the frozen snapshot of the same state, then that the default
// solver's segment on the snapshot equals SimProvAlg's on the live graph.
func DiffSolvers(live, frozen *prov.Graph, q core.Query) error {
	solvers := []core.SolverKind{core.SolverTst, core.SolverAlg}
	if frozen.NumVertices() <= cflrbMaxVertices {
		solvers = append(solvers, core.SolverCflrB)
	}
	var ref []uint32
	var refName string
	for _, rep := range []struct {
		name string
		p    *prov.Graph
	}{{"frozen", frozen}, {"live", live}} {
		for _, solver := range solvers {
			name := fmt.Sprintf("%v/%s", solver, rep.name)
			set, err := core.NewEngine(rep.p, core.Options{Solver: solver}).SimilarPaths(q)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			got := set.ToSlice()
			if ref == nil {
				ref, refName = got, name
				continue
			}
			if !slices.Equal(got, ref) {
				return fmt.Errorf("VC2 mismatch: %s has %d vertices, %s has %d", name, len(got), refName, len(ref))
			}
		}
	}
	ts, terr := core.NewEngine(frozen, core.Options{}).Segment(q)
	as, aerr := core.NewEngine(live, core.Options{Solver: core.SolverAlg}).Segment(q)
	if (terr == nil) != (aerr == nil) {
		return fmt.Errorf("segment error mismatch: SimProvTst/frozen %v vs SimProvAlg/live %v", terr, aerr)
	}
	if terr != nil {
		return nil
	}
	return diffSegPair(ts, as)
}

// CheckSolverScript replays a gen.Pd lifecycle graph in randomized edge
// batches through an incremental snapshot chain and runs DiffSolvers on
// randomized queries at every epoch.
func CheckSolverScript(seed int64, size, epochs, queries int) (Result, error) {
	return checkChainScript(seed, size, epochs, queries, DiffSolvers, nil)
}
