package difftest

import "testing"

// The property-based gate for incremental snapshots: many randomized
// ingest scripts, each diffing the incremental snapshot chain against full
// rebuilds at every epoch. Short mode still runs well over 100 scripts
// (the acceptance bar for this harness); long mode scales the coverage up.

// TestGraphScriptsDifferential replays randomized graph-level scripts —
// growing label sets, interleaved vertex/edge appends, properties — and
// requires zero divergence.
func TestGraphScriptsDifferential(t *testing.T) {
	scripts, ops, epochs := 120, 60, 6
	if !testing.Short() {
		scripts, ops, epochs = 400, 120, 10
	}
	incremental := 0
	for seed := 0; seed < scripts; seed++ {
		res, err := CheckGraphScript(int64(seed), ops, epochs)
		if err != nil {
			t.Fatal(err)
		}
		incremental += res.Incremental
	}
	// The harness is only meaningful if the incremental path is actually
	// exercised; a silent always-fallback would vacuously pass.
	if incremental == 0 {
		t.Fatal("no script epoch took the incremental freeze path")
	}
	t.Logf("%d scripts, %d incremental epochs", scripts, incremental)
}

// TestProvScriptsDifferential replays gen.Pd lifecycle graphs in randomized
// batches and additionally diffs PgSeg segment results (vertices, edges,
// rule attribution, support sets) between the snapshot kinds at every epoch.
func TestProvScriptsDifferential(t *testing.T) {
	scripts, size, epochs, queries := 40, 150, 5, 3
	if !testing.Short() {
		scripts, size, epochs, queries = 120, 400, 8, 5
	}
	incremental := 0
	for seed := 0; seed < scripts; seed++ {
		res, err := CheckProvScript(int64(seed), size, epochs, queries)
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

// TestLiveFrozenDifferential replays randomized scripts through
// incremental snapshot chains and, at every epoch, diffs a full rebuild of
// the replayer's graph, whose rows are held to the naive rows of its edge
// columns, against the chain's snapshot (the two row layouts behind PgSeg's
// one walk): segments, ancestry closures and bounded Cypher pattern rows
// must be bit-identical. (The name is from when the live graph kept rows of
// its own.)
func TestLiveFrozenDifferential(t *testing.T) {
	scripts, size, epochs, queries := 30, 150, 4, 3
	if !testing.Short() {
		scripts, size, epochs, queries = 80, 400, 6, 5
	}
	incremental := 0
	for seed := 0; seed < scripts; seed++ {
		res, err := CheckVecScript(int64(seed), size, epochs, queries)
		if err != nil {
			t.Fatal(err)
		}
		incremental += res.Incremental
	}
	// The chain side must have been diffed over extended (two-segment) CSR
	// blocks, not just fresh contiguous snapshots.
	if incremental == 0 {
		t.Fatal("no script epoch took the incremental freeze path")
	}
	t.Logf("%d scripts, %d incremental epochs", scripts, incremental)
}

// FuzzExtendFrozen lets the fuzzer hunt for divergent ingest scripts beyond
// the fixed seed sweep, property reads included. The checked-in corpus
// (testdata/fuzz/FuzzExtendFrozen) holds seeds whose graph scripts carry
// elements with 20+ keys, empty and non-ASCII strings and 50+ edge
// properties.
func FuzzExtendFrozen(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := CheckGraphScript(seed, 40, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckProvScript(seed, 80, 4, 2); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLiveFrozen hunts for scripts where a full rebuild and the snapshot
// chain (or the rebuild and the edge columns) diverge beyond the fixed seed
// sweep.
func FuzzLiveFrozen(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := CheckVecScript(seed, 100, 4, 2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSolverDifferential runs the VC2 solvers (SimProvTst ≡ SimProvAlg, plus
// CflrB on the short-mode sizes — see solverdiff.go) on a full rebuild and
// the chain's snapshot over randomized incremental snapshot chains.
func TestSolverDifferential(t *testing.T) {
	scripts, size, epochs, queries := 25, 120, 4, 2
	if !testing.Short() {
		scripts, size, epochs, queries = 60, 300, 6, 4
	}
	incremental := 0
	for seed := 0; seed < scripts; seed++ {
		res, err := CheckSolverScript(int64(seed), size, epochs, queries)
		if err != nil {
			t.Fatal(err)
		}
		incremental += res.Incremental
	}
	// The solvers' row unions must have been diffed over extended
	// (two-segment) CSR blocks, not just fresh contiguous snapshots.
	if incremental == 0 {
		t.Fatal("no script epoch took the incremental freeze path")
	}
	t.Logf("%d scripts, %d incremental epochs", scripts, incremental)
}

// FuzzVecSolver hunts for scripts where the solvers disagree.
func FuzzVecSolver(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := CheckSolverScript(seed, 90, 4, 2); err != nil {
			t.Fatal(err)
		}
	})
}
