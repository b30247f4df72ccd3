package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph/difftest"
	"repro/internal/prov"
)

// TestFigureRegistry pins the panel list, in print order, and checks that
// the retired serving and durability panels and unknown ids do not resolve.
func TestFigureRegistry(t *testing.T) {
	want := []string{"5a", "5b", "5c", "5d", "5e", "5f", "5g", "5h"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Fatalf("panels %v, want %v", got, want)
	}
	for _, id := range []string{"srv", "csr", "vec", "qos", "repl", "shard", "9z"} {
		if _, ok := ByID(id, ScaleSmall); ok {
			t.Fatalf("panel %q resolves", id)
		}
	}
}

// TestTimeVC2Cells: a Fig. 5a-d cell reads "oom" only when the solver
// exhausts its fact budget; any other error is a broken query and panics
// instead of passing for the paper's OOM.
func TestTimeVC2Cells(t *testing.T) {
	p := pdGraph(gen.PdConfig{N: 500, Seed: 1})
	src, dst := gen.QueryAtRank(p, 0)
	if c := timeVC2(p, src, dst, core.Options{Solver: core.SolverAlg, MaxFacts: 1}); c != "oom" {
		t.Fatalf("fact budget of 1: cell %q, want oom", c)
	}
	var cell string
	panicked := func() (ok bool) {
		defer func() { ok = recover() != nil }()
		cell = timeVC2(p, src, p.Activities()[:1], core.Options{Solver: core.SolverTst})
		return false
	}()
	if !panicked {
		t.Fatalf("query with an activity destination printed %q instead of panicking", cell)
	}
}

// TestSegSolverEquivalence: the VC2 solvers Fig. 5a-d time against each
// other must agree on the panels' own graph and query shape — on the full
// snapshot the panels run on and on an incrementally extended snapshot of
// the same graph — before any of their timings mean anything.
func TestSegSolverEquivalence(t *testing.T) {
	cfg := gen.PdConfig{N: 500, Seed: 1}
	p := pdGraph(cfg)
	src, dst := gen.QueryAtRank(p, 0)
	q := core.Query{Src: src, Dst: dst}
	// The chain side: the same graph replayed in two commits, 85% of its
	// edges and then the rest, the second extending the first's snapshot.
	base := gen.Pd(cfg).PG()
	rep := difftest.NewReplayer(base)
	live := prov.Wrap(rep.Graph())
	rep.StepEdges(base.NumEdges() * 17 / 20)
	prev := live.Freeze()
	rep.StepEdges(base.NumEdges())
	rep.FinishVertices()
	chain, incremental := live.ExtendFrozen(prev)
	if !incremental {
		t.Fatal("the chain side is a full rebuild")
	}
	if err := difftest.DiffSolvers(p, chain, q); err != nil {
		t.Fatal(err)
	}
	if err := difftest.DiffSegments(p, chain, q); err != nil {
		t.Fatal(err)
	}
}

// TestCRFiguresShape runs the cheap summarization panels end to end and
// checks structural properties of the output: PgSum never worse than pSum,
// all cells populated, render works.
func TestCRFiguresShape(t *testing.T) {
	for _, id := range []string{"5e", "5h"} {
		fig, ok := ByID(id, ScaleSmall)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		if len(fig.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		for _, r := range fig.Rows {
			pg, ps := r.Cells["PgSum"], r.Cells["pSum"]
			if pg == "" || ps == "" {
				t.Fatalf("%s: empty cell at x=%s", id, r.X)
			}
			if pg > ps { // string compare works: same width %.3f in [0,1)
				t.Errorf("%s x=%s: PgSum (%s) worse than pSum (%s)", id, r.X, pg, ps)
			}
		}
		var buf bytes.Buffer
		fig.Render(&buf)
		if !strings.Contains(buf.String(), "Fig "+id) {
			t.Fatalf("%s: render missing header", id)
		}
	}
}

// TestRuntimeFigureTiny runs a miniature Fig 5a-style measurement to cover
// the timing path without heavy graphs.
func TestRuntimeFigureTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime sweep takes ~20s")
	}
	fig := Fig5b(ScaleSmall)
	if len(fig.Rows) != 6 {
		t.Fatalf("want 6 skew points, got %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			if r.Cells[s] == "" {
				t.Fatalf("empty cell %s at %s", s, r.X)
			}
		}
	}
}
