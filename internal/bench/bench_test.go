package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph/difftest"
)

// TestFigureRegistry: every advertised panel id resolves and unknown ids
// do not.
func TestFigureRegistry(t *testing.T) {
	if len(IDs()) != 14 {
		t.Fatalf("want 14 panels, got %v", IDs())
	}
	if _, ok := ByID("9z", ScaleSmall); ok {
		t.Fatal("phantom figure")
	}
}

// TestRunShardIngestTiny drives the sharded-ingest measurement core on a
// miniature workload: every batch must commit and the rate be positive.
func TestRunShardIngestTiny(t *testing.T) {
	rate, err := runShardIngest(2, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate %f", rate)
	}
}

// TestRunHotNeighborTiny runs the hot-neighbor measurement core with a
// miniature shape, unthrottled and rate-limited: both must yield a
// positive cold-store p99.
func TestRunHotNeighborTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-neighbor probe pays real fsyncs")
	}
	for _, rate := range []float64{0, 50} {
		p99, err := runHotNeighbor(2, 1, 5, rate)
		if err != nil {
			t.Fatalf("rate=%v: %v", rate, err)
		}
		if p99 <= 0 {
			t.Fatalf("rate=%v: p99 %v", rate, p99)
		}
	}
}

// TestRunReplTiny drives the replication measurement core on a miniature
// workload: the leader commits, the follower catches up over real HTTP,
// both rates are positive and no record lag remains.
func TestRunReplTiny(t *testing.T) {
	commit, apply, lag, residual, err := runRepl(2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if commit <= 0 || apply <= 0 {
		t.Fatalf("rates: commit %f apply %f", commit, apply)
	}
	if residual != 0 {
		t.Fatalf("follower left %d records behind after WaitEpoch", residual)
	}
	if lag.Count == 0 {
		t.Fatal("apply-lag histogram empty")
	}
}

// TestFigShardTiny runs the shard panel end to end: every cell must be a
// measurement, and the workload sizes must satisfy the >=8-writer bar the
// panel exists to document.
func TestFigShardTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded ingest sweep pays real fsyncs")
	}
	if w, _ := shardWorkload(ScaleSmall); w < 8 {
		t.Fatalf("small-scale writer pool %d, want >=8", w)
	}
	fig := FigShard(ScaleSmall)
	if len(fig.Rows) != 3 {
		t.Fatalf("want 3 shard points, got %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			if c := r.Cells[s]; c == "" || strings.HasPrefix(c, "err") {
				t.Fatalf("bad cell %s at stores=%s: %q", s, r.X, c)
			}
		}
	}
}

// TestRecordFigure: the persisted history round-trips and accumulates
// entries across runs, keeping figures separate.
func TestRecordFigure(t *testing.T) {
	path := t.TempDir() + "/BENCH_test.json"
	fig := Figure{
		ID:     "srv",
		Series: []string{"read req/s"},
		Rows:   []Row{{X: "1", Cells: map[string]string{"read req/s": "100"}}},
	}
	if err := RecordFigure(path, fig, ScaleSmall); err != nil {
		t.Fatal(err)
	}
	fig.Rows[0].Cells["read req/s"] = "200"
	if err := RecordFigure(path, fig, ScaleSmall); err != nil {
		t.Fatal(err)
	}
	other := Figure{ID: "csr", Series: []string{"speedup"},
		Rows: []Row{{X: "1000", Cells: map[string]string{"speedup": "2.0x"}}}}
	if err := RecordFigure(path, other, ScaleMedium); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist map[string][]BenchEntry
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatalf("history does not round-trip: %v", err)
	}
	if len(hist["srv"]) != 2 || len(hist["csr"]) != 1 {
		t.Fatalf("entry counts: srv=%d csr=%d", len(hist["srv"]), len(hist["csr"]))
	}
	if hist["srv"][0].Rows[0].Cells["read req/s"] != "100" || hist["srv"][1].Rows[0].Cells["read req/s"] != "200" {
		t.Fatalf("entries out of order: %+v", hist["srv"])
	}
	if hist["csr"][0].Scale != string(ScaleMedium) || hist["csr"][0].Time == "" {
		t.Fatalf("metadata missing: %+v", hist["csr"][0])
	}

	// A corrupt history must error out, not be silently overwritten.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RecordFigure(path, fig, ScaleSmall); err == nil {
		t.Fatal("corrupt history accepted")
	}
}

// TestFigCSRTiny runs the CSR-vs-filtered panel on the smallest scale and
// sanity-checks every cell is a measurement.
func TestFigCSRTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("CSR sweep regenerates Pd graphs")
	}
	fig := FigCSR(ScaleSmall)
	if len(fig.Rows) != 3 {
		t.Fatalf("want 3 size points, got %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			if r.Cells[s] == "" {
				t.Fatalf("empty cell %s at N=%s", s, r.X)
			}
		}
	}
}

// TestVecEquivalence drives the vec panel's inline equality assertion on a
// tiny graph — the planned (frozen snapshot) and naive (live graph) Cypher
// evaluations must return the same rows before any timing is trusted. This is the CI smoke for the
// panel; the full sweep runs via provbench.
func TestVecEquivalence(t *testing.T) {
	p := pdGraph(gen.PdConfig{N: 500, Seed: 1})
	src, dst := gen.QueryAtRank(p, 0)
	fz := p.Freeze()
	assertPlannerEqualsNaive(p, fz, src, dst) // panics on divergence
	if d := timeCypher(fz, src, dst, 1); d <= 0 {
		t.Fatalf("cypher timing %v", d)
	}
}

// TestFigVecTiny runs the naive-vs-planned panel on the smallest scale and
// sanity-checks every cell is a measurement.
func TestFigVecTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("vec sweep regenerates Pd graphs")
	}
	fig := FigVec(ScaleSmall)
	if len(fig.Rows) != 2 {
		t.Fatalf("want 2 size points, got %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			if r.Cells[s] == "" {
				t.Fatalf("empty cell %s at N=%s", s, r.X)
			}
		}
	}
}

// TestSegSolverEquivalence: the VC2 solvers Fig. 5a-d time against each
// other must agree on the panels' own graph and query shape — on the live
// graph the panels run on and on its frozen snapshot — before any of their
// timings mean anything.
func TestSegSolverEquivalence(t *testing.T) {
	p := pdGraph(gen.PdConfig{N: 500, Seed: 1})
	src, dst := gen.QueryAtRank(p, 0)
	q := core.Query{Src: src, Dst: dst}
	fz := p.Freeze()
	if err := difftest.DiffSolvers(p, fz, q); err != nil {
		t.Fatal(err)
	}
	if err := difftest.DiffLiveFrozen(p, fz, q); err != nil {
		t.Fatal(err)
	}
}

// TestSrvThroughputTiny drives the server-throughput panel end to end on a
// tiny workload: every cell must carry a measured rate, not an error.
func TestSrvThroughputTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("server throughput sweep takes ~10s")
	}
	fig := SrvThroughput(ScaleSmall)
	if len(fig.Rows) != 4 {
		t.Fatalf("want 4 concurrency points, got %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			c := r.Cells[s]
			if c == "" || c == "err" {
				t.Fatalf("bad cell %s at clients=%s: %q (err cell: %q)", s, r.X, c, r.Cells[strings.TrimSuffix(s, " req/s")+" hit%"])
			}
		}
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
