// Command benchmark is the repo's benchmark: four long closed-loop workloads
// against a real provd process, six end-to-end metrics per workload, per-layer
// numbers from the daemon's own /metrics, and an in-process traced replay.
//
//	go run ./benchmark -workload seg_cold -seed 1            # one timed run
//	go run ./benchmark -workload all -seed 1                 # all four
//	go run ./benchmark -workload sum_pd -seed 1 -trace 1     # live run + traced replay, per-layer numbers
//	go run ./benchmark -calibrate                            # noise table into benchmark/README.md
//
// The last line of standard output is one JSON object {correct, attempted,
// failed, metrics}: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with -trace 0; each has a
// regression bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics every workload reports with -trace 1 (zero where
// the workload bypasses the layer). Layer = module name.
var perLayer = []metricDef{
	{"server.http.server_ms_per_op", "ms"},
	{"server.http.client_gap_ms_per_op", "ms"},
	{"server.http.resp_kb_per_op", "KB"},
	{"server.cache.lookups", "count"},
	{"server.cache.hit_share", "ratio"},
	{"server.cache.revalidation_share", "ratio"},
	{"server.cache.entries", "count"},
	{"server.commit.enqueue_ms_per_op", "ms"},
	{"server.commit.append_ms_per_op", "ms"},
	{"server.commit.fsync_ms_per_op", "ms"},
	{"server.commit.publish_ms_per_op", "ms"},
	{"graph.freeze.ms_per_op", "ms"},
	{"graph.freeze.incremental_share", "ratio"},
	{"wal.bytes_per_op", "B"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.group_size_mean", "count"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms_mean", "ms"},
	{"wal.recovery_s", "s"},
	{"wal.replayed_records", "count"},
	{"core.segment_ms", "ms"},
	{"core.similar_paths_ms", "ms"},
	{"core.closure_ms", "ms"},
	{"core.induce_self_ms", "ms"},
	{"core.summarize_ms", "ms"},
	{"core.psg_compaction", "ratio"},
	{"core.spans", "count"},
	{"server.store.segment_miss_ms", "ms"},
	{"server.store.segment_hit_ms", "ms"},
	{"server.http.handler_ms", "ms"},
	{"server.codec_self_ms", "ms"},
	{"cypher.run_ms", "ms"},
	{"gen.pd_ms", "ms"},
	{"graph.freeze_full_ms", "ms"},
	{"client.lat_p99_ms", "ms"},
	{"client.lat_max_ms", "ms"},
	{"client.gen_cpu_ms_per_op", "ms"},
	{"client.slice_spread", "ratio"},
	{"client.speed_factor", "ratio"},
	{"client.speed_samples", "count"},
	{"trace.fidelity", "ratio"},
	{"trace.spans", "count"},
}

// stamp identifies the machine and build a record was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readStamp(root string) stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown", Kernel: "unknown"}
	// The driver's checkout is not a git repository; "unknown" is the honest
	// stamp there.
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}

// record is one run's full output: benchmark/out/run-<workload>.json.
type record struct {
	Stamp    stamp              `json:"stamp"`
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Sizes    map[string]int     `json:"sizes"`
	Correct  bool               `json:"correct"`
	Ops      int                `json:"ops_attempted"`
	Failed   int                `json:"ops_failed"`
	Error    string             `json:"first_error,omitempty"`
	Invalid  []string           `json:"invalid,omitempty"`
	Slices   []float64          `json:"slice_ops_per_s"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
}

func (w *workload) sizes() map[string]int {
	return map[string]int{
		"gen": w.gen, "pool": w.pool, "sum_requests": w.sumReqs, "writes_per_read": w.writesPerRead,
		"warm_reads": w.warmReads, "warm_writes": w.warmWrites, "trace_ops": w.traceOps,
	}
}

// runOne is one run of one workload: plan (with oracle), live run, and with
// trace the in-process replay.
func (e *env) runOne(w *workload, seed int64, seconds int, trace bool, st stamp) (*record, error) {
	pl, err := buildPlan(w, seed)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	live, err := e.runLive(pl, time.Duration(seconds)*time.Second, repeats)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Stamp: st, Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Sizes: w.sizes(),
		Correct: live.failed == 0, Ops: live.attempted, Failed: live.failed,
		Slices: live.sliceRates, EndToEnd: live.e2e, PerLayer: live.layers,
	}
	if live.firstErr != nil {
		rec.Error = live.firstErr.Error()
	}
	// A run whose generator cost more CPU than the server it measured, or
	// whose slices disagree by a quarter, measured the box and not provd. It
	// is flagged, not failed: on a shared host one slice in a few runs dips
	// that far, the median over the slices is built to shrug that off, and
	// the contract this command is run under wants exit code 0.
	if g, s := live.layers["client.gen_cpu_ms_per_op"], live.e2e["cpu_ms_per_op"]; g > s {
		rec.Invalid = append(rec.Invalid, fmt.Sprintf("client.gen_cpu_ms_per_op %.3f exceeds the server's cpu_ms_per_op %.3f", g, s))
	}
	if sp := live.layers["client.slice_spread"]; sp > 0.25 {
		rec.Invalid = append(rec.Invalid, fmt.Sprintf("client.slice_spread %.3f > 0.25", sp))
	}
	if trace {
		traced, err := e.runTrace(pl)
		if err != nil {
			return nil, err
		}
		for k, v := range traced {
			rec.PerLayer[k] = v
		}
		rec.PerLayer["trace.fidelity"] = 0
		if live.serverMsPerOp > 0 {
			rec.PerLayer["trace.fidelity"] = traced["server.http.handler_ms"] / live.serverMsPerOp
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(e.out, "run-"+w.name+".json"), b, 0o644); err != nil {
		return nil, err
	}
	return rec, nil
}

// print writes every metric of the record by name and unit, then the
// contract's result object as the last line.
func (rec *record) print(out io.Writer, trace bool) error {
	s := rec.Stamp
	fmt.Fprintf(out, "# %s seed=%d seconds=%d commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s sizes=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.Kernel, rec.Sizes)
	fmt.Fprintf(out, "# ops_attempted=%d ops_failed=%d slice_ops_per_s=%.4g\n", rec.Ops, rec.Failed, rec.Slices)
	if rec.Error != "" {
		fmt.Fprintf(out, "# first error: %s\n", rec.Error)
	}
	for _, why := range rec.Invalid {
		fmt.Fprintf(out, "# INVALID RUN: %s\n", why)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := map[string]value{}
	emit := func(defs []metricDef, vals map[string]float64, gated bool) error {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				if !gated {
					continue // traced names are absent from an untraced run
				}
				return fmt.Errorf("%s: metric %s was not measured", rec.Workload, d.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is %v", rec.Workload, d.name, v)
			}
			fmt.Fprintf(out, "%-36s %14.4f %s\n", d.name, v, d.unit)
			if gated {
				final[d.name] = value{v, d.unit}
			}
		}
		return nil
	}
	if err := emit(endToEnd, rec.EndToEnd, !trace); err != nil {
		return err
	}
	if err := emit(perLayer, rec.PerLayer, trace); err != nil {
		return err
	}
	if f := rec.PerLayer["trace.fidelity"]; trace && (f < 0.8 || f > 1.25) {
		fmt.Fprintf(out, "# trace.fidelity %.3f is outside 0.8-1.25: the traced layer table does not describe the live run\n", f)
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Ops, rec.Failed, final})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "all", "workload to run: seg_cold, seg_hot, sum_pd, rw_mixed, or all")
	seed := flag.Int64("seed", 1, "workload seed: the order the request pool is cycled in")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds the in-process traced replay and reports the per-layer metrics instead of the end-to-end ones")
	calibrate := flag.Bool("calibrate", false, "run two interleaved sets of runs per workload and write the noise table into benchmark/README.md")
	runs := flag.Int("runs", 5, "runs per set with -calibrate")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	e, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// A signal reaps the child provd and its data directory before exiting;
	// the deferred closes cover every other path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.reapAll()
		os.Exit(130)
	}()

	st := readStamp(e.root)
	if *calibrate {
		if err := e.calibrate(todo, *seconds, *runs, st); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	for _, w := range todo {
		rec, err := e.runOne(w, *seed, *seconds, *trace == 1, st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := rec.print(os.Stdout, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}
