package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// toy shrinks a workload to smoke-test size: the same code paths, a Pd graph
// of 300 vertices and a handful of requests.
func toy(w workload) workload {
	w.gen, w.pool, w.warmReads, w.traceOps = 300, 8, 8, 10
	if w.sumReqs > 0 {
		w.sumReqs, w.warmReads = 4, 4
	}
	if w.warmWrites > 0 {
		w.warmWrites = 32
	}
	return w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads, live and traced, at toy scale: every
// end-to-end and per-layer name is emitted exactly once, well-formed and
// finite, no op fails (the rw_mixed kill-restart check included), and the
// last line of output is the contract's result object.
func TestSmoke(t *testing.T) {
	e, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	st := readStamp(e.root)
	for _, full := range workloads {
		w := toy(full)
		rec, err := e.runOne(&w, 7, 1, true, st)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Failed != 0 || !rec.Correct {
			t.Errorf("%s: %d of %d ops failed: %s", w.name, rec.Failed, rec.Ops, rec.Error)
		}
		for _, trace := range []bool{false, true} {
			defs, vals := endToEnd, rec.EndToEnd
			if trace {
				defs, vals = perLayer, rec.PerLayer
			}
			var out bytes.Buffer
			if err := rec.print(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || *last.Attempted < 1 {
				t.Errorf("%s trace=%v: result object lacks correct/attempted/failed: %s", w.name, trace, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result object has %d metrics, want %d", w.name, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := vals[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (measured: %v)", w.name, d.name, v, ok)
				}
				m, ok := last.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%v: result object lacks %s in %s", w.name, trace, d.name, d.unit)
				}
				if n := strings.Count(out.String(), "\n"+d.name+" "); n != 1 {
					t.Errorf("%s trace=%v: %s printed %d times", w.name, trace, d.name, n)
				}
			}
		}
		// Each workload exercises the layer it was chosen for and bypasses
		// the one it was not.
		l := rec.PerLayer
		switch w.name {
		case "seg_cold":
			if l["server.cache.lookups"] != 0 || l["core.spans"] == 0 {
				t.Errorf("seg_cold: %v cache lookups, %v core spans; want 0 and > 0", l["server.cache.lookups"], l["core.spans"])
			}
		case "seg_hot":
			if l["server.cache.hit_share"] != 1 || l["core.spans"] != 0 {
				t.Errorf("seg_hot: hit share %v, %v core spans; want 1 and 0", l["server.cache.hit_share"], l["core.spans"])
			}
		case "sum_pd":
			if l["core.summarize_ms"] <= 0 || l["core.psg_compaction"] <= 0 {
				t.Errorf("sum_pd: summarize %v ms, compaction %v; want both > 0", l["core.summarize_ms"], l["core.psg_compaction"])
			}
		case "rw_mixed":
			if l["server.cache.revalidation_share"] != 1 || l["wal.fsyncs_per_op"] <= 0 {
				t.Errorf("rw_mixed: revalidation share %v, %v fsyncs/op; want 1 and > 0", l["server.cache.revalidation_share"], l["wal.fsyncs_per_op"])
			}
		}
		if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables in the code: the same
// workloads and metric names, units and order, well-formed names, and bounds
// within the benchmark's own 10% cap.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json says %s in %s, the code %s in %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, d.name)
			}
			seen[d.name] = true
			if bounded != (got[i].Bound != nil) {
				t.Errorf("%s: %s bound presence is wrong", kind, d.name)
			}
			if bounded && (*got[i].Bound <= 0 || *got[i].Bound > maxBound) {
				t.Errorf("%s: %s bound %v is outside (0, %v]", kind, d.name, *got[i].Bound, maxBound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
