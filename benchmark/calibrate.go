package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// startingBound is each end-to-end metric's regression bound before
// calibration. -calibrate recommends the largest of the starting bound, three
// times the worst quartile spread seen (the driver accepts a benchmark whose
// spreads stay within the bound and asks for a third of it) and twice the
// worst gap between the two sets' medians, never beyond maxBound.
var startingBound = map[string]float64{
	"setup_s": 0.10, "ops_per_s": 0.06, "lat_p50_ms": 0.06, "lat_p90_ms": 0.10, "cpu_ms_per_op": 0.06, "rss_peak_mb": 0.05,
}

// maxBound is the widest bound BENCHMARK.json may carry.
const maxBound = 0.25

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) — the figure the driver computes.
func quartileSpread(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	q := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		j = min(max(j, 1), ld-1)
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	med := medianFloat(d)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// speedRow is the calibration table's row for the host's own movement.
const speedRow = "client.speed_factor"

const (
	calBegin = "<!-- calibration:begin -->"
	calEnd   = "<!-- calibration:end -->"
)

// calibrate runs two interleaved sets (A B A B ...) of runs per workload on
// this one commit, each run with another seed, and reports per metric the two
// medians, how much worse B's is than A's, and each set's quartile spread.
// The table replaces the one between the calibration markers of README.md.
func (e *env) calibrate(todo []*workload, seconds, runs int, st stamp) error {
	var tbl bytes.Buffer
	fmt.Fprintf(&tbl, "Measured %s on commit %s, %s, GOMAXPROCS=%d, nproc=%d, %s, kernel %s: two interleaved sets of %d runs of %d s per workload, every run with another seed.\n\n",
		time.Now().UTC().Format("2006-01-02"), st.Commit, st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.CPUModel, st.Kernel, runs, seconds)
	fmt.Fprintln(&tbl, "| workload | metric | median A | median B | B worse by | spread A | spread B |")
	fmt.Fprintln(&tbl, "|---|---|---|---|---|---|---|")
	flagged := 0
	worstGap := map[string]float64{}
	worstSpread := map[string]float64{}
	for _, w := range todo {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			rec, err := e.runOne(w, int64(101+i), seconds, false, st)
			if err != nil {
				return err
			}
			if !rec.Correct {
				return fmt.Errorf("%s seed %d: %d ops failed: %s", w.name, rec.Seed, rec.Failed, rec.Error)
			}
			flagged += len(rec.Invalid)
			for k, v := range rec.EndToEnd {
				sets[i%2][k] = append(sets[i%2][k], v)
			}
			sets[i%2][speedRow] = append(sets[i%2][speedRow], rec.PerLayer["client.speed_factor"])
			fmt.Printf("%s set %c run %d/%d: %v\n", w.name, 'A'+rune(i%2), i/2+1, runs, rec.EndToEnd)
		}
		for _, d := range endToEnd {
			a, b := medianFloat(sets[0][d.name]), medianFloat(sets[1][d.name])
			worse := (b - a) / a
			if d.name == "ops_per_s" { // the one metric where higher is better
				worse = (a - b) / a
			}
			sa, sb := quartileSpread(sets[0][d.name]), quartileSpread(sets[1][d.name])
			fmt.Fprintf(&tbl, "| %s | %s | %.4g | %.4g | %+.2f%% | %.2f%% | %.2f%% |\n", w.name, d.name, a, b, 100*worse, 100*sa, 100*sb)
			worstGap[d.name] = math.Max(worstGap[d.name], math.Abs(worse))
			worstSpread[d.name] = math.Max(worstSpread[d.name], math.Max(sa, sb))
		}
		// How much the host itself moved between the runs: what the timings
		// above would have spread by without the speed reference.
		a, b := medianFloat(sets[0][speedRow]), medianFloat(sets[1][speedRow])
		fmt.Fprintf(&tbl, "| %s | *%s* | %.4g | %.4g | %+.2f%% | %.2f%% | %.2f%% |\n", w.name, speedRow, a, b, 100*(a-b)/a,
			100*quartileSpread(sets[0][speedRow]), 100*quartileSpread(sets[1][speedRow]))
	}
	fmt.Fprintf(&tbl, "\n%d of the %d runs were flagged invalid (a slice more than 25%% off, or a generator costlier than the server).\n", flagged, 2*runs*len(todo))
	fmt.Fprintln(&tbl, "\n| metric | starting bound | worst gap | worst spread | bound = max(start, 3 x spread, 2 x gap), capped at 25% |")
	fmt.Fprintln(&tbl, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		bound := math.Min(maxBound, math.Max(startingBound[d.name], math.Max(3*worstSpread[d.name], 2*worstGap[d.name])))
		fmt.Fprintf(&tbl, "| %s | %.0f%% | %.2f%% | %.2f%% | %.1f%% |\n", d.name, 100*startingBound[d.name], 100*worstGap[d.name], 100*worstSpread[d.name], 100*bound)
	}
	fmt.Print(tbl.String())

	readme := filepath.Join(e.root, "benchmark", "README.md")
	doc, err := os.ReadFile(readme)
	if err != nil {
		return err
	}
	head, rest, ok1 := strings.Cut(string(doc), calBegin)
	_, tail, ok2 := strings.Cut(rest, calEnd)
	if !ok1 || !ok2 {
		return fmt.Errorf("%s has no %s ... %s section to hold the table", readme, calBegin, calEnd)
	}
	return os.WriteFile(readme, []byte(head+calBegin+"\n"+tbl.String()+calEnd+tail), 0o644)
}
