package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pdSumOptions are the PgSum options of the end-to-end sum_pd workload.
var pdSumOptions = core.SumOptions{TypeRadius: 1, K: core.Aggregation{Activity: []string{"command"}}}

// pdWideQueries draws k near-whole-graph segment queries on a Pd graph the
// way the sum_pd workload draws them: two consecutive entities from the
// first tenth of the order of being as sources, two from the last tenth as
// destinations.
func pdWideQueries(tb testing.TB, n, k int) (*core.Engine, []core.Query) {
	tb.Helper()
	fz := gen.Pd(gen.PdConfig{N: n, Seed: 1}).Freeze()
	ents := fz.Entities()
	band := len(ents) / 10
	if band < k+1 {
		tb.Fatalf("Pd-%d has too few entities (%d) for %d segments", n, len(ents), k)
	}
	qs := make([]core.Query, k)
	for i := range qs {
		a, b := i*band/k, len(ents)-2-i*band/k
		qs[i] = core.Query{
			Src: []graph.VertexID{ents[a], ents[a+1]},
			Dst: []graph.VertexID{ents[b], ents[b+1]},
		}
	}
	return core.NewEngine(fz, core.Options{}), qs
}

// pdWideSegments solves pdWideQueries' k queries.
func pdWideSegments(tb testing.TB, n, k int) []*core.Segment {
	tb.Helper()
	eng, qs := pdWideQueries(tb, n, k)
	segs := make([]*core.Segment, 0, k)
	for _, q := range qs {
		seg, err := eng.Segment(q)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, seg)
	}
	return segs
}

// sinkPsg keeps the benchmarked call's result alive.
var sinkPsg *core.Psg

// BenchmarkSummarizePd times the PgSum operator alone (no daemon, no codec)
// on the input shape of the sum_pd workload, then reports where a call
// spends its time (µs per call, from a second, clocked loop the timer does
// not see): g0 + classify, quotient rebuilds, simulations, merge phases,
// assemble — and the work behind it: simulations solved, Kahn sorts and
// merge-phase scans per call.
func BenchmarkSummarizePd(b *testing.B) {
	for _, n := range []int{2000, 5000} {
		for _, k := range []int{2, 3} {
			b.Run(fmt.Sprintf("N=%d/segs=%d", n, k), func(b *testing.B) {
				segs := pdWideSegments(b, n, k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					psg, err := core.Summarize(segs, pdSumOptions)
					if err != nil {
						b.Fatal(err)
					}
					sinkPsg = psg
				}
				b.StopTimer()
				var total core.SumStages
				for i := 0; i < b.N; i++ {
					psg, st, err := core.SummarizeStages(segs, pdSumOptions)
					if err != nil || !reflect.DeepEqual(psg, sinkPsg) {
						b.Fatalf("SummarizeStages: err=%v, or a Psg that is not Summarize's", err)
					}
					total.Input += st.Input
					total.Build += st.Build
					total.Sim += st.Sim
					total.Merge += st.Merge
					total.Assemble += st.Assemble
					total.Sims += st.Sims
					total.Topos += st.Topos
					total.Phases += st.Phases
				}
				for _, m := range []struct {
					name string
					d    time.Duration
				}{{"input", total.Input}, {"build", total.Build}, {"sim", total.Sim}, {"merge", total.Merge}, {"assemble", total.Assemble}} {
					b.ReportMetric(float64(m.d.Microseconds())/float64(b.N), m.name+"-µs/op")
				}
				for _, m := range []struct {
					name string
					n    int
				}{{"sims", total.Sims}, {"topo", total.Topos}, {"phases", total.Phases}} {
					b.ReportMetric(float64(m.n)/float64(b.N), m.name+"/op")
				}
			})
		}
	}
}
