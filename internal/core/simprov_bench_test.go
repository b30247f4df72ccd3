package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pdPoolQueries draws k queries of the seg_cold pool shape on a frozen Pd
// graph: two consecutive entities at a uniform rank in the first half of the
// order of being as sources, two consecutive in the second half as
// destinations, in the benchmark's poolSeed order.
func pdPoolQueries(tb testing.TB, n, k int) (*core.Engine, []core.Query) {
	tb.Helper()
	fz := gen.Pd(gen.PdConfig{N: n, Seed: 1}).Freeze()
	ents := fz.Entities()
	half := len(ents)/2 - 1
	if half < 1 {
		tb.Fatalf("Pd-%d has too few entities (%d)", n, len(ents))
	}
	rng := rand.New(rand.NewSource(20190001)) // benchmark/workload.go poolSeed
	qs := make([]core.Query, k)
	for i := range qs {
		a, b := rng.Intn(half), len(ents)-2-rng.Intn(half)
		qs[i] = core.Query{
			Src: []graph.VertexID{ents[a], ents[a+1]},
			Dst: []graph.VertexID{ents[b], ents[b+1]},
		}
	}
	return core.NewEngine(fz, core.Options{}), qs
}

// sinkVC2 keeps the benchmarked call's result alive.
var sinkVC2 *bitmap.Bitset

// BenchmarkSegmentPd times the whole PgSeg operator (no daemon, no codec) on
// the seg_cold pool shape, one op a pass over an 8-query pool, then reports
// where an op spends its time (µs per op, from a second, clocked loop the
// timer does not see): the two ancestry closures, the VC2 solve, induce.
func BenchmarkSegmentPd(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			eng, qs := pdPoolQueries(b, n, 8)
			segs := make([]*core.Segment, len(qs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, q := range qs {
					seg, err := eng.Segment(q)
					if err != nil {
						b.Fatal(err)
					}
					segs[j] = seg
				}
			}
			b.StopTimer()
			var total core.SegStages
			for i := 0; i < b.N; i++ {
				for j, q := range qs {
					seg, st, err := core.SegmentStages(eng, q)
					if err != nil || !reflect.DeepEqual(seg, segs[j]) {
						b.Fatalf("SegmentStages: err=%v, or a segment that is not Segment's", err)
					}
					total.Closure += st.Closure
					total.VC2 += st.VC2
					total.Induce += st.Induce
				}
			}
			for _, m := range []struct {
				name string
				d    time.Duration
			}{{"closure", total.Closure}, {"vc2", total.VC2}, {"induce", total.Induce}} {
				b.ReportMetric(float64(m.d.Microseconds())/float64(b.N), m.name+"-µs/op")
			}
		})
	}
}

// BenchmarkSimilarPathsPd times the VC2 solve alone (the three-sweep
// SimProvTst; no closures, no induction, no codec) on the query shape of the
// seg_cold workload. One op is one pass over an 8-query pool.
func BenchmarkSimilarPathsPd(b *testing.B) {
	for _, n := range []int{2000, 5000, 20000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			eng, qs := pdPoolQueries(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					vc2, err := eng.SimilarPaths(q)
					if err != nil {
						b.Fatal(err)
					}
					sinkVC2 = vc2
				}
			}
		})
	}
}
