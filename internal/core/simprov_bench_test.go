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
	"repro/internal/prov"
)

// pdPoolQueries draws k queries of the seg_cold pool shape on a frozen Pd
// graph: two consecutive entities at a uniform rank in the first half of the
// order of being as sources, two consecutive in the second half as
// destinations, in the benchmark's poolSeed order.
func pdPoolQueries(tb testing.TB, n, k int) (*core.Engine, []core.Query) {
	tb.Helper()
	fz := gen.Pd(gen.PdConfig{N: n, Seed: 1}).Freeze()
	return core.NewEngine(fz, core.Options{}), poolQueries(tb, fz, k)
}

// poolQueries draws pdPoolQueries' k queries on p.
func poolQueries(tb testing.TB, p *prov.Graph, k int) []core.Query {
	ents := p.Entities()
	half := len(ents)/2 - 1
	if half < 1 {
		tb.Fatalf("%d vertices hold too few entities (%d)", p.NumVertices(), len(ents))
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
	return qs
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

// BenchmarkSimilarPathsPd times the VC2 solve alone (the SimProvTst sweep;
// no closures, no induction, no codec) on the query shape of the
// seg_cold workload. One op is one pass over an 8-query pool. The permuted
// cases relabel the graph's ids by a random permutation (permute), so the
// sweep walks a topological rank instead of the id; the snapshot builds that
// rank before the timer starts, as a served snapshot does on its first query.
// N=100000 is Fig. 5a's paper scale with DefaultQuery alone, and
// diamonds/k=2000 the adversary that fragments depth sets (DiamondChain,
// 23k vertices). promoted/op counts the sets the sweep held as word windows
// instead of run lists (0 on Pd).
func BenchmarkSimilarPathsPd(b *testing.B) {
	for _, c := range []struct {
		name string
		load func(b *testing.B) (*core.Engine, []core.Query)
	}{
		{"N=2000", poolLoad(2000, false)},
		{"N=5000", poolLoad(5000, false)},
		{"N=20000", poolLoad(20000, false)},
		{"N=2000/permuted", poolLoad(2000, true)},
		{"N=20000/permuted", poolLoad(20000, true)},
		{"N=100000", func(b *testing.B) (*core.Engine, []core.Query) {
			p := gen.Pd(gen.PdConfig{N: 100000, Seed: 1}).Freeze()
			src, dst := gen.DefaultQuery(p)
			return core.NewEngine(p, core.Options{}), []core.Query{{Src: src, Dst: dst}}
		}},
		{"diamonds/k=2000", func(b *testing.B) (*core.Engine, []core.Query) {
			p, q := core.DiamondChain(2000, 2)
			return core.NewEngine(p.Freeze(), core.Options{}), []core.Query{q}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, qs := c.load(b)
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
			b.StopTimer()
			promoted := 0
			for _, q := range qs {
				promoted += core.SweepPromotions(eng, q)
			}
			b.ReportMetric(float64(promoted), "promoted/op")
		})
	}
}

// poolLoad draws the 8-query seg_cold pool on Pd-n, its ids permuted or not.
func poolLoad(n int, permuted bool) func(b *testing.B) (*core.Engine, []core.Query) {
	return func(b *testing.B) (*core.Engine, []core.Query) {
		eng, qs := pdPoolQueries(b, n, 8)
		if !permuted {
			return eng, qs
		}
		pp, perm, _ := permute(eng.P, 1)
		eng = core.NewEngine(pp.Freeze(), core.Options{})
		for i, q := range qs {
			qs[i] = core.Query{Src: mapIDs(perm, q.Src), Dst: mapIDs(perm, q.Dst)}
		}
		if rank, ok := eng.P.OrderOfBeing(); !ok || rank.IsID() {
			b.Fatal("the permuted graph's order of being is the id")
		}
		return eng, qs
	}
}
