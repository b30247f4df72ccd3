package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// inducedCase is a benchmark input of BenchmarkInduce: an engine and the
// queries whose induce step it times.
type inducedCase struct {
	name string
	eng  *core.Engine
	qs   []core.Query
}

// pd100k builds the Pd-100000 snapshot the Pd-100000 cases share.
var pd100k = sync.OnceValue(func() *prov.Graph { return gen.Pd(gen.PdConfig{N: 100000, Seed: 1}).Freeze() })

// induceCases are dense and sparse segments: the seg_cold pool at
// Pd-20000 (segments of a median 69% of the graph), Pd-100000 queries at
// QueryAtRank 90, 95 and 98, Pd-100000 near queries (source and
// destination pairs 200 entities apart, eight ranks, about 11% of the
// graph) and one query per 250th segment of an Sd graph of 2000 segments
// (~71 vertices each, well under 1%).
func induceCases(tb testing.TB) []inducedCase {
	eng, qs := pdPoolQueries(tb, 20000, 64)
	cases := []inducedCase{{"seg_cold/Pd-20000", eng, qs}}
	p := pd100k()
	eng = core.NewEngine(p, core.Options{})
	for _, rank := range []int{90, 95, 98} {
		src, dst := gen.QueryAtRank(p, rank)
		cases = append(cases, inducedCase{fmt.Sprintf("rank%d/Pd-100000", rank), eng, []core.Query{{Src: src, Dst: dst}}})
	}
	ents := p.Entities()
	qs = nil
	for i := 1; i <= 8; i++ {
		a := i * (len(ents) - 202) / 9
		qs = append(qs, core.Query{
			Src: []graph.VertexID{ents[a], ents[a+1]},
			Dst: []graph.VertexID{ents[a+200], ents[a+201]},
		})
	}
	cases = append(cases, inducedCase{"near/Pd-100000", eng, qs})
	sd, segs := gen.Sd(gen.SdConfig{Segments: 2000, Seed: 3})
	qs = nil
	for i := 0; i < len(segs); i += 250 {
		vs := segs[i].Vertices()
		qs = append(qs, core.Query{Src: vs[:1], Dst: vs[len(vs)-1:]})
	}
	return append(cases, inducedCase{"Sd-2000", core.NewEngine(sd.Freeze(), core.Options{}), qs})
}

// sinkSeg keeps the benchmarked call's result alive.
var sinkSeg *core.Segment

// BenchmarkInduce times Segment's induce step alone (VC3, expansions, VC4
// and ES, rules and the support set; the closures and VC2 are solved before
// the timer starts) and AdjustExpand by K=2 from the query vertices, on
// dense and sparse segments (induceCases). One op is one pass over the
// case's queries; µs/call is per query.
func BenchmarkInduce(b *testing.B) {
	for _, c := range induceCases(b) {
		eng, qs := c.eng, c.qs
		steps := make([]func() *core.Segment, len(qs))
		segs := make([]*core.Segment, len(qs))
		for i, q := range qs {
			step, err := core.InduceStep(eng, q)
			if err != nil {
				b.Fatal(err)
			}
			steps[i] = step
			segs[i] = step()
		}
		report := func(b *testing.B, d time.Duration) {
			b.ReportMetric(float64(d.Microseconds())/float64(b.N*len(qs)), "µs/call")
			b.ReportMetric(0, "ns/op")
		}
		b.Run(c.name+"/segment", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				for _, step := range steps {
					sinkSeg = step()
				}
			}
			report(b, time.Since(t0))
		})
		b.Run(c.name+"/adjust-expand", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				for j, seg := range segs {
					out, err := eng.AdjustExpand(seg, core.Expansion{Within: append(qs[j].Src[:len(qs[j].Src):len(qs[j].Src)], qs[j].Dst...), K: 2})
					if err != nil {
						b.Fatal(err)
					}
					sinkSeg = out
				}
			}
			report(b, time.Since(t0))
		})
	}
}
