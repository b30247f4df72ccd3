package provdb_test

// Benchmarks regenerating the paper's evaluation (Fig. 5, panels a-h), one
// benchmark family per panel, plus micro-benchmarks for the substrates.
// `go test -bench=. -benchmem` runs representative points; the full sweeps
// (all x-axis values, paper-scale graphs) live in cmd/provbench.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	provdb "repro"
	"repro/internal/cypher"
)

var pdBenchCache = map[string]*provdb.Graph{}

func benchPd(b *testing.B, cfg provdb.PdConfig) *provdb.Graph {
	b.Helper()
	key := fmt.Sprintf("%+v", cfg)
	if g, ok := pdBenchCache[key]; ok {
		return g
	}
	g := provdb.GeneratePd(cfg)
	// The first read takes the graph's snapshot: make it here, outside any
	// timer, with the query most benchmarks time.
	src, dst := provdb.DefaultPdQuery(g)
	if _, err := g.Segment(provdb.Query{Src: src, Dst: dst}); err != nil {
		b.Fatal(err)
	}
	pdBenchCache[key] = g
	return g
}

func benchVC2(b *testing.B, g *provdb.Graph, src, dst []provdb.VertexID, opts provdb.SegmentOptions) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg, err := g.SegmentWith(provdb.Query{Src: src, Dst: dst}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if seg.NumVertices() == 0 {
			b.Fatal("empty segment")
		}
	}
}

// --- Fig 5a: runtime vs graph size, per solver ---

func BenchmarkFig5a(b *testing.B) {
	solvers := []struct {
		name string
		opts provdb.SegmentOptions
	}{
		{"SimProvTst", provdb.SegmentOptions{Solver: provdb.SolverTst}},
		{"SimProvAlg", provdb.SegmentOptions{Solver: provdb.SolverAlg}},
		{"SimProvAlgCbm", provdb.SegmentOptions{Solver: provdb.SolverAlg, Sets: provdb.RoaringSets}},
		{"CflrB", provdb.SegmentOptions{Solver: provdb.SolverCflrB}},
	}
	for _, n := range []int{1000, 10000} {
		g := benchPd(b, provdb.PdConfig{N: n, Seed: 1})
		src, dst := provdb.DefaultPdQuery(g)
		for _, s := range solvers {
			// The pair-materializing algorithms allocate gigabytes beyond
			// Pd1k; only SimProvTst keeps the large point (Fig. 5a's full
			// sweep lives in cmd/provbench).
			if n > 1000 && !strings.HasPrefix(s.name, "SimProvTst") {
				continue
			}
			b.Run(fmt.Sprintf("%s/Pd%d", s.name, n), func(b *testing.B) {
				benchVC2(b, g, src, dst, s.opts)
			})
		}
	}
}

func BenchmarkFig5aCypher(b *testing.B) {
	// Sparse toy graph: the baseline's cost is exponential in the
	// ancestry-cone density (that is Fig. 5a's point). The baseline is the
	// paper's Query 1 unpruned, as provbench's 5a cells time it: the
	// facade's Cypher runs the planner, which CypherVC2 turns off.
	g := benchPd(b, provdb.PdConfig{N: 40, LambdaIn: 1, Seed: 1})
	p := g.Prov().Freeze()
	ents := p.Entities()
	src := []provdb.VertexID{ents[0], ents[1]}
	dst := []provdb.VertexID{ents[len(ents)-1]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cypher.CypherVC2(p, src, dst, cypher.Options{Timeout: time.Minute}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 5b: selection skew ---

func BenchmarkFig5b(b *testing.B) {
	for _, se := range []float64{1.1, 1.5, 2.1} {
		g := benchPd(b, provdb.PdConfig{N: 2000, SelectSkew: se, Seed: 1})
		src, dst := provdb.DefaultPdQuery(g)
		b.Run(fmt.Sprintf("se%.1f/SimProvTst", se), func(b *testing.B) {
			benchVC2(b, g, src, dst, provdb.SegmentOptions{Solver: provdb.SolverTst})
		})
		b.Run(fmt.Sprintf("se%.1f/SimProvAlg", se), func(b *testing.B) {
			benchVC2(b, g, src, dst, provdb.SegmentOptions{Solver: provdb.SolverAlg})
		})
	}
}

// --- Fig 5c: activity input mean ---

func BenchmarkFig5c(b *testing.B) {
	for _, li := range []float64{1, 3, 5} {
		g := benchPd(b, provdb.PdConfig{N: 2000, LambdaIn: li, Seed: 1})
		src, dst := provdb.DefaultPdQuery(g)
		b.Run(fmt.Sprintf("li%.0f/SimProvTst", li), func(b *testing.B) {
			benchVC2(b, g, src, dst, provdb.SegmentOptions{Solver: provdb.SolverTst})
		})
		b.Run(fmt.Sprintf("li%.0f/SimProvAlg", li), func(b *testing.B) {
			benchVC2(b, g, src, dst, provdb.SegmentOptions{Solver: provdb.SolverAlg})
		})
	}
}

// --- Fig 5d: early stopping vs source rank ---

func BenchmarkFig5d(b *testing.B) {
	g := benchPd(b, provdb.PdConfig{N: 5000, Seed: 1})
	for _, pct := range []int{0, 40, 80} {
		src, dst := provdb.PdQueryAtRank(g, pct)
		b.Run(fmt.Sprintf("rank%d/EarlyStop", pct), func(b *testing.B) {
			benchVC2(b, g, src, dst, provdb.SegmentOptions{Solver: provdb.SolverAlg})
		})
		b.Run(fmt.Sprintf("rank%d/NoEarlyStop", pct), func(b *testing.B) {
			benchVC2(b, g, src, dst, provdb.SegmentOptions{Solver: provdb.SolverAlg, NoEarlyStop: true})
		})
	}
}

// --- Fig 5e-5h: compaction ratio (reported as a metric) ---

func benchCR(b *testing.B, cfg provdb.SdConfig) {
	b.Helper()
	cfg.Seed = 1
	_, segs := provdb.GenerateSd(cfg)
	b.ReportAllocs()
	var cr, pcr float64
	for i := 0; i < b.N; i++ {
		psg, err := provdb.Summarize(segs, provdb.SdSumOptions())
		if err != nil {
			b.Fatal(err)
		}
		cr = psg.CompactionRatio()
		pcr = provdb.PSumBaseline(segs, provdb.SdSumOptions().K)
	}
	b.ReportMetric(cr, "cr")
	b.ReportMetric(pcr, "psum-cr")
}

func BenchmarkFig5e(b *testing.B) {
	for _, alpha := range []float64{0.025, 0.1, 1} {
		b.Run(fmt.Sprintf("alpha%g", alpha), func(b *testing.B) {
			benchCR(b, provdb.SdConfig{Alpha: alpha})
		})
	}
}

func BenchmarkFig5f(b *testing.B) {
	for _, k := range []int{3, 10, 25} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			benchCR(b, provdb.SdConfig{States: k})
		})
	}
}

func BenchmarkFig5g(b *testing.B) {
	for _, n := range []int{5, 20, 50} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchCR(b, provdb.SdConfig{Activities: n})
		})
	}
}

func BenchmarkFig5h(b *testing.B) {
	for _, s := range []int{5, 20, 40} {
		b.Run(fmt.Sprintf("S%d", s), func(b *testing.B) {
			benchCR(b, provdb.SdConfig{Alpha: 0.25, Segments: s})
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkPdGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := provdb.GeneratePd(provdb.PdConfig{N: 10000, Seed: int64(i + 1)})
		if g.NumVertices() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	g := benchPd(b, provdb.PdConfig{N: 10000, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := g.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf))
	}
}

type writeCounter int

func (w *writeCounter) Write(p []byte) (int, error) { *w += writeCounter(len(p)); return len(p), nil }

func BenchmarkSegmentFullPipeline(b *testing.B) {
	g := benchPd(b, provdb.PdConfig{N: 10000, Seed: 1})
	src, dst := provdb.DefaultPdQuery(g)
	q := provdb.Query{
		Src: src, Dst: dst,
		Boundary: provdb.Boundary{
			ExcludeRels: []provdb.Rel{provdb.RelAttr},
			Expansions:  []provdb.Expansion{{Within: dst, K: 2}},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Segment(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarizeFig2(b *testing.B) {
	g, names := provdb.Fig2Lifecycle()
	s1, err := g.Segment(provdb.Fig2Q1(names))
	if err != nil {
		b.Fatal(err)
	}
	s2, err := g.Segment(provdb.Fig2Q2(names))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := provdb.Summarize([]*provdb.Segment{s1, s2}, provdb.Fig2Q3Options()); err != nil {
			b.Fatal(err)
		}
	}
}
