package graph

import (
	"math/rand"
	"testing"
)

// The incremental-vs-full freeze cost on a 50k-vertex graph with a 1%
// delta: what a commit pays with ExtendFrozen against a rebuild.

func benchExtendGraph(nv, ne int) (*Graph, *Graph) {
	g := randomGraph(nv, ne, 42)
	prev := g.Freeze()
	grow(g, nv/100, ne/100, 3)
	return g, prev
}

func BenchmarkExtendFrozen50k(b *testing.B) {
	g, prev := benchExtendGraph(50000, 150000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ExtendFrozen(prev); !ok {
			b.Fatal("incremental freeze fell back to a full rebuild")
		}
	}
}

func BenchmarkFullFreeze50k(b *testing.B) {
	g, _ := benchExtendGraph(50000, 150000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Freeze()
	}
}

// BenchmarkExtendFrozenChain times the steady-state commit freeze: one
// iteration extends a fresh full freeze of a 5000-vertex graph through
// 2,000 commitRun commits, one snapshot per commit, so the accumulated
// extensions and their flattens are in the measurement (a one-step extend
// from a full freeze never sees them). Reported as ns/commit.
func BenchmarkExtendFrozenChain(b *testing.B) {
	const commits = 2000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := randomGraph(5000, 15000, 42)
		rng := rand.New(rand.NewSource(42))
		hub, tail := VertexID(0), VertexID(1)
		prev := g.Freeze()
		b.StartTimer()
		for c := 0; c < commits; c++ {
			tail = commitRun(g, hub, tail, rng)
			next, ok := g.ExtendFrozen(prev)
			if !ok {
				b.Fatal("incremental freeze fell back to a full rebuild")
			}
			prev = next
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*commits), "ns/commit")
}
