package graph

import "testing"

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
