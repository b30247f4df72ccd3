package graph

import (
	"fmt"
	"testing"
)

// countEdgesByLabel recounts per-label edges the slow way, from the columnar
// arrays, as the ground truth for both snapshot paths.
func countEdgesByLabel(g *Graph) []int {
	counts := make([]int, g.Dict().Len())
	for e := 0; e < g.NumEdges(); e++ {
		counts[g.EdgeLabel(EdgeID(e))]++
	}
	return counts
}

func TestDegreeStatsFreeze(t *testing.T) {
	g := randomGraph(200, 800, 11)
	want := countEdgesByLabel(g)
	fz := g.Freeze()
	if fz.NumVertices() != 200 || fz.NumEdges() != 800 {
		t.Fatalf("snapshot totals = (%d,%d), want (200,800)", fz.NumVertices(), fz.NumEdges())
	}
	for l, n := range want {
		if got := fz.EdgesWithLabel(Label(l)); got != n {
			t.Errorf("label %d: EdgesWithLabel = %d, want %d", l, got, n)
		}
	}
	// Out-of-range labels are defined, not panics.
	if fz.EdgesWithLabel(Label(200)) != 0 {
		t.Error("out-of-range label must count 0")
	}
}

// TestDegreeStatsExtendFrozen drives an incremental snapshot chain and
// checks that the per-label edge counts of the extended blocks equal a
// full rebuild's, and the ground truth, at every epoch — including epochs
// that intern a brand-new edge label mid-chain.
func TestDegreeStatsExtendFrozen(t *testing.T) {
	g := randomGraph(300, 1200, 13)
	prev, _ := g.ExtendFrozen(nil)
	sawIncremental := false
	for epoch := 0; epoch < 8; epoch++ {
		grow(g, 10, 40, int64(epoch))
		if epoch == 3 {
			// A label the base epoch never saw: the label tables must grow.
			l := g.Dict().Intern(fmt.Sprintf("e:new%d", epoch))
			g.AddEdge(0, 1, l)
		}
		next, inc := g.ExtendFrozen(prev)
		sawIncremental = sawIncremental || inc
		full := g.Freeze()
		if full.NumVertices() != next.NumVertices() || full.NumEdges() != next.NumEdges() {
			t.Fatalf("epoch %d: totals (%d,%d) vs full (%d,%d)", epoch,
				next.NumVertices(), next.NumEdges(), full.NumVertices(), full.NumEdges())
		}
		want := countEdgesByLabel(g)
		for l := 0; l < g.Dict().Len(); l++ {
			f, x := full.EdgesWithLabel(Label(l)), next.EdgesWithLabel(Label(l))
			if f != x || x != want[l] {
				t.Fatalf("epoch %d label %d: incr %d vs full %d, want %d", epoch, l, x, f, want[l])
			}
		}
		prev = next
	}
	if !sawIncremental {
		t.Fatal("chain never took the incremental path")
	}
}

// TestNeighborRowSegs checks the zero-copy two-segment row read (Rows.Segs)
// against the materializing one (Rows.Row) on both full and extended
// snapshots.
func TestNeighborRowSegs(t *testing.T) {
	g := randomGraph(150, 600, 17)
	check := func(t *testing.T, fz *Graph) {
		t.Helper()
		for v := 0; v < fz.NumVertices(); v++ {
			id := VertexID(v)
			for l := 0; l < fz.Dict().Len(); l++ {
				for _, out := range []bool{true, false} {
					rows := fz.Rows(Label(l), out)
					wantN, _ := rows.Row(id)
					base, ext := rows.Segs(id)
					got := append(append([]VertexID{}, base...), ext...)
					if fmt.Sprint(got) != fmt.Sprint(wantN) {
						t.Fatalf("v=%d l=%d out=%v: segs %v+%v != row %v", v, l, out, base, ext, wantN)
					}
				}
			}
		}
	}
	t.Run("full", func(t *testing.T) { check(t, g.Freeze()) })
	t.Run("extended", func(t *testing.T) {
		prev := g.Freeze()
		grow(g, 5, 30, 3)
		fz, inc := g.ExtendFrozen(prev)
		if !inc {
			t.Fatal("expected incremental snapshot")
		}
		check(t, fz)
	})
}
