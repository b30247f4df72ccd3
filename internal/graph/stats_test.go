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
	for l := range want {
		if got := g.EdgesWithLabel(Label(l)); got != 0 {
			t.Fatalf("live graph: EdgesWithLabel(%d) = %d, want 0", l, got)
		}
	}
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

// TestNeighborRowSegs checks the zero-copy two-segment row accessor against
// the materializing FrozenNeighbors on both full and extended snapshots.
func TestNeighborRowSegs(t *testing.T) {
	g := randomGraph(150, 600, 17)
	check := func(t *testing.T, fz *Graph) {
		t.Helper()
		for v := 0; v < fz.NumVertices(); v++ {
			id := VertexID(v)
			for l := 0; l < fz.Dict().Len(); l++ {
				for _, out := range []bool{true, false} {
					wantN, _, _ := fz.FrozenNeighbors(id, Label(l), out)
					base, ext, ok := fz.NeighborRowSegs(id, Label(l), out)
					if !ok {
						t.Fatal("NeighborRowSegs not ok on frozen graph")
					}
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
	// Live graphs report not-ok rather than guessing.
	live := randomGraph(5, 5, 1)
	if _, _, ok := live.NeighborRowSegs(0, 0, true); ok {
		t.Fatal("NeighborRowSegs ok on live graph")
	}
}

func TestRowReadHook(t *testing.T) {
	g := randomGraph(50, 200, 19)
	fz := g.Freeze()
	type read struct {
		l   Label
		out bool
	}
	var reads []read
	restore := SetRowReadHook(func(l Label, out bool) { reads = append(reads, read{l, out}) })
	lu := fz.Dict().Intern("e:U")
	fz.FrozenNeighbors(3, lu, true)
	fz.NeighborRowSegs(4, lu, false)
	fz.OutNeighbors(5, lu, nil)
	fz.InNeighbors(6, lu, nil)
	restore()
	fz.FrozenNeighbors(3, lu, true) // after restore: unobserved
	want := []read{{lu, true}, {lu, false}, {lu, true}, {lu, false}}
	if fmt.Sprint(reads) != fmt.Sprint(want) {
		t.Fatalf("hook observed %v, want %v", reads, want)
	}
	// Restoring twice (or racing a later hook) must not clear someone
	// else's installation.
	restore2 := SetRowReadHook(func(Label, bool) {})
	restore()
	fzReads := len(reads)
	fz.FrozenNeighbors(3, lu, true)
	if len(reads) != fzReads {
		t.Fatal("stale restore cleared the active hook")
	}
	restore2()
}
