package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// grow appends nv vertices and ne edges to g, reusing randomGraph's label
// set (which must already be interned).
func grow(g *Graph, nv, ne int, seed int64) {
	n0 := g.NumVertices()
	for i := 0; i < nv; i++ {
		g.AddVertex(Label(1 + (int(seed)+i)%3))
	}
	n := g.NumVertices()
	for i := 0; i < ne; i++ {
		src := VertexID((int(seed) + 7*i) % n)
		dst := VertexID((int(seed) + 11*i + n0) % n)
		g.AddEdge(src, dst, Label(4+(int(seed)+i)%3))
	}
}

// commitRun appends one commit of the shape a stream of single-run ingests
// has: an activity and its output entity, the activity using the hub and
// the previous commit's output (tail) plus one random older vertex, and the
// output generated by the activity. It returns the output, the next tail.
// randomGraph's labels must be interned.
func commitRun(g *Graph, hub, tail VertexID, rng *rand.Rand) VertexID {
	a := g.AddVertex(2)   // v:A
	o := g.AddVertex(1)   // v:E
	g.AddEdge(a, hub, 4)  // e:U into the hub
	g.AddEdge(a, tail, 4) // e:U into the previous commit's output
	g.AddEdge(a, VertexID(rng.Intn(int(a))), 6)
	g.AddEdge(o, a, 5) // e:G
	return o
}

// TestExtendFrozenChain extends one snapshot per commit over a long chain
// of commitRun commits and holds the rows of the hub, the chain tail and 16
// fixed vertices to a full Freeze at every epoch. The hub's e:U in-row grows
// by one edge per commit, so the e:U in-block must pass through both of its
// shapes: extended (a base plus an extension) and flattened.
func TestExtendFrozenChain(t *testing.T) {
	g := randomGraph(500, 1500, 21)
	rng := rand.New(rand.NewSource(21))
	hub, tail := VertexID(0), VertexID(1)
	watch := make([]VertexID, 16)
	for i := range watch {
		watch[i] = VertexID(1 + 31*i)
	}
	prev := g.Freeze()
	var extended, flattened bool
	for c := 0; c < 1500; c++ {
		oldTail := tail
		tail = commitRun(g, hub, tail, rng)
		next, inc := g.ExtendFrozen(prev)
		if !inc {
			t.Fatalf("commit %d: incremental freeze fell back to a full rebuild", c)
		}
		if next.csr.inRel[4].ext != nil {
			extended = true
		} else if extended {
			flattened = true
		}
		full := g.Freeze()
		for _, v := range append([]VertexID{hub, oldTail, tail}, watch...) {
			for l := Label(0); int(l) < g.Dict().Len(); l++ {
				for _, out := range []bool{true, false} {
					fn, fe := full.Rows(l, out).Row(v)
					xn, xe := next.Rows(l, out).Row(v)
					if !slices.Equal(fn, xn) || !slices.Equal(fe, xe) {
						t.Fatalf("commit %d row (%d,%d,%v) diverged", c, v, l, out)
					}
				}
			}
		}
		prev = next
	}
	if !extended || !flattened {
		t.Fatalf("e:U in-block extended=%v flattened=%v, want both", extended, flattened)
	}
}

// TestExtendFrozenMatchesFull drives a chain of incremental snapshots and
// checks each against a full rebuild of the same state. (The heavy
// randomized coverage lives in graph/difftest; this is the in-package
// smoke test plus path assertions.)
func TestExtendFrozenMatchesFull(t *testing.T) {
	g := randomGraph(300, 1200, 7)
	prev, inc := g.ExtendFrozen(nil)
	if inc {
		t.Fatal("extension with no base must fall back to a full rebuild")
	}
	if prev.IncrementalSnapshot() {
		t.Fatal("fallback snapshot claims to be incremental")
	}
	sawIncremental := false
	for epoch := 0; epoch < 8; epoch++ {
		grow(g, 10, 40, int64(epoch))
		full := g.Freeze()
		next, inc := g.ExtendFrozen(prev)
		if inc {
			sawIncremental = true
			if !next.IncrementalSnapshot() {
				t.Fatal("incremental snapshot not flagged")
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := VertexID(v)
			for l := Label(0); int(l) < g.Dict().Len(); l++ {
				for _, out := range []bool{true, false} {
					fn, fe := full.Rows(l, out).Row(id)
					xn, xe := next.Rows(l, out).Row(id)
					if fmt.Sprint(fn) != fmt.Sprint(xn) || fmt.Sprint(fe) != fmt.Sprint(xe) {
						t.Fatalf("epoch %d row (%d,%d,%v) diverged", epoch, v, l, out)
					}
				}
			}
		}
		prev = next
	}
	if !sawIncremental {
		t.Fatal("no epoch took the incremental path")
	}
}

// TestExtendFrozenFallbacks enumerates the conditions under which the
// incremental path must refuse prev and rebuild fully.
func TestExtendFrozenFallbacks(t *testing.T) {
	base := randomGraph(50, 200, 9)
	for name, tc := range map[string]struct {
		prev func() *Graph
		g    func() *Graph
	}{
		"nil prev": {
			prev: func() *Graph { return nil },
			g:    func() *Graph { return randomGraph(50, 200, 9) },
		},
		"live prev": {
			prev: func() *Graph { return randomGraph(50, 200, 9) },
			g:    func() *Graph { return randomGraph(50, 200, 9) },
		},
		"prev from a different graph": {
			prev: func() *Graph { return randomGraph(50, 200, 10).Freeze() },
			g: func() *Graph {
				g := randomGraph(50, 200, 9)
				grow(g, 5, 10, 1)
				return g
			},
		},
		"oversized delta": {
			prev: func() *Graph { return base.Freeze() },
			g: func() *Graph {
				grow(base, 10, 500, 2) // delta larger than half the graph
				return base
			},
		},
	} {
		prev := tc.prev()
		g := tc.g()
		fz, inc := g.ExtendFrozen(prev)
		if inc {
			t.Errorf("%s: incremental path taken", name)
		}
		if fz == nil || !fz.Frozen() || fz.IncrementalSnapshot() {
			t.Errorf("%s: fallback did not produce a full snapshot", name)
		}
	}
	// Extending a frozen graph is the identity, like Freeze.
	fz := randomGraph(10, 20, 3).Freeze()
	if got, inc := fz.ExtendFrozen(nil); got != fz || inc {
		t.Fatal("ExtendFrozen of frozen graph must be a no-op")
	}
}

// TestExtendFrozenImmutableAndWatermark: incremental snapshots enforce the
// same immutability and watermark rules as full ones.
func TestExtendFrozenImmutableAndWatermark(t *testing.T) {
	g := randomGraph(40, 120, 11)
	prev := g.Freeze()
	grow(g, 4, 12, 1)
	fz, inc := g.ExtendFrozen(prev)
	if !inc {
		t.Fatal("expected incremental path")
	}
	for name, fn := range map[string]func(){
		"AddVertex":     func() { fz.AddVertex(1) },
		"AddEdge":       func() { fz.AddEdge(0, 1, 4) },
		"SetVertexProp": func() { fz.SetVertexProp(0, "x", Int(1)) },
		"SetEdgeProp":   func() { fz.SetEdgeProp(0, "x", Int(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on incremental snapshot did not panic", name)
				}
			}()
			fn()
		}()
	}
	// The live graph's watermark must cover the extension, so pre-watermark
	// property writes are rejected.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetVertexProp below extended watermark did not panic")
			}
		}()
		g.SetVertexProp(VertexID(g.NumVertices()-1), "x", Int(1))
	}()
}

// TestExtendFrozenIsolation extends a snapshot while readers traverse both
// the previous and the new epoch and a writer keeps appending; under -race
// this proves epochs share no mutable state even though they share rows.
func TestExtendFrozenIsolation(t *testing.T) {
	g := randomGraph(120, 500, 13)
	prev := g.Freeze()
	grow(g, 10, 40, 1)
	fz, inc := g.ExtendFrozen(prev)
	if !inc {
		t.Fatal("expected incremental path")
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			v := g.AddVertex(1)
			g.AddEdge(v, VertexID(i%100), 4)
		}
	}()
	for _, snap := range []*Graph{prev, fz} {
		snap := snap
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				total := 0
				for v := 0; v < snap.NumVertices(); v++ {
					total += outDegree(snap, VertexID(v))
				}
				if total != snap.NumEdges() {
					t.Errorf("snapshot edge count drifted: %d vs %d", total, snap.NumEdges())
					return
				}
			}
		}()
	}
	wg.Wait()
}
