package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomGraph builds a multigraph with several vertex and edge labels,
// properties, parallel edges and self-referential shapes.
func randomGraph(nv, ne int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	vLabels := []Label{
		g.Dict().Intern("v:E"), g.Dict().Intern("v:A"), g.Dict().Intern("v:U"),
	}
	eLabels := []Label{
		g.Dict().Intern("e:U"), g.Dict().Intern("e:G"), g.Dict().Intern("e:D"),
	}
	for i := 0; i < nv; i++ {
		v := g.AddVertex(vLabels[rng.Intn(len(vLabels))])
		if rng.Intn(2) == 0 {
			g.SetVertexProp(v, "name", String(fmt.Sprintf("v%d", v)))
		}
	}
	for i := 0; i < ne; i++ {
		src := VertexID(rng.Intn(nv))
		dst := VertexID(rng.Intn(nv))
		e := g.AddEdge(src, dst, eLabels[rng.Intn(len(eLabels))])
		if rng.Intn(3) == 0 {
			g.SetEdgeProp(e, "w", Int(int64(i)))
		}
	}
	return g
}

func TestFreezeMatchesLive(t *testing.T) {
	g := randomGraph(200, 800, 1)
	fz := g.Freeze()

	if !fz.Frozen() || g.Frozen() {
		t.Fatal("frozen flags wrong")
	}
	if fz.NumVertices() != g.NumVertices() || fz.NumEdges() != g.NumEdges() {
		t.Fatalf("watermark mismatch: %d/%d vs %d/%d",
			fz.NumVertices(), fz.NumEdges(), g.NumVertices(), g.NumEdges())
	}

	eLabels := []Label{0, 1, 2, 3, 4, 5, 6} // includes labels with no edges
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		if got, want := fmt.Sprint(fz.Out(id)), fmt.Sprint(g.Out(id)); got != want {
			t.Fatalf("Out(%d): %s vs %s", v, got, want)
		}
		if got, want := fmt.Sprint(fz.In(id)), fmt.Sprint(g.In(id)); got != want {
			t.Fatalf("In(%d): %s vs %s", v, got, want)
		}
		if fz.OutDegree(id) != g.OutDegree(id) || fz.InDegree(id) != g.InDegree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
		if fz.VertexLabel(id) != g.VertexLabel(id) {
			t.Fatalf("label mismatch at %d", v)
		}
		for _, l := range eLabels {
			gotO := fz.OutNeighbors(id, l, nil)
			wantO := g.OutNeighbors(id, l, nil)
			if fmt.Sprint(gotO) != fmt.Sprint(wantO) {
				t.Fatalf("OutNeighbors(%d, %d): %v vs %v", v, l, gotO, wantO)
			}
			gotI := fz.InNeighbors(id, l, nil)
			wantI := g.InNeighbors(id, l, nil)
			if fmt.Sprint(gotI) != fmt.Sprint(wantI) {
				t.Fatalf("InNeighbors(%d, %d): %v vs %v", v, l, gotI, wantI)
			}
			// CSR rows carry matching (neighbor, edge id) pairs.
			nbrs, eids, ok := fz.FrozenNeighbors(id, l, true)
			if !ok {
				t.Fatal("FrozenNeighbors not ok on frozen graph")
			}
			if len(nbrs) != len(eids) || len(nbrs) != len(wantO) {
				t.Fatalf("CSR row shape at %d/%d", v, l)
			}
			for i, e := range eids {
				if fz.EdgeLabel(e) != l || fz.Src(e) != id || fz.Dst(e) != nbrs[i] {
					t.Fatalf("CSR row %d/%d entry %d inconsistent", v, l, i)
				}
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := EdgeID(e)
		if fz.Src(id) != g.Src(id) || fz.Dst(id) != g.Dst(id) || fz.EdgeLabel(id) != g.EdgeLabel(id) {
			t.Fatalf("edge %d mismatch", e)
		}
		if !fz.EdgeProp(id, "w").Equal(g.EdgeProp(id, "w")) {
			t.Fatalf("edge prop %d mismatch", e)
		}
	}

	gs, fs := g.Stats(), fz.Stats()
	if fmt.Sprintf("%+v", gs) != fmt.Sprintf("%+v", fs) {
		t.Fatalf("stats mismatch:\n%+v\n%+v", gs, fs)
	}
	for _, l := range []Label{1, 2, 3} {
		if fmt.Sprint(fz.VerticesWithLabel(l)) != fmt.Sprint(g.VerticesWithLabel(l)) {
			t.Fatalf("VerticesWithLabel(%d) mismatch", l)
		}
	}
	if fz.Dict().Name(1) != g.Dict().Name(1) || fz.Dict().Len() != g.Dict().Len() {
		t.Fatal("dictionary snapshot mismatch")
	}

	// FrozenNeighbors on the live graph must report not-frozen.
	if _, _, ok := g.FrozenNeighbors(0, 1, true); ok {
		t.Fatal("live graph claimed a CSR index")
	}
	// Re-freezing is the identity.
	if fz.Freeze() != fz {
		t.Fatal("Freeze of frozen graph must be a no-op")
	}
}

func TestFrozenGraphIsImmutable(t *testing.T) {
	g := randomGraph(10, 20, 2)
	fz := g.Freeze()
	for name, fn := range map[string]func(){
		"AddVertex":     func() { fz.AddVertex(1) },
		"AddEdge":       func() { fz.AddEdge(0, 1, 1) },
		"SetVertexProp": func() { fz.SetVertexProp(0, "x", Int(1)) },
		"SetEdgeProp":   func() { fz.SetEdgeProp(0, "x", Int(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen graph did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFreezeIsolation appends to the live graph from one goroutine while
// others traverse the snapshot. Run under -race this is the proof that a
// snapshot shares no mutable state with its source.
func TestFreezeIsolation(t *testing.T) {
	g := randomGraph(100, 400, 3)
	fz := g.Freeze()
	wantV, wantE := fz.NumVertices(), fz.NumEdges()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		vl, el := g.Dict().Intern("v:E"), g.Dict().Intern("e:G")
		for i := 0; i < 200; i++ {
			v := g.AddVertex(vl)
			g.SetVertexProp(v, "name", String("new"))
			g.AddEdge(v, VertexID(i%100), el)
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				total := 0
				for v := 0; v < fz.NumVertices(); v++ {
					total += len(fz.Out(VertexID(v)))
					fz.OutNeighbors(VertexID(v), 4, nil)
					fz.VertexProp(VertexID(v), "name")
				}
				if total != fz.NumEdges() {
					t.Errorf("snapshot edge count drifted: %d", total)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fz.NumVertices() != wantV || fz.NumEdges() != wantE {
		t.Fatalf("snapshot watermark moved: %d/%d", fz.NumVertices(), fz.NumEdges())
	}
	if g.NumVertices() != wantV+200 {
		t.Fatalf("live graph missing appends: %d", g.NumVertices())
	}
}

// TestLivePropWritesBelowWatermark: once a snapshot exists, property
// writes to pre-watermark vertices/edges of the LIVE graph must be
// rejected (the maps are shared with lock-free snapshot readers); writes
// to vertices appended after the freeze stay legal.
func TestLivePropWritesBelowWatermark(t *testing.T) {
	g := randomGraph(10, 20, 4)
	g.SetVertexProp(0, "ok", Int(1)) // pre-freeze: fine
	g.Freeze()
	for name, fn := range map[string]func(){
		"SetVertexProp": func() { g.SetVertexProp(0, "x", Int(1)) },
		"SetEdgeProp":   func() { g.SetEdgeProp(0, "x", Int(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s below watermark did not panic", name)
				}
			}()
			fn()
		}()
	}
	v := g.AddVertex(1)
	g.SetVertexProp(v, "x", Int(1)) // post-watermark: fine
	e := g.AddEdge(v, 0, 4)
	g.SetEdgeProp(e, "x", Int(1))
}

// TestSnapshotWatermarkEdgeOnly: a batch that appends only edges still
// raises the edge watermark, so the edge a newer snapshot covers is as
// read-only as any other snapshot-covered edge.
func TestSnapshotWatermarkEdgeOnly(t *testing.T) {
	for name, refreeze := range map[string]func(g, prev *Graph){
		"Freeze":       func(g, _ *Graph) { g.Freeze() },
		"ExtendFrozen": func(g, prev *Graph) { g.ExtendFrozen(prev) },
	} {
		t.Run(name, func(t *testing.T) {
			g := randomGraph(10, 20, 4)
			prev := g.Freeze()
			e := g.AddEdge(1, 2, 4)
			refreeze(g, prev)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("SetEdgeProp(%d) on a snapshot-covered edge did not panic", e)
					}
				}()
				g.SetEdgeProp(e, "x", Int(1))
			}()
			g.SetEdgeProp(g.AddEdge(2, 1, 4), "x", Int(1)) // past the watermark: fine
		})
	}
}

func TestFreezeEmptyGraph(t *testing.T) {
	fz := New().Freeze()
	if fz.NumVertices() != 0 || fz.NumEdges() != 0 {
		t.Fatal("empty freeze not empty")
	}
	if _, _, ok := fz.FrozenNeighbors(0, 1, true); !ok {
		t.Fatal("empty frozen graph must still report frozen")
	}
}
