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

// TestFreezeMatchesLive holds a full rebuild's rows to the live graph's
// edge columns (columnRowsOf) and every other read to the live graph's.
func TestFreezeMatchesLive(t *testing.T) {
	g := randomGraph(200, 800, 1)
	fz := g.Freeze()
	rows := columnRowsOf(g)

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
		if fz.VertexLabel(id) != g.VertexLabel(id) {
			t.Fatalf("label mismatch at %d", v)
		}
		for _, l := range eLabels {
			for _, out := range []bool{true, false} {
				nbrs, eids := fz.Rows(l, out).Row(id)
				if want := rows.neighbors(g, id, l, out); fmt.Sprint(nbrs) != fmt.Sprint(want) {
					t.Fatalf("row (%d, %d, out=%v): %v vs %v", v, l, out, nbrs, want)
				}
				// CSR rows carry matching (neighbor, edge id) pairs.
				if len(nbrs) != len(eids) {
					t.Fatalf("CSR row shape at %d/%d", v, l)
				}
				for i, e := range eids {
					from, to := fz.Src(e), fz.Dst(e)
					if !out {
						from, to = to, from
					}
					if fz.EdgeLabel(e) != l || from != id || to != nbrs[i] {
						t.Fatalf("CSR row %d/%d/%v entry %d inconsistent", v, l, out, i)
					}
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

	// Re-freezing is the identity.
	if fz.Freeze() != fz {
		t.Fatal("Freeze of frozen graph must be a no-op")
	}
}

// TestLiveGraphKeepsNoRows: every adjacency reader panics on a live graph,
// which keeps only its edge columns, and works on the graph's snapshot;
// Stats and TopoOrder read the columns and work on both.
func TestLiveGraphKeepsNoRows(t *testing.T) {
	g := randomGraph(20, 60, 5)
	readers := map[string]func(*Graph){
		"Rows":           func(g *Graph) { g.Rows(4, true).Row(0) },
		"EdgesWithLabel": func(g *Graph) { g.EdgesWithLabel(4) },
	}
	fz := g.Freeze()
	for name, read := range readers {
		read(fz)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a live graph did not panic", name)
				}
			}()
			read(g)
		}()
	}
	if fmt.Sprint(g.Stats()) != fmt.Sprint(fz.Stats()) {
		t.Fatalf("Stats: live %+v vs snapshot %+v", g.Stats(), fz.Stats())
	}
	lo, lok := g.TopoOrder(nil)
	fo, fok := fz.TopoOrder(nil)
	if fmt.Sprint(lo, lok) != fmt.Sprint(fo, fok) {
		t.Fatal("TopoOrder differs between the live graph and its snapshot")
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
					total += outDegree(fz, VertexID(v))
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
	if nbrs, eids := fz.Rows(1, true).Row(0); nbrs != nil || eids != nil {
		t.Fatal("empty frozen graph has a row")
	}
}

// TestUnpackPropsKeepsSnapshots: after UnpackProps every element is
// writable again, every snapshot taken before it reads what it read, and
// the next snapshot packs the new values.
func TestUnpackPropsKeepsSnapshots(t *testing.T) {
	g := randomGraph(50, 120, 9)
	old := g.Freeze()
	before := mustSaveBytes(old)
	if g.UnpackProps(VertexID(g.NumVertices())) {
		t.Fatal("UnpackProps unpacked for a vertex past the watermark")
	}
	if !g.UnpackProps(3) {
		t.Fatal("UnpackProps did nothing for a vertex below the watermark")
	}
	g.SetVertexProp(3, "name", String("renamed"))
	g.SetVertexProp(4, "extra", Int(7))
	g.SetEdgeProp(2, "w", Int(-1))
	if got := mustSaveBytes(old); string(got) != string(before) {
		t.Fatal("a snapshot taken before UnpackProps changed")
	}
	next := g.Freeze()
	for _, fz := range []*Graph{g, next} {
		if fz.VertexProp(3, "name").AsString() != "renamed" || fz.VertexProp(4, "extra") != Int(7) || fz.EdgeProp(2, "w") != Int(-1) {
			t.Fatalf("frozen=%v: the writes after UnpackProps are not read back", fz.Frozen())
		}
		for v := 5; v < g.NumVertices(); v++ {
			if fz.VertexProp(VertexID(v), "name") != old.VertexProp(VertexID(v), "name") {
				t.Fatalf("frozen=%v: vertex %d lost its name", fz.Frozen(), v)
			}
		}
	}
	if PropMapsHeld(g) != 0 {
		t.Fatalf("the freeze after UnpackProps left %d maps", PropMapsHeld(g))
	}
}
