package graph_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPropertyFootprint holds a frozen Pd graph's property storage to at
// most 100 B per vertex (Pd-20000; Pd-100000 too outside -short), requires
// that the freeze left no Props map behind, and that VertexProp and
// EdgeProp on a frozen graph allocate nothing, strings included. A graph
// loaded from the frozen one's Save bytes is born packed: no Props map, and
// a packed store of the frozen one's size; and Load's allocation count does
// not grow with the elements that carry properties.
func TestPropertyFootprint(t *testing.T) {
	sizes := []int{20000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			live := gen.Pd(gen.PdConfig{N: n, Seed: 1}).PG()
			fz := live.Freeze()
			nv := fz.NumVertices()
			b := graph.PropStoreBytes(live)
			t.Logf("Pd-%d: %d vertices, packed properties %d B (%.1f B/vertex)", n, nv, b, float64(b)/float64(nv))
			if b > 100*nv {
				t.Errorf("packed properties hold %.1f B/vertex, over 100", float64(b)/float64(nv))
			}
			if m := graph.PropMapsHeld(live) + graph.PropMapsHeld(fz); m != 0 {
				t.Errorf("%d Props maps survive the freeze", m)
			}
			var saved bytes.Buffer
			if err := fz.Save(&saved); err != nil {
				t.Fatal(err)
			}
			loaded, err := graph.Load(&saved)
			if err != nil {
				t.Fatal(err)
			}
			if m := graph.PropMapsHeld(loaded); m != 0 {
				t.Errorf("Load built %d Props maps", m)
			}
			if lb := graph.PropStoreBytes(loaded); lb != b {
				t.Errorf("loaded graph packs its properties into %d B, the frozen one into %d B", lb, b)
			}
			keys := []string{"name", "filename", "version", "command", "options", "url", "missing"}
			if a := testing.AllocsPerRun(5, func() {
				for v := 0; v < nv; v += 7 {
					for _, k := range keys {
						_ = fz.VertexProp(graph.VertexID(v), k)
					}
				}
			}); a != 0 {
				t.Errorf("VertexProp on a frozen graph allocates %.1f times per pass", a)
			}
		})
	}

	loadAllocs := func(n int) float64 {
		var saved bytes.Buffer
		if err := gen.Pd(gen.PdConfig{N: n, Seed: 1}).PG().Save(&saved); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := graph.Load(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := loadAllocs(2000), loadAllocs(20000); large > 2*small {
		t.Errorf("Load allocates %.0f times on Pd-20000, over twice its %.0f on Pd-2000", large, small)
	} else {
		t.Logf("Load allocates %.0f times on Pd-2000, %.0f on Pd-20000", small, large)
	}

	g := graph.New()
	l := g.Dict().Intern("x")
	for i := 0; i < 64; i++ {
		g.AddVertex(l)
	}
	for i := 0; i < 256; i++ {
		e := g.AddEdge(graph.VertexID(i%64), graph.VertexID((i*7)%64), l)
		switch i % 4 {
		case 0:
			g.SetEdgeProp(e, "s", graph.String(fmt.Sprintf("é%d", i)))
		case 1:
			g.SetEdgeProp(e, "i", graph.Int(int64(-i)))
			g.SetEdgeProp(e, "s", graph.String(""))
		case 2:
			g.SetEdgeProp(e, "f", graph.Float(float64(i)/3))
		}
	}
	fz := g.Freeze()
	if a := testing.AllocsPerRun(5, func() {
		for e := 0; e < fz.NumEdges(); e++ {
			for _, k := range []string{"s", "i", "f", "b"} {
				_ = fz.EdgeProp(graph.EdgeID(e), k)
			}
		}
	}); a != 0 {
		t.Errorf("EdgeProp on a frozen graph allocates %.1f times per pass", a)
	}
	if s, _ := fz.EdgeProp(4, "s").Str(); s != "é4" {
		t.Errorf(`EdgeProp(4, "s") = %q, want "é4"`, s)
	}
}
