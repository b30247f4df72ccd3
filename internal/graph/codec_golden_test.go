package graph_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const codecGolden = "testdata/codec.golden"

// everyKindGraph is a hand-built graph with every value kind (the absent
// value included), keys that only some elements carry, several keys on one
// element, and non-ASCII label, key and value strings.
func everyKindGraph() *graph.Graph {
	g := graph.New()
	ls := []graph.Label{g.Dict().Intern("Entité"), g.Dict().Intern("活動"), g.Dict().Intern("used")}
	for i := 0; i < 40; i++ {
		v := g.AddVertex(ls[i%2])
		switch i % 5 {
		case 0:
			g.SetVertexProp(v, "name", graph.String(fmt.Sprintf("v%d-ñ", i)))
			g.SetVertexProp(v, "n", graph.Int(int64(-i*1000003)))
		case 1:
			g.SetVertexProp(v, "ratio", graph.Float(float64(i)/7))
			g.SetVertexProp(v, "ok", graph.Bool(i%2 == 1))
			g.SetVertexProp(v, "zero", graph.Value{})
		case 2:
			g.SetVertexProp(v, "名前", graph.String("🙂\x00tab\t"))
			g.SetVertexProp(v, "", graph.String(""))
		case 3:
			g.SetVertexProp(v, "big", graph.Int(math.MinInt64))
			g.SetVertexProp(v, "inf", graph.Float(math.Inf(-1)))
		}
	}
	for i := 0; i < 90; i++ {
		e := g.AddEdge(graph.VertexID(i%40), graph.VertexID((i*13+5)%40), ls[2-i%2])
		switch i % 6 {
		case 0:
			g.SetEdgeProp(e, "role", graph.String(strings.Repeat("é", i)))
		case 3:
			g.SetEdgeProp(e, "w", graph.Float(-0.0))
			g.SetEdgeProp(e, "k", graph.Int(math.MaxInt64))
		}
	}
	return g
}

// growBatch appends one batch to g: a new label, vertices with properties
// and edges between old and new vertices.
func growBatch(g *graph.Graph, k int) {
	l := g.Dict().Intern(fmt.Sprintf("batch-%d-ü", k))
	n := g.NumVertices()
	for i := 0; i < 5+k; i++ {
		v := g.AddVertex(l)
		if i%2 == 0 {
			g.SetVertexProp(v, "name", graph.String(fmt.Sprintf("b%d.%d", k, i)))
		}
		if i%3 == 0 {
			g.SetVertexProp(v, "step", graph.Int(int64(k)))
		}
	}
	for i := 0; i < 7+k; i++ {
		e := g.AddEdge(graph.VertexID((i*7)%n), graph.VertexID(n+i%(5+k)), l)
		if i%2 == 1 {
			g.SetEdgeProp(e, "w", graph.Float(float64(i)+0.5))
		}
	}
}

// codecCases returns every byte stream the golden pins, by name: Save on
// the generators' graphs and the hand-built one, and three deltas over the
// hand-built one, each encoded before and after a Freeze packs its
// properties.
func codecCases(t *testing.T) (names []string, streams [][]byte) {
	t.Helper()
	add := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, streams = append(names, name), append(streams, buf.Bytes())
	}
	save := func(name string, g *graph.Graph) {
		add(name, func(b *bytes.Buffer) error { return g.Save(b) })
	}
	save("save.pd-2000-seed-1", gen.Pd(gen.PdConfig{N: 2000, Seed: 1}).PG())
	sd, _ := gen.Sd(gen.SdConfig{Seed: 3})
	save("save.sd-seed-3", sd.PG())
	g := everyKindGraph()
	save("save.every-kind", g)
	g.Freeze()
	save("save.every-kind.frozen", g)
	for k := 1; k <= 3; k++ {
		d, v, e := g.Dict().Len(), g.NumVertices(), g.NumEdges()
		growBatch(g, k)
		delta := func(b *bytes.Buffer) error { return g.EncodeDelta(b, d, v, e) }
		add(fmt.Sprintf("delta-%d", k), delta)
		g.Freeze()
		add(fmt.Sprintf("delta-%d.frozen", k), delta)
	}
	save("save.every-kind.grown", g)
	return names, streams
}

// TestCodecGolden pins the bytes Save (PGS1) and EncodeDelta (PGD1) write,
// by length and sha256, in testdata/codec.golden. A change to either
// writer that moves one byte fails it; regenerate with
// `go test -run TestCodecGolden -update ./internal/graph` only for an
// intended format change.
func TestCodecGolden(t *testing.T) {
	names, streams := codecCases(t)
	var b strings.Builder
	for i, name := range names {
		fmt.Fprintf(&b, "%s %d %x\n", name, len(streams[i]), sha256.Sum256(streams[i]))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(codecGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(codecGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("codec bytes moved:\n got\n%s want\n%s", got, want)
	}
}
