package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildRandom(rng *rand.Rand, nv, ne int) *Graph {
	g := New()
	lA := g.Dict().Intern("A")
	lB := g.Dict().Intern("B")
	le1 := g.Dict().Intern("x")
	le2 := g.Dict().Intern("y")
	for i := 0; i < nv; i++ {
		l := lA
		if i%2 == 1 {
			l = lB
		}
		v := g.AddVertex(l)
		if i%3 == 0 {
			g.SetVertexProp(v, "name", String("v"))
			g.SetVertexProp(v, "n", Int(int64(i)))
		}
	}
	for i := 0; i < ne; i++ {
		src := VertexID(rng.Intn(nv))
		dst := VertexID(rng.Intn(nv))
		l := le1
		if i%2 == 1 {
			l = le2
		}
		e := g.AddEdge(src, dst, l)
		if i%4 == 0 {
			g.SetEdgeProp(e, "w", Float(float64(i)))
		}
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := New()
	la := g.Dict().Intern("A")
	lb := g.Dict().Intern("B")
	le := g.Dict().Intern("e")
	a := g.AddVertex(la)
	b := g.AddVertex(lb)
	e := g.AddEdge(a, b, le)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatal("sizes wrong")
	}
	if g.Src(e) != a || g.Dst(e) != b || g.EdgeLabel(e) != le {
		t.Fatal("edge accessors wrong")
	}
	if got := g.VerticesWithLabel(la); len(got) != 1 || got[0] != a {
		t.Fatal("label index wrong")
	}
	fz := g.Freeze()
	if nbrs, eids := fz.Rows(le, true).Row(a); len(nbrs) != 1 || nbrs[0] != b || eids[0] != e {
		t.Fatal("out-row wrong")
	}
	if nbrs, eids := fz.Rows(le, false).Row(b); len(nbrs) != 1 || nbrs[0] != a || eids[0] != e {
		t.Fatal("in-row wrong")
	}
	if nbrs, _ := fz.Rows(le, true).Row(b); len(nbrs) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestProps(t *testing.T) {
	g := New()
	v := g.AddVertex(g.Dict().Intern("A"))
	if !g.VertexProp(v, "missing").IsZero() {
		t.Fatal("missing prop should be zero")
	}
	g.SetVertexProp(v, "s", String("hello"))
	g.SetVertexProp(v, "i", Int(-42))
	g.SetVertexProp(v, "f", Float(2.5))
	g.SetVertexProp(v, "b", Bool(true))
	if s, ok := g.VertexProp(v, "s").Str(); !ok || s != "hello" {
		t.Fatal("string prop")
	}
	if i, ok := g.VertexProp(v, "i").IntVal(); !ok || i != -42 {
		t.Fatal("int prop")
	}
	if f, ok := g.VertexProp(v, "f").FloatVal(); !ok || f != 2.5 {
		t.Fatal("float prop")
	}
	if b, ok := g.VertexProp(v, "b").BoolVal(); !ok || !b {
		t.Fatal("bool prop")
	}
	if g.VertexProp(v, "i").AsString() != "-42" {
		t.Fatal("AsString int")
	}
	// Overwrite.
	g.SetVertexProp(v, "s", String("bye"))
	if s, _ := g.VertexProp(v, "s").Str(); s != "bye" {
		t.Fatal("overwrite failed")
	}
}

// propsOf collects v's properties into a map.
func propsOf(g *Graph, v VertexID) Props {
	p := Props{}
	g.VertexProps(v, func(k string, val Value) bool {
		p[k] = val
		return true
	})
	return p
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 2+rng.Intn(200), rng.Intn(500))
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("size mismatch")
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := VertexID(v)
			if g.Dict().Name(g.VertexLabel(id)) != g2.Dict().Name(g2.VertexLabel(id)) {
				t.Fatalf("vertex %d label mismatch", v)
			}
			p1, p2 := propsOf(g, id), propsOf(g2, id)
			if len(p1) != len(p2) {
				t.Fatalf("vertex %d props count mismatch: %d vs %d", v, len(p1), len(p2))
			}
			for k, val := range p1 {
				if !p2[k].Equal(val) {
					t.Fatalf("vertex %d prop %q mismatch", v, k)
				}
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			id := EdgeID(e)
			if g.Src(id) != g2.Src(id) || g.Dst(id) != g2.Dst(id) {
				t.Fatalf("edge %d endpoints mismatch", e)
			}
			if g.Dict().Name(g.EdgeLabel(id)) != g2.Dict().Name(g2.EdgeLabel(id)) {
				t.Fatalf("edge %d label mismatch", e)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE"),
		[]byte("PGS1\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
	} {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("Load(%q) succeeded on garbage", data)
		}
	}
	// Truncated valid stream.
	g := buildRandom(rand.New(rand.NewSource(1)), 50, 100)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(full) / 2} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Load of truncated stream (%d bytes) succeeded", cut)
		}
	}
}

func TestValueRoundTripQuick(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		g := New()
		v := g.AddVertex(g.Dict().Intern("A"))
		g.SetVertexProp(v, "s", String(s))
		g.SetVertexProp(v, "i", Int(i))
		g.SetVertexProp(v, "f", Float(fl))
		g.SetVertexProp(v, "b", Bool(b))
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			return false
		}
		g2, err := Load(&buf)
		if err != nil {
			return false
		}
		return g2.VertexProp(v, "s").Equal(String(s)) &&
			g2.VertexProp(v, "i").Equal(Int(i)) &&
			g2.VertexProp(v, "f").Equal(Float(fl)) &&
			g2.VertexProp(v, "b").Equal(Bool(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIsAcyclic(t *testing.T) {
	g := New()
	l := g.Dict().Intern("A")
	le := g.Dict().Intern("e")
	a := g.AddVertex(l)
	b := g.AddVertex(l)
	c := g.AddVertex(l)
	g.AddEdge(a, b, le)
	g.AddEdge(b, c, le)
	if !g.IsAcyclic(nil) {
		t.Fatal("chain should be acyclic")
	}
	back := g.Dict().Intern("back")
	g.AddEdge(c, a, back)
	if g.IsAcyclic(nil) {
		t.Fatal("cycle undetected")
	}
	// Filtering out the back edge restores acyclicity.
	if !g.IsAcyclic(func(lbl Label) bool { return lbl != back }) {
		t.Fatal("filtered acyclicity broken")
	}
}

func TestStats(t *testing.T) {
	g := buildRandom(rand.New(rand.NewSource(3)), 100, 300)
	st := g.Stats()
	if st.Vertices != 100 || st.Edges != 300 {
		t.Fatal("stats sizes wrong")
	}
	total := 0
	for _, c := range st.VertexByLabel {
		total += c
	}
	if total != 100 {
		t.Fatal("vertex label histogram incomplete")
	}
	if st.MaxOutDegree <= 0 {
		t.Fatal("degree stats missing")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New()
	la := g.Dict().Intern("A")
	le := g.Dict().Intern("uses")
	a := g.AddVertex(la)
	b := g.AddVertex(la)
	g.SetVertexProp(a, "name", String(`say "hi"`))
	g.AddEdge(a, b, le)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, DOTOptions{NameProp: "name"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "uses") {
		t.Fatalf("DOT output incomplete: %s", out)
	}
	if !strings.Contains(out, `\"hi\"`) {
		t.Fatalf("DOT quoting broken: %s", out)
	}
	// Subset rendering drops edges to excluded vertices.
	buf.Reset()
	if err := g.WriteDOT(&buf, DOTOptions{Subset: map[VertexID]bool{a: true}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "->") {
		t.Fatal("subset DOT should not contain the edge")
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	if b := d.Intern("alpha"); b != a {
		t.Fatal("re-intern changed id")
	}
	if d.Name(a) != "alpha" {
		t.Fatal("name lookup")
	}
	if _, ok := d.Lookup("beta"); ok {
		t.Fatal("phantom lookup")
	}
	if d.Len() != 2 { // "" + alpha
		t.Fatalf("len %d", d.Len())
	}
}
