package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// buildDeltaPair returns a base graph plus the same graph with one extra
// randomized batch appended, and the encoded delta between them.
func buildDeltaPair(t testing.TB, seed int64) (base, grown *Graph, delta []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New()
	labels := []Label{g.Dict().Intern("l0"), g.Dict().Intern("l1")}
	for i := 0; i < 20+rng.Intn(30); i++ {
		v := g.AddVertex(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			g.SetVertexProp(v, "p", Int(rng.Int63n(100)))
		}
	}
	for i := 0; i < 30+rng.Intn(40); i++ {
		e := g.AddEdge(VertexID(rng.Intn(g.NumVertices())), VertexID(rng.Intn(g.NumVertices())), labels[rng.Intn(len(labels))])
		if rng.Intn(3) == 0 {
			g.SetEdgeProp(e, "w", String("x"))
		}
	}
	baseDict, baseV, baseE := g.Dict().Len(), g.NumVertices(), g.NumEdges()

	// Clone the base by save/load so it is an independent graph.
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("save base: %v", err)
	}
	base, err := Load(&buf)
	if err != nil {
		t.Fatalf("load base: %v", err)
	}

	// The batch: new labels, vertices with props, edges touching old and new
	// vertices.
	labels = append(labels, g.Dict().Intern("l2"))
	for i := 0; i < 5+rng.Intn(10); i++ {
		v := g.AddVertex(labels[rng.Intn(len(labels))])
		g.SetVertexProp(v, "name", String("v"))
		if rng.Intn(2) == 0 {
			g.SetVertexProp(v, "f", Float(1.5))
		}
	}
	for i := 0; i < 10+rng.Intn(10); i++ {
		e := g.AddEdge(VertexID(rng.Intn(g.NumVertices())), VertexID(rng.Intn(g.NumVertices())), labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			g.SetEdgeProp(e, "b", Bool(true))
		}
	}

	var db bytes.Buffer
	if err := g.EncodeDelta(&db, baseDict, baseV, baseE); err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	return base, g, db.Bytes()
}

// graphsEqual asserts two graphs have identical serialized form (labels,
// edges, props, dictionary).
func graphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	var wb, gb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		t.Fatalf("save want: %v", err)
	}
	if err := got.Save(&gb); err != nil {
		t.Fatalf("save got: %v", err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("graphs differ: want %d/%d vertices/edges, got %d/%d",
			want.NumVertices(), want.NumEdges(), got.NumVertices(), got.NumEdges())
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		base, grown, delta := buildDeltaPair(t, seed)
		if err := base.ApplyDelta(bytes.NewReader(delta)); err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		graphsEqual(t, grown, base)
	}
}

func TestDeltaEmptyBatch(t *testing.T) {
	g := New()
	l := g.Dict().Intern("x")
	g.AddVertex(l)
	var db bytes.Buffer
	if err := g.EncodeDelta(&db, g.Dict().Len(), g.NumVertices(), g.NumEdges()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := g.ApplyDelta(bytes.NewReader(db.Bytes())); err != nil {
		t.Fatalf("apply empty delta: %v", err)
	}
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("empty delta changed the graph: %d/%d", g.NumVertices(), g.NumEdges())
	}
}

func TestDeltaBaseMismatch(t *testing.T) {
	base, _, delta := buildDeltaPair(t, 42)
	// Grow the target past the recorded base: the delta must be rejected
	// with ErrDeltaBase, not applied at the wrong offset.
	base.AddVertex(base.Dict().Intern("extra"))
	err := base.ApplyDelta(bytes.NewReader(delta))
	if !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("want ErrDeltaBase, got %v", err)
	}
}

func TestDeltaFromEmptyBase(t *testing.T) {
	// A delta over the empty graph (baseDict=1, the reserved empty label)
	// reconstructs the whole graph.
	g := New()
	l := g.Dict().Intern("a")
	v0 := g.AddVertex(l)
	v1 := g.AddVertex(l)
	g.AddEdge(v0, v1, l)
	var db bytes.Buffer
	if err := g.EncodeDelta(&db, 1, 0, 0); err != nil {
		t.Fatalf("encode: %v", err)
	}
	fresh := New()
	if err := fresh.ApplyDelta(bytes.NewReader(db.Bytes())); err != nil {
		t.Fatalf("apply: %v", err)
	}
	graphsEqual(t, g, fresh)
}

// TestDeltaCorruption flips and truncates delta bytes at every offset; every
// outcome must be either a clean ErrBadFormat/ErrDeltaBase error or a valid
// apply — never a panic — and a failed apply must leave the target graph
// untouched except for a fully-applied prefix... which cannot happen: apply
// is all-or-nothing, so any error must leave the graph byte-identical.
func TestDeltaCorruption(t *testing.T) {
	base, _, delta := buildDeltaPair(t, 7)
	var want bytes.Buffer
	if err := base.Save(&want); err != nil {
		t.Fatal(err)
	}
	check := func(data []byte) {
		t.Helper()
		// Work on a fresh copy each time so a (legitimately) successful
		// apply does not contaminate later iterations.
		g, err := Load(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ApplyDelta(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrDeltaBase) {
				t.Fatalf("unexpected error type: %v", err)
			}
			var got bytes.Buffer
			if err := g.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("failed apply mutated the graph")
			}
		}
	}
	for cut := 0; cut < len(delta); cut++ {
		check(delta[:cut])
	}
	for off := 0; off < len(delta); off++ {
		mut := append([]byte(nil), delta...)
		mut[off] ^= 0xff
		check(mut)
	}
}

func TestDeltaTrailingBytes(t *testing.T) {
	base, _, delta := buildDeltaPair(t, 3)
	err := base.ApplyDelta(bytes.NewReader(append(append([]byte(nil), delta...), 0x00)))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing bytes: want ErrBadFormat, got %v", err)
	}
}

func TestEncodeDeltaBadBase(t *testing.T) {
	g := New()
	g.AddVertex(g.Dict().Intern("a"))
	var buf bytes.Buffer
	for _, base := range [][3]int{{0, 0, 0}, {1, 5, 0}, {1, 0, 5}, {9, 0, 0}} {
		if err := g.EncodeDelta(&buf, base[0], base[1], base[2]); err == nil {
			t.Fatalf("EncodeDelta(%v) accepted an out-of-range base", base)
		}
	}
}
