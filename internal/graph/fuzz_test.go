package graph

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzGraphLoad feeds arbitrary bytes to the .pg deserializer. The
// contract under fuzz: Load never panics; every rejection wraps
// ErrBadFormat (truncation, corrupt varints, out-of-range references all
// look the same to callers, who dispatch on the sentinel); and anything
// that does load is a well-formed graph that round-trips through Save and
// freezes cleanly. Seed corpus: testdata/fuzz/FuzzGraphLoad plus the
// programmatic seeds below.
func FuzzGraphLoad(f *testing.F) {
	valid := mustSaveBytes(randomGraph(20, 40, 5))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add([]byte("PGS1"))
	f.Add([]byte("XXXX junk"))
	f.Add([]byte{})
	for _, i := range []int{5, 9, len(valid) - 3} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("Load error does not wrap ErrBadFormat: %v", err)
			}
			return
		}
		// Accepted input: the graph must be internally consistent enough to
		// serialize, reload identically, and build a snapshot index.
		out := mustSaveBytes(g)
		g2, err := Load(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round-trip reload failed: %v", err)
		}
		if got, want := fmt.Sprintf("%+v", g2.Stats()), fmt.Sprintf("%+v", g.Stats()); got != want {
			t.Fatalf("round-trip stats drifted:\n%s\n%s", got, want)
		}
		fz, rows := g.Freeze(), columnRowsOf(g)
		for v := 0; v < fz.NumVertices(); v++ {
			if outDegree(fz, VertexID(v)) != len(rows.out[v]) {
				t.Fatalf("frozen out-rows of %d disagree with the edge columns", v)
			}
		}
	})
}

func mustSaveBytes(g *Graph) []byte {
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzApplyDelta feeds arbitrary bytes to ApplyDelta on a copy of one base
// graph. The contract under fuzz: it never panics; every error wraps
// ErrBadFormat or ErrDeltaBase; a failed apply leaves the graph saving to
// the base's bytes; and an accepted delta, re-encoded at the base and
// applied to another copy of it, gives a graph that saves to the same
// bytes. Seeds: a valid delta, its truncations and byte flips, and a delta
// for another base.
func FuzzApplyDelta(f *testing.F) {
	base, _, delta := buildDeltaPair(f, 7)
	baseBytes := mustSaveBytes(base)
	f.Add(delta)
	for _, cut := range []int{0, 4, 5, 8, len(delta) / 2, len(delta) - 1} {
		f.Add(delta[:cut])
	}
	for _, i := range []int{4, 5, 8, 12, len(delta) / 2, len(delta) - 2} {
		mut := append([]byte(nil), delta...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	_, _, other := buildDeltaPair(f, 8)
	f.Add(other)
	load := func(t *testing.T) *Graph {
		g, err := Load(bytes.NewReader(baseBytes))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := load(t)
		if err := g.ApplyDelta(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrDeltaBase) {
				t.Fatalf("ApplyDelta error wraps neither sentinel: %v", err)
			}
			if !bytes.Equal(mustSaveBytes(g), baseBytes) {
				t.Fatal("a failed apply changed the graph")
			}
			return
		}
		var again bytes.Buffer
		if err := g.EncodeDelta(&again, base.Dict().Len(), base.NumVertices(), base.NumEdges()); err != nil {
			t.Fatal(err)
		}
		replica := load(t)
		if err := replica.ApplyDelta(&again); err != nil {
			t.Fatalf("re-encoded delta refused: %v", err)
		}
		if !bytes.Equal(mustSaveBytes(replica), mustSaveBytes(g)) {
			t.Fatal("the re-encoded delta gives a different graph")
		}
	})
}
