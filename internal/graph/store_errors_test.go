package graph

import (
	"bytes"
	"errors"
	"testing"
)

// The server loads untrusted .pg files, so Load must reject every malformed
// input with an ErrBadFormat-wrapped error and must never panic.

// testGraph builds a small graph exercising every serialized section:
// dictionary, vertices, edges, vertex props of all value kinds, edge props.
func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	e := g.Dict().Intern("E")
	a := g.Dict().Intern("A")
	u := g.Dict().Intern("used")
	v0 := g.AddVertex(e)
	v1 := g.AddVertex(a)
	v2 := g.AddVertex(e)
	eid := g.AddEdge(v1, v0, u)
	g.AddEdge(v2, v1, g.Dict().Intern("gen"))
	g.SetVertexProp(v0, "name", String("dataset"))
	g.SetVertexProp(v0, "version", Int(3))
	g.SetVertexProp(v1, "score", Float(0.5))
	g.SetVertexProp(v2, "final", Bool(true))
	g.SetEdgeProp(eid, "role", String("input"))
	return g
}

func saveBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadNoPanic runs Load and converts a panic into a test failure.
func loadNoPanic(t *testing.T, data []byte) (g *Graph, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked on %d bytes: %v", len(data), r)
		}
	}()
	return Load(bytes.NewReader(data))
}

func TestLoadTruncatedAtEveryByte(t *testing.T) {
	data := saveBytes(t, testGraph(t))
	if g, err := loadNoPanic(t, data); err != nil || g.NumVertices() != 3 {
		t.Fatalf("intact round trip failed: %v", err)
	}
	for i := 0; i < len(data); i++ {
		_, err := loadNoPanic(t, data[:i])
		if err == nil {
			t.Fatalf("truncation at byte %d/%d silently accepted", i, len(data))
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation at byte %d: error not ErrBadFormat-wrapped: %v", i, err)
		}
	}
}

func TestLoadBadMagic(t *testing.T) {
	data := saveBytes(t, testGraph(t))
	bad := append([]byte("XGS1"), data[4:]...)
	if _, err := loadNoPanic(t, bad); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := loadNoPanic(t, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("empty input: %v", err)
	}
}

// TestLoadCorruptEveryByte flips every byte of a valid stream through a few
// corruptions; Load must either reject with ErrBadFormat or decode something
// structurally coherent (a flipped property byte can yield a different but
// valid graph) — but never panic.
func TestLoadCorruptEveryByte(t *testing.T) {
	data := saveBytes(t, testGraph(t))
	for i := 0; i < len(data); i++ {
		for _, delta := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= delta
			g, err := loadNoPanic(t, mut)
			if err != nil {
				if i >= 4 && !errors.Is(err, ErrBadFormat) {
					t.Fatalf("byte %d ^ %#x: error not ErrBadFormat-wrapped: %v", i, delta, err)
				}
				continue
			}
			// Accepted: the decoded graph must at least be internally
			// consistent enough to walk.
			for e := 0; e < g.NumEdges(); e++ {
				if int(g.Src(EdgeID(e))) >= g.NumVertices() || int(g.Dst(EdgeID(e))) >= g.NumVertices() {
					t.Fatalf("byte %d ^ %#x: accepted graph has dangling edge", i, delta)
				}
			}
		}
	}
}

// TestLoadHostileCounts feeds hand-built streams with absurd section counts;
// the decoder must refuse them before allocating.
func TestLoadHostileCounts(t *testing.T) {
	// varint helper
	varint := func(x uint64) []byte {
		var b []byte
		for x >= 0x80 {
			b = append(b, byte(x)|0x80)
			x >>= 7
		}
		return append(b, byte(x))
	}
	cases := [][]byte{
		// dictionary claims 2^20 labels
		append([]byte("PGS1"), varint(1<<20)...),
		// huge string length inside the dictionary
		append(append([]byte("PGS1"), varint(1)...), varint(1<<40)...),
		// zero labels, 2^40 vertices
		append(append([]byte("PGS1"), varint(0)...), varint(1<<40)...),
		// a just-under-the-cap string length (2^27) with no data behind it:
		// must fail at EOF without a giant upfront allocation
		append(append([]byte("PGS1"), varint(1)...), varint(1<<27)...),
	}
	// Hostile props count: zero labels is invalid for a vertex, so build
	// a minimal valid prefix (1 label "E", 1 vertex, 0 edges), then claim
	// one props record with 2^23 keys and no data.
	hostileProps := []byte("PGS1")
	hostileProps = append(hostileProps, varint(1)...) // 1 dict entry
	hostileProps = append(hostileProps, varint(1)...) // len("E")
	hostileProps = append(hostileProps, 'E')
	hostileProps = append(hostileProps, varint(1)...)     // 1 vertex
	hostileProps = append(hostileProps, varint(1)...)     // label id 1
	hostileProps = append(hostileProps, varint(0)...)     // 0 edges
	hostileProps = append(hostileProps, varint(1)...)     // 1 non-nil props record
	hostileProps = append(hostileProps, varint(0)...)     // for vertex 0
	hostileProps = append(hostileProps, varint(1<<23)...) // claiming 2^23 keys
	cases = append(cases, hostileProps)
	for i, data := range cases {
		if _, err := loadNoPanic(t, data); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("hostile case %d: %v", i, err)
		}
	}
}

// TestLoadOutOfRangeRefs corrupts structural references: a vertex label and
// an edge endpoint beyond their tables.
func TestLoadOutOfRangeRefs(t *testing.T) {
	g := New()
	l := g.Dict().Intern("E")
	g.AddVertex(l)
	g.AddVertex(l)
	g.AddEdge(0, 1, l)
	data := saveBytes(t, g)

	// The stream layout here: magic(4) | 1 | "E"(2) | nv=2 | l l | ne=1 |
	// src dst l | props... Patch the vertex label bytes and edge endpoint
	// bytes to out-of-range values.
	patch := func(off int, val byte) []byte {
		mut := append([]byte(nil), data...)
		mut[off] = val
		return mut
	}
	// offsets: 0-3 magic, 4 dictLen, 5-6 "E", 7 nv, 8 label0, 9 label1,
	// 10 ne, 11 src, 12 dst, 13 elabel
	for name, mut := range map[string][]byte{
		"vertex label out of range": patch(8, 9),
		"edge src out of range":     patch(11, 7),
		"edge dst out of range":     patch(12, 7),
		"edge label out of range":   patch(13, 9),
	} {
		if _, err := loadNoPanic(t, mut); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestLoadCorruptPropIndex points a property record at a vertex that does
// not exist.
func TestLoadCorruptPropIndex(t *testing.T) {
	g := New()
	l := g.Dict().Intern("E")
	v := g.AddVertex(l)
	g.SetVertexProp(v, "k", Int(1))
	data := saveBytes(t, g)
	// Find the vertex-props section: magic(4) | 1 | "E"(2) | nv=1 | label |
	// ne=0 | nonNil=1 | idx=0 | cnt=1 | "k"(2) | kind val
	// idx sits right after nonNil.
	idxOff := 4 + 1 + 2 + 1 + 1 + 1 + 1
	mut := append([]byte(nil), data...)
	mut[idxOff] = 5 // vertex 5 of 1
	if _, err := loadNoPanic(t, mut); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupt prop index: %v", err)
	}
	// And a bogus value kind.
	kindOff := len(data) - 2
	mut = append([]byte(nil), data...)
	mut[kindOff] = 200
	if _, err := loadNoPanic(t, mut); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupt value kind: %v", err)
	}
}

// TestLoadRefusesWhatNoWriterEmits holds Load to the rules ApplyDelta
// keeps: a dictionary name twice or empty, trailing bytes, and property
// runs whose element indices or keys do not ascend are all ErrBadFormat.
// No writer ever emitted any of them, and a repeated name would relabel
// the graph: the vertex labelled with the second "A" below would load as
// "B".
func TestLoadRefusesWhatNoWriterEmits(t *testing.T) {
	cases := map[string][]byte{
		"repeated name": append([]byte("PGS1"),
			3, 1, 'A', 1, 'A', 1, 'B', 2, 1, 2, 1, 0, 1, 2, 0, 0),
		"empty name": append([]byte("PGS1"),
			2, 1, 'A', 0, 2, 1, 1, 0, 0, 0),
		"saved graph and two junk bytes": append(saveBytes(t, testGraph(t)), 0, 7),
		// One vertex labelled "E", two property runs both for vertex 0.
		"repeated element": append([]byte("PGS1"),
			1, 1, 'E', 1, 1, 0, 2, 0, 1, 1, 'a', 2, 1, 0, 1, 1, 'b', 2, 1, 0),
		// Two vertices, runs for vertex 1 then vertex 0.
		"descending elements": append([]byte("PGS1"),
			1, 1, 'E', 2, 1, 1, 0, 2, 1, 1, 1, 'a', 2, 1, 0, 1, 1, 'a', 2, 1, 0),
		"descending keys": append([]byte("PGS1"),
			1, 1, 'E', 1, 1, 0, 1, 0, 2, 1, 'b', 2, 1, 1, 'a', 2, 1, 0),
		"repeated key": append([]byte("PGS1"),
			1, 1, 'E', 1, 1, 0, 1, 0, 2, 1, 'a', 2, 1, 1, 'a', 2, 2, 0),
	}
	for name, data := range cases {
		g, err := loadNoPanic(t, data)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: want ErrBadFormat, got %v", name, err)
			if err == nil && g.NumVertices() > 1 {
				t.Logf("%s: vertex 1 loaded as %q", name, g.Dict().Name(g.VertexLabel(1)))
			}
		}
	}
	// The same streams with the offending part mended load.
	for name, data := range map[string][]byte{
		"distinct names":       append([]byte("PGS1"), 3, 1, 'A', 1, 'C', 1, 'B', 2, 1, 2, 1, 0, 1, 2, 0, 0),
		"ascending elements":   append([]byte("PGS1"), 1, 1, 'E', 2, 1, 1, 0, 2, 0, 1, 1, 'a', 2, 1, 1, 1, 1, 'a', 2, 1, 0),
		"ascending keys":       append([]byte("PGS1"), 1, 1, 'E', 1, 1, 0, 1, 0, 2, 1, 'a', 2, 1, 1, 'b', 2, 1, 0),
		"saved graph, no junk": saveBytes(t, testGraph(t)),
	} {
		if _, err := loadNoPanic(t, data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
