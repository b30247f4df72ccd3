package bitmap

import (
	"math/rand"
	"testing"
)

type vid uint32 // stand-in for graph.VertexID: the kernels must take ~uint32

func TestOrInto(t *testing.T) {
	b := NewBitset(128)
	OrInto(b, []vid{0, 63, 64, 127, 63, 0})
	if b.Cardinality() != 4 {
		t.Fatalf("cardinality = %d, want 4", b.Cardinality())
	}
	for _, x := range []uint32{0, 63, 64, 127} {
		if !b.Contains(x) {
			t.Errorf("missing %d", x)
		}
	}
	// Rows may reference bits past the current capacity (growing graphs).
	OrInto(b, []vid{1000})
	if !b.Contains(1000) || b.Cardinality() != 5 {
		t.Fatalf("grow: Contains(1000)=%v card=%d", b.Contains(1000), b.Cardinality())
	}
}

func TestAndNotWith(t *testing.T) {
	b := NewBitset(256)
	o := NewBitset(64) // shorter than b: tail words must survive
	for _, x := range []uint32{0, 63, 64, 127, 128, 200} {
		b.Add(x)
	}
	o.Add(0)
	o.Add(63)
	b.AndNotWith(o)
	want := []uint32{64, 127, 128, 200}
	if b.Cardinality() != len(want) {
		t.Fatalf("cardinality = %d, want %d", b.Cardinality(), len(want))
	}
	for _, x := range want {
		if !b.Contains(x) {
			t.Errorf("missing %d", x)
		}
	}
	if b.Contains(0) || b.Contains(63) {
		t.Error("AndNotWith left subtracted bits")
	}
}

// TestIterateFromBoundaries pins the word-edge behavior: starting exactly
// on, one before and one past the 64-bit word boundaries.
func TestIterateFromBoundaries(t *testing.T) {
	b := NewBitset(256)
	elems := []uint32{0, 62, 63, 64, 65, 126, 127, 128, 200}
	for _, x := range elems {
		b.Add(x)
	}
	cases := []struct {
		from uint32
		want []uint32
	}{
		{0, elems},
		{63, []uint32{63, 64, 65, 126, 127, 128, 200}},
		{64, []uint32{64, 65, 126, 127, 128, 200}},
		{65, []uint32{65, 126, 127, 128, 200}},
		{127, []uint32{127, 128, 200}},
		{128, []uint32{128, 200}},
		{201, nil},
		{100000, nil}, // past capacity: no panic, no elements
	}
	for _, tc := range cases {
		var got []uint32
		b.IterateFrom(tc.from, func(x uint32) bool { got = append(got, x); return true })
		if len(got) != len(tc.want) {
			t.Fatalf("IterateFrom(%d) = %v, want %v", tc.from, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("IterateFrom(%d) = %v, want %v", tc.from, got, tc.want)
			}
		}
	}
	// Early exit stops immediately.
	calls := 0
	b.IterateFrom(63, func(x uint32) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early exit made %d calls, want 1", calls)
	}
}

// TestWordAccess: capacity is whole words.
func TestWordAccess(t *testing.T) {
	b := NewBitset(130)
	b.Add(129)
	if b.Capacity() != 192 {
		t.Fatalf("Capacity = %d, want 192", b.Capacity())
	}
}

func TestDensity(t *testing.T) {
	b := NewBitset(64)
	if d := b.Density(); d != 0 {
		t.Fatalf("empty density = %v", d)
	}
	for x := uint32(0); x < 32; x++ {
		b.Add(x)
	}
	if d := b.Density(); d != 0.5 {
		t.Fatalf("density = %v, want 0.5", d)
	}
	var empty Bitset
	if d := empty.Density(); d != 0 {
		t.Fatalf("zero-value density = %v", d)
	}
}

// TestRoaringConversions round-trips sparse and dense sets through both
// representations, exercising both container kinds in ToRoaring.
func TestRoaringConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		n    int
		gen  func() uint32
	}{
		{"sparse", 300, func() uint32 { return rng.Uint32() % 1_000_000 }},
		{"dense-chunk", 20_000, func() uint32 { return rng.Uint32() % 65_536 }},
		{"two-chunks", 9_000, func() uint32 { return rng.Uint32() % 200_000 }},
	} {
		b := NewBitset(1_000_000)
		for i := 0; i < tc.n; i++ {
			b.Add(tc.gen())
		}
		r := b.ToRoaring()
		if r.Cardinality() != b.Cardinality() {
			t.Fatalf("%s: roaring card %d != bitset card %d", tc.name, r.Cardinality(), b.Cardinality())
		}
		back := r.ToBitset(1_000_000)
		if back.Cardinality() != b.Cardinality() {
			t.Fatalf("%s: round-trip card %d != %d", tc.name, back.Cardinality(), b.Cardinality())
		}
		b.Iterate(func(x uint32) bool {
			if !r.Contains(x) || !back.Contains(x) {
				t.Fatalf("%s: %d lost in conversion", tc.name, x)
			}
			return true
		})
	}
}
