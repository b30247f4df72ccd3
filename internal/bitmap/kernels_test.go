package bitmap

import "testing"

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

// TestWordAccess: capacity is whole words.
func TestWordAccess(t *testing.T) {
	b := NewBitset(130)
	b.Add(129)
	if b.Capacity() != 192 {
		t.Fatalf("Capacity = %d, want 192", b.Capacity())
	}
}
