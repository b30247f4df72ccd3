package bitmap

import (
	"math/rand"
	"reflect"
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

// TestWordAccess: capacity is whole words.
func TestWordAccess(t *testing.T) {
	b := NewBitset(130)
	b.Add(129)
	if b.Capacity() != 192 {
		t.Fatalf("Capacity = %d, want 192", b.Capacity())
	}
}

// TestRuns: Runs reports the maximal runs of the set in ascending order,
// joining runs across word boundaries and whole words, against the runs of
// the sorted elements, and leaves the set as it was.
func TestRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := [][]uint32{nil, {0}, {63, 64}, {0, 1, 2, 127, 129, 300}}
	full := make([]uint32, 0, 200)
	for x := uint32(60); x < 260; x++ {
		full = append(full, x)
	}
	sets = append(sets, full)
	for i := 0; i < 200; i++ {
		var in []uint32
		for x, on := uint32(0), false; x < 400; x++ {
			if on = on != (rng.Intn(8) == 0); on {
				in = append(in, x)
			}
		}
		sets = append(sets, in)
	}
	for _, in := range sets {
		b := NewBitset(64)
		for _, x := range in {
			b.Add(x)
		}
		var want, got [][2]uint32
		for i, x := range in {
			if i > 0 && in[i-1]+1 == x {
				want[len(want)-1][1] = x
			} else {
				want = append(want, [2]uint32{x, x})
			}
		}
		b.Runs(func(first, last uint32) { got = append(got, [2]uint32{first, last}) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Runs of %v = %v, want %v", in, got, want)
		}
		if b.Cardinality() != len(in) {
			t.Fatalf("Runs changed the cardinality to %d, want %d", b.Cardinality(), len(in))
		}
	}
}
