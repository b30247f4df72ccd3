package bitmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// model is a reference set implementation.
type model map[uint32]bool

func (m model) slice() []uint32 {
	out := make([]uint32, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstModel drives a Set through random operations and compares
// every observable against the model.
func checkAgainstModel(t *testing.T, name string, mk func() Set, ops []uint32) {
	t.Helper()
	s := mk()
	m := model{}
	for i, x := range ops {
		x %= 1 << 18 // keep roaring containers interesting but bounded
		switch i % 3 {
		case 0, 1:
			added := s.Add(x)
			if added == m[x] {
				t.Fatalf("%s: Add(%d) returned %v, model had %v", name, x, added, m[x])
			}
			m[x] = true
		case 2:
			if s.Contains(x) != m[x] {
				t.Fatalf("%s: Contains(%d) = %v, want %v", name, x, s.Contains(x), m[x])
			}
		}
	}
	if s.Cardinality() != len(m) {
		t.Fatalf("%s: cardinality %d, want %d", name, s.Cardinality(), len(m))
	}
	var got []uint32
	s.Iterate(func(x uint32) bool { got = append(got, x); return true })
	want := m.slice()
	if len(got) != len(want) {
		t.Fatalf("%s: iterate returned %d elements, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: iterate[%d] = %d, want %d (ascending order required)", name, i, got[i], want[i])
		}
	}
}

func TestSetsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(3000)
		ops := make([]uint32, n)
		for i := range ops {
			ops[i] = rng.Uint32()
		}
		checkAgainstModel(t, "bitset", func() Set { return NewBitset(0) }, ops)
		checkAgainstModel(t, "roaring", func() Set { return NewRoaring() }, ops)
	}
}

// TestDiffAddIntoQuick: DiffAddInto(other) must equal the set difference,
// and afterwards other must equal the union — for every combination of
// implementations.
func TestDiffAddIntoQuick(t *testing.T) {
	mks := map[string]func() Set{
		"bitset":  func() Set { return NewBitset(0) },
		"roaring": func() Set { return NewRoaring() },
	}
	for an, mkA := range mks {
		for bn, mkB := range mks {
			f := func(as, bs []uint32) bool {
				a, b := mkA(), mkB()
				ma, mb := model{}, model{}
				for _, x := range as {
					x %= 1 << 16
					a.Add(x)
					ma[x] = true
				}
				for _, x := range bs {
					x %= 1 << 16
					b.Add(x)
					mb[x] = true
				}
				out := a.DiffAddInto(b, nil)
				// out = ma \ mb
				wantDiff := model{}
				for x := range ma {
					if !mb[x] {
						wantDiff[x] = true
					}
				}
				if len(out) != len(wantDiff) {
					return false
				}
				for _, x := range out {
					if !wantDiff[x] {
						return false
					}
				}
				// b = ma ∪ mb
				for x := range ma {
					if !b.Contains(x) {
						return false
					}
				}
				return b.Cardinality() == len(ma)+len(mb)-(len(ma)-len(wantDiff))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("%s->%s: %v", an, bn, err)
			}
		}
	}
}

func TestBitsetSetOps(t *testing.T) {
	f := func(as, bs []uint32) bool {
		a, b := NewBitset(0), NewBitset(0)
		ma, mb := model{}, model{}
		for _, x := range as {
			x %= 4096
			a.Add(x)
			ma[x] = true
		}
		for _, x := range bs {
			x %= 4096
			b.Add(x)
			mb[x] = true
		}
		u := a.Clone()
		u.UnionWith(b)
		i := a.Clone()
		i.IntersectWith(b)
		wantU, wantI := 0, 0
		inter := false
		for x := range ma {
			if mb[x] {
				wantI++
				inter = true
			}
		}
		wantU = len(ma) + len(mb) - wantI
		if u.Cardinality() != wantU || i.Cardinality() != wantI {
			return false
		}
		if a.Intersects(b) != inter {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBitsetRemove(t *testing.T) {
	b := NewBitset(128)
	for i := uint32(0); i < 100; i += 2 {
		b.Add(i)
	}
	if !b.Remove(4) || b.Remove(4) || b.Remove(5) {
		t.Fatal("Remove semantics broken")
	}
	if b.Contains(4) || !b.Contains(6) {
		t.Fatal("Remove removed the wrong bit")
	}
	if b.Cardinality() != 49 {
		t.Fatalf("cardinality %d after remove", b.Cardinality())
	}
}

func TestRoaringContainerPromotion(t *testing.T) {
	r := NewRoaring()
	// Fill past the array-container threshold within one chunk.
	for i := uint32(0); i < arrayMaxSize+100; i++ {
		if !r.Add(i * 3 % 65536) {
			// duplicates possible with mod; re-add is fine
			continue
		}
	}
	if r.Cardinality() == 0 {
		t.Fatal("empty after fill")
	}
	// All inserted values must still be present.
	for i := uint32(0); i < arrayMaxSize+100; i++ {
		if !r.Contains(i * 3 % 65536) {
			t.Fatalf("lost %d after promotion", i*3%65536)
		}
	}
	// Values in distinct high-bit chunks.
	r2 := NewRoaring()
	vals := []uint32{0, 65535, 65536, 1 << 20, 1<<31 + 5}
	for _, v := range vals {
		r2.Add(v)
	}
	for _, v := range vals {
		if !r2.Contains(v) {
			t.Fatalf("chunked value %d missing", v)
		}
	}
	if r2.Contains(1) || r2.Contains(1<<20+1) {
		t.Fatal("phantom membership")
	}
}

func TestIterateEarlyStop(t *testing.T) {
	for _, s := range []Set{NewBitset(0), NewRoaring()} {
		for i := uint32(0); i < 100; i++ {
			s.Add(i)
		}
		count := 0
		s.Iterate(func(uint32) bool { count++; return count < 10 })
		if count != 10 {
			t.Errorf("early stop visited %d", count)
		}
	}
}

func TestBytesReporting(t *testing.T) {
	b := NewBitset(1 << 16)
	r := NewRoaring()
	for i := uint32(0); i < 100; i++ {
		b.Add(i * 600)
		r.Add(i * 600)
	}
	if b.Bytes() == 0 || r.Bytes() == 0 {
		t.Fatal("zero byte estimates")
	}
	// Sparse data: roaring should be much smaller than a dense bitset
	// spanning the same range.
	if r.Bytes() >= b.Bytes() {
		t.Errorf("roaring (%dB) not smaller than bitset (%dB) on sparse data", r.Bytes(), b.Bytes())
	}
}

func BenchmarkBitsetDiffAddInto(b *testing.B) {
	a, o := NewBitset(1<<16), NewBitset(1<<16)
	for i := uint32(0); i < 1<<16; i += 2 {
		a.Add(i)
	}
	for i := uint32(0); i < 1<<16; i += 3 {
		o.Add(i)
	}
	buf := make([]uint32, 0, 1<<15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oc := o.Clone()
		buf = a.DiffAddInto(oc, buf[:0])
	}
}

func BenchmarkRoaringAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRoaring()
		for j := uint32(0); j < 4096; j++ {
			r.Add(j * 17)
		}
	}
}

// TestPooledUnionsKeepLength: two pooled sets of different lengths are
// unioned into each other by turns, by UnionWith and by DiffAddInto. Each
// takes the longer one's word length once and keeps it; growing a receiver
// by Add's amortized rule would compound the slack on every turn.
func TestPooledUnionsKeepLength(t *testing.T) {
	for _, diff := range []bool{false, true} {
		a, b := NewBitset(10*wordBits), NewBitset(16*wordBits)
		a.Add(3)
		b.Add(16*wordBits - 1)
		for turn := 0; turn < 64; turn++ {
			dst, src := a, b
			if turn%2 == 1 {
				dst, src = b, a
			}
			if diff {
				src.DiffAddInto(dst, nil)
			} else {
				dst.UnionWith(src)
			}
			if len(a.words) != 16 || len(b.words) != 16 {
				t.Fatalf("diff=%v turn %d: word lengths %d and %d, want 16 and 16", diff, turn, len(a.words), len(b.words))
			}
		}
		if a.Cardinality() != 2 || b.Cardinality() != 2 {
			t.Fatalf("diff=%v: cardinalities %d and %d, want 2", diff, a.Cardinality(), b.Cardinality())
		}
	}
}
