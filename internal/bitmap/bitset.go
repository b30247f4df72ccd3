// Package bitmap provides the set data structures used by the CFL
// reachability solvers: a dense Bitset (the "fast set" of CflrB, with
// word-parallel difference/union — the method of four Russians flavor the
// paper cites) and a Roaring-style compressed bitmap (the paper's Cbm
// variant), both behind a common Set interface.
package bitmap

import "math/bits"

const wordBits = 64

// Set is the interface the reachability solvers program against.
type Set interface {
	// Add inserts x; it reports whether x was newly added.
	Add(x uint32) bool
	// Contains reports membership of x.
	Contains(x uint32) bool
	// Cardinality returns the number of elements.
	Cardinality() int
	// Iterate calls fn for each element in ascending order until fn
	// returns false.
	Iterate(fn func(uint32) bool)
	// DiffAddInto visits every element of the receiver that is absent from
	// other, adds it to other, and appends it to out; it returns out. This
	// is the fused diff+union step CflrB performs per worklist pop.
	DiffAddInto(other Set, out []uint32) []uint32
	// Bytes estimates the memory footprint in bytes.
	Bytes() int
}

// Bitset is a dense, uncompressed bitset over uint32 keys.
type Bitset struct {
	words []uint64
	card  int
}

// NewBitset returns an empty dense bitset with capacity hint n (in bits).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (b *Bitset) grow(word int) {
	if word < len(b.words) {
		return
	}
	nw := make([]uint64, word+1+word/2)
	copy(nw, b.words)
	b.words = nw
}

// growTo extends b to n words exactly (a no-op when it has as many). A
// union sizes its receiver to the other set's length, not by grow's
// amortized rule: two sets unioned back and forth would otherwise each
// take the other's slack as their length and compound it.
func (b *Bitset) growTo(n int) {
	if n <= len(b.words) {
		return
	}
	nw := make([]uint64, n)
	copy(nw, b.words)
	b.words = nw
}

// Add inserts x, reporting whether it was newly added.
func (b *Bitset) Add(x uint32) bool {
	w, m := int(x/wordBits), uint64(1)<<(x%wordBits)
	b.grow(w)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.card++
	return true
}

// Remove deletes x, reporting whether it was present.
func (b *Bitset) Remove(x uint32) bool {
	w, m := int(x/wordBits), uint64(1)<<(x%wordBits)
	if w >= len(b.words) || b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.card--
	return true
}

// Contains reports membership.
func (b *Bitset) Contains(x uint32) bool {
	w := int(x / wordBits)
	return w < len(b.words) && b.words[w]&(1<<(x%wordBits)) != 0
}

// Cardinality returns the number of set bits.
func (b *Bitset) Cardinality() int { return b.card }

// Iterate visits elements in ascending order.
func (b *Bitset) Iterate(fn func(uint32) bool) {
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(uint32(wi*wordBits + t)) {
				return
			}
			w &= w - 1
		}
	}
}

// DiffAddInto adds every element of b missing from other into other and
// appends the new elements to out. When other is also a *Bitset the whole
// operation runs word-parallel.
func (b *Bitset) DiffAddInto(other Set, out []uint32) []uint32 {
	if ob, ok := other.(*Bitset); ok {
		ob.growTo(len(b.words))
		for wi, w := range b.words {
			diff := w &^ ob.words[wi]
			if diff == 0 {
				continue
			}
			ob.words[wi] |= diff
			ob.card += bits.OnesCount64(diff)
			for diff != 0 {
				t := bits.TrailingZeros64(diff)
				out = append(out, uint32(wi*wordBits+t))
				diff &= diff - 1
			}
		}
		return out
	}
	b.Iterate(func(x uint32) bool {
		if other.Add(x) {
			out = append(out, x)
		}
		return true
	})
	return out
}

// UnionWith ors o into b.
func (b *Bitset) UnionWith(o *Bitset) {
	b.growTo(len(o.words))
	b.card = 0
	for wi := range b.words {
		if wi < len(o.words) {
			b.words[wi] |= o.words[wi]
		}
		b.card += bits.OnesCount64(b.words[wi])
	}
}

// IntersectWith ands o into b.
func (b *Bitset) IntersectWith(o *Bitset) {
	b.card = 0
	for wi := range b.words {
		if wi < len(o.words) {
			b.words[wi] &= o.words[wi]
		} else {
			b.words[wi] = 0
		}
		b.card += bits.OnesCount64(b.words[wi])
	}
}

// Intersects reports whether b and o share any element.
func (b *Bitset) Intersects(o *Bitset) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...), card: b.card}
}

// Clear removes all elements, retaining capacity.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.card = 0
}

// ToSlice returns the elements in ascending order.
func (b *Bitset) ToSlice() []uint32 {
	out := make([]uint32, 0, b.card)
	b.Iterate(func(x uint32) bool { out = append(out, x); return true })
	return out
}

// Bytes estimates memory usage.
func (b *Bitset) Bytes() int { return len(b.words) * 8 }

var _ Set = (*Bitset)(nil)
