package bitmap

import "math/bits"

// Frontier kernels. A frontier-at-a-time sweep (the Cypher planner's, see
// cypher/plan.go) unions whole CSR neighbor rows into a bitset and subtracts
// the visited set word-parallel. These kernels are the word-level primitives
// that make each of those steps one pass over packed uint64s instead of a
// per-element loop through interface dispatch.

// Key is any uint32-shaped identifier type. The row kernels are generic
// over it so CSR rows typed as []graph.VertexID land in a bitset directly,
// with no copy and no per-element conversion at the call site.
type Key interface{ ~uint32 }

// OrInto sets the bit of every element of row in b — the scatter step of a
// top-down frontier expansion (one CSR neighbor row ORed into the next
// frontier). The cardinality stays exact: only newly set bits count.
func OrInto[K Key](b *Bitset, row []K) {
	words := b.words
	for _, x := range row {
		w := int(uint32(x) >> 6)
		if w >= len(words) {
			b.grow(w)
			words = b.words
		}
		m := uint64(1) << (uint32(x) & (wordBits - 1))
		if words[w]&m == 0 {
			words[w] |= m
			b.card++
		}
	}
}

// AndNotWith removes every element of o from b (b &^= o), word-parallel —
// the visited-set subtraction that dedups a freshly scattered frontier in
// one pass.
func (b *Bitset) AndNotWith(o *Bitset) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	card := 0
	for i := 0; i < n; i++ {
		b.words[i] &^= o.words[i]
		card += bits.OnesCount64(b.words[i])
	}
	for i := n; i < len(b.words); i++ {
		card += bits.OnesCount64(b.words[i])
	}
	b.card = card
}

// Capacity returns the number of bits b currently addresses.
func (b *Bitset) Capacity() int { return len(b.words) * wordBits }

// IterateFrom visits the elements >= from in ascending order until fn
// returns false. Unlike resuming via Iterate — which restarts at bit 0 and
// re-visits (and re-allocates a capture to skip past) everything already
// seen — IterateFrom masks off the low bits of the first word and walks
// only the tail, so a resumed scan costs only the remaining words.
func (b *Bitset) IterateFrom(from uint32, fn func(uint32) bool) {
	wi := int(from / wordBits)
	if wi >= len(b.words) {
		return
	}
	// Mask off bits below `from` in the first word; whole words after it.
	w := b.words[wi] &^ (1<<(from%wordBits) - 1)
	for {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(uint32(wi*wordBits + t)) {
				return
			}
			w &= w - 1
		}
		wi++
		if wi >= len(b.words) {
			return
		}
		w = b.words[wi]
	}
}

// Density returns the fill ratio of b over its current capacity. The
// traversal engine uses it to pick frontier representation and direction:
// sparse frontiers iterate as id lists (array-container regime), dense
// frontiers scan words and may flip to bottom-up expansion.
func (b *Bitset) Density() float64 {
	if len(b.words) == 0 {
		return 0
	}
	return float64(b.card) / float64(len(b.words)*wordBits)
}

// SparseCutoff is the density below which a set is cheaper to carry as a
// sorted id list (or Roaring array containers) than to re-scan as words:
// under one set bit per word, a word scan touches 64 bits per element.
const SparseCutoff = 1.0 / wordBits

// ToRoaring converts to a compressed bitmap. Worth it only below
// SparseCutoff-ish densities; dense chunks convert straight to bitmap
// containers without per-element re-search.
func (b *Bitset) ToRoaring() *Roaring {
	r := NewRoaring()
	// One Roaring container spans 1024 words. Build each chunk wholesale.
	const chunkWords = 1 << 16 / wordBits
	for base := 0; base < len(b.words); base += chunkWords {
		end := base + chunkWords
		if end > len(b.words) {
			end = len(b.words)
		}
		card := 0
		for _, w := range b.words[base:end] {
			card += bits.OnesCount64(w)
		}
		if card == 0 {
			continue
		}
		key := uint16(base / chunkWords)
		if card > arrayMaxSize {
			bc := &bitmapContainer{card: card}
			copy(bc.words[:], b.words[base:end])
			r.keys = append(r.keys, key)
			r.containers = append(r.containers, bc)
		} else {
			ac := &arrayContainer{vals: make([]uint16, 0, card)}
			for wi, w := range b.words[base:end] {
				for w != 0 {
					t := bits.TrailingZeros64(w)
					ac.vals = append(ac.vals, uint16(wi*wordBits+t))
					w &= w - 1
				}
			}
			r.keys = append(r.keys, key)
			r.containers = append(r.containers, ac)
		}
		r.card += card
	}
	return r
}

// ToBitset converts to a dense bitset with capacity hint n (in bits).
func (r *Roaring) ToBitset(n int) *Bitset {
	b := NewBitset(n)
	r.Iterate(func(x uint32) bool {
		b.Add(x)
		return true
	})
	return b
}
