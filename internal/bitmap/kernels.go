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
