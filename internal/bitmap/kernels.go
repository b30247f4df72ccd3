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

// Runs calls fn with the first and last element of every maximal run of
// consecutive elements of b, in ascending order: the read-back of a set as
// runs. It reads the words up to the one that holds the last element, a
// call per run rather than per element.
func (b *Bitset) Runs(fn func(first, last uint32)) {
	var first, last uint32
	open := false
	for wi, n := 0, b.card; n > 0; wi++ {
		w := b.words[wi]
		n -= bits.OnesCount64(w)
		base := uint32(wi) * wordBits
		for w != 0 {
			lo := uint32(bits.TrailingZeros64(w))
			hi := lo + uint32(bits.TrailingZeros64(^(w >> lo))) // one past the run's end
			if open && last+1 == base+lo {
				last = base + hi - 1
			} else {
				if open {
					fn(first, last)
				}
				first, last, open = base+lo, base+hi-1, true
			}
			if hi == wordBits {
				break
			}
			w &= ^uint64(0) << hi
		}
	}
	if open {
		fn(first, last)
	}
}
