package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/prov"
)

// Vertex equivalence for PgSum (paper Sec. IV.A.1): two segment vertices
// are equivalent under (K, Rk) when (a) their PROV kinds match, (b) their
// K-projected property values match, and (c) their k-hop neighborhoods
// within their segments are isomorphic w.r.t. kind and K-projected
// properties.
//
// Condition (c) is computed by k rounds of color refinement (a vertex's
// round-i color folds in the multiset of (relationship, direction,
// neighbor color) over its segment edges), optionally sharpened by an
// exact rooted-isomorphism check within refinement groups.

// Aggregation is the paper's K = (K_E, K_A, K_U): the property types kept
// per vertex kind; all other properties are ignored when comparing
// vertices.
type Aggregation struct {
	Entity   []string
	Activity []string
	Agent    []string
}

// keysFor returns the kept property keys for a vertex kind.
func (k Aggregation) keysFor(kind prov.Kind) []string {
	switch kind {
	case prov.KindEntity:
		return k.Entity
	case prov.KindActivity:
		return k.Activity
	case prov.KindAgent:
		return k.Agent
	}
	return nil
}

// SumOptions configure PgSum.
type SumOptions struct {
	// K is the property aggregation.
	K Aggregation
	// TypeRadius is Rk's k: the neighborhood radius that defines a
	// vertex's provenance type (0 = kind+properties only).
	TypeRadius int
	// ExactIso verifies refinement groups with an exact rooted-isomorphism
	// check on the k-hop neighborhoods (refinement alone can conflate
	// rare non-isomorphic neighborhoods).
	ExactIso bool
	// MaxIsoNodes caps the neighborhood size for the exact check
	// (default 64; larger neighborhoods fall back to refinement colors).
	MaxIsoNodes int
	// MaxRounds bounds the merge loop (0 = until fixpoint).
	MaxRounds int
}

// appendBaseColor appends the kind + aggregated-property signature of a
// vertex.
func appendBaseColor(b []byte, p *prov.Graph, v graph.VertexID, k Aggregation) []byte {
	kind := p.KindOf(v)
	b = append(b, kind.String()...)
	for _, key := range k.keysFor(kind) {
		b = append(append(append(b, '|'), key...), '=')
		b = append(b, p.PG().VertexProp(v, key).AsString()...)
	}
	return b
}

// classifier assigns provenance-type class ids to segment vertex
// occurrences.
type classifier struct {
	opts SumOptions
	g    *flatGraph // g0 before it is labeled: arcs are (rel, far occurrence)

	// colors[i] is the class of occurrence i, refined in rounds; base the
	// base color each class descends from, baseName that color's signature
	// (the display name of its classes).
	colors, base []int32
	baseName     []string
}

// interner numbers byte strings in first-appearance order. They lie back to
// back in buf, string id at buf[off[id]:off[id+1]], and the string appended
// past the last one is the one add looks up. table is an open-addressed hash
// table of id + 1 (0 is a free slot) over a power-of-two number of slots.
type interner struct {
	buf        []byte
	off, table []int32
	n          int32
}

// internSeed hashes signatures; ids follow first appearance, not the hash,
// so a call's classes do not depend on it.
var internSeed = maphash.MakeSeed()

// newInterner returns an interner for up to n strings, its tables cut from
// mem and its strings appended to buf.
func newInterner(mem *arena, buf []byte, n int) *interner {
	return &interner{buf: buf[:0], off: mem.i32.take(n + 1), table: mem.i32.take(1 << bits.Len(uint(2*n)))}
}

// add interns the string appended to buf since the last add and returns its
// id; a string seen before is taken off buf again.
func (t *interner) add() int32 {
	start := t.off[t.n]
	s, mask := t.buf[start:], uint64(len(t.table)-1)
	for i := maphash.Bytes(internSeed, s) & mask; ; i = (i + 1) & mask {
		e := t.table[i]
		if e == 0 {
			t.table[i] = t.n + 1
			t.n++
			t.off[t.n] = int32(len(t.buf))
			return t.n - 1
		}
		if bytes.Equal(t.buf[t.off[e-1]:t.off[e]], s) {
			t.buf = t.buf[:start]
			return e - 1
		}
	}
}

// reset forgets every string.
func (t *interner) reset() {
	t.buf, t.n = t.buf[:0], 0
	clear(t.table)
}

// classify computes the final class id of every occurrence across all
// segments. The same class id means "mergeable candidates" per the
// equivalence relation. Ids are interned in first-appearance order
// (segment by segment, vertex by vertex). The refinement rounds stop with
// the context's error once the request is done, polled every pollPairs
// occurrences.
func classify(sc *sumScratch, in *sumInput, opts SumOptions) (*classifier, error) {
	mem := &sc.call
	n := in.g.numNodes()
	c := &classifier{opts: opts, g: in.g, colors: mem.i32.take(n), base: mem.i32.take(n)[:0]}
	// Round 0: kind + K-projected properties. A vertex that several segments
	// of one graph share is colored once; colorOf remembers its id + 1.
	ids := newInterner(mem, sc.text, n)
	var colorOf []int32
	var graphOf *prov.Graph
	for i, s := range in.segs {
		if s.P != graphOf {
			graphOf, colorOf = s.P, mem.i32.take(in.ids)
		}
		occ := in.base[i]
		for _, r := range s.VertexRuns {
			for v := r.First; v <= r.Last; v++ {
				if colorOf[v] == 0 {
					ids.buf = appendBaseColor(ids.buf, s.P, v, opts.K)
					id := ids.add()
					if int(id) == len(c.base) {
						c.base = append(c.base, id)
					}
					colorOf[v] = id + 1
				}
				c.colors[occ] = colorOf[v] - 1
				occ++
			}
		}
	}
	// The base names are cut from one string.
	names := string(ids.buf)
	c.baseName = make([]string, ids.n)
	for id := range c.baseName {
		c.baseName[id] = names[ids.off[id]:ids.off[id+1]]
	}
	// Refinement rounds 1..k: a vertex's next color is its current color
	// plus the sorted multiset of (direction, relationship, neighbor color)
	// over its segment edges, spelled into the interner's buffer.
	parts := sc.parts
	for round := 0; round < opts.TypeRadius; round++ {
		cur, next, nextBase := c.colors, mem.i32.take(n), mem.i32.take(n)[:0]
		ids.reset()
		for j := range cur {
			if j&(pollPairs-1) == 0 {
				if err := sc.work.Err(); err != nil {
					return nil, err
				}
			}
			parts = parts[:0]
			for _, a := range c.g.out.of(int32(j)) {
				parts = append(parts, uint64(arcRel(a))<<32|uint64(cur[arcFar(a)]))
			}
			for _, a := range c.g.in.of(int32(j)) {
				parts = append(parts, 1<<63|uint64(arcRel(a))<<32|uint64(cur[arcFar(a)]))
			}
			slices.Sort(parts)
			ids.buf = binary.LittleEndian.AppendUint64(ids.buf, uint64(cur[j]))
			for _, p := range parts {
				ids.buf = binary.LittleEndian.AppendUint64(ids.buf, p)
			}
			id := ids.add()
			if int(id) == len(nextBase) {
				nextBase = append(nextBase, c.base[cur[j]])
			}
			next[j] = id
		}
		c.colors, c.base = next, nextBase
	}
	sc.text, sc.parts = ids.buf, parts
	if opts.ExactIso && opts.TypeRadius > 0 {
		c.splitByExactIso()
	}
	return c, nil
}

// splitByExactIso refines color groups with exact rooted isomorphism of
// k-hop neighborhoods: occurrences that share a refinement color but have
// non-isomorphic neighborhoods receive fresh class ids.
func (c *classifier) splitByExactIso() {
	groups := make(map[int32][]int32) // color -> occurrences
	for i, cl := range c.colors {
		groups[cl] = append(groups[cl], int32(i))
	}
	maxNodes := c.opts.MaxIsoNodes
	if maxNodes <= 0 {
		maxNodes = 64
	}
	for cl := int32(0); int(cl) < len(groups); cl++ {
		members := groups[cl]
		if len(members) < 2 {
			continue
		}
		// Representative of each discovered sub-class, with its
		// neighborhood.
		type subclass struct {
			hood *neighborhood
			id   int32
		}
		var subs []subclass
		for _, m := range members {
			h := c.extractNeighborhood(m, maxNodes)
			if h == nil {
				// Over-budget neighborhood: keep the refinement color.
				continue
			}
			placed := false
			for _, sc := range subs {
				if isomorphic(h, sc.hood) {
					c.colors[m] = sc.id
					placed = true
					break
				}
			}
			if !placed {
				id := cl
				if len(subs) > 0 {
					id = int32(len(c.base))
					c.base = append(c.base, c.base[cl])
				}
				subs = append(subs, subclass{hood: h, id: id})
				c.colors[m] = id
			}
		}
	}
}
