package core

import (
	"encoding/binary"
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

// classify computes the final class id of every occurrence across all
// segments. The same class id means "mergeable candidates" per the
// equivalence relation. Ids are interned in first-appearance order
// (segment by segment, vertex by vertex).
func classify(sc *sumScratch, in *sumInput, opts SumOptions) *classifier {
	mem := &sc.call
	n := in.g.numNodes()
	c := &classifier{opts: opts, g: in.g, colors: mem.i32.take(n)}
	// Round 0: kind + K-projected properties. A vertex that several segments
	// of one graph share is colored once; colorOf remembers its id + 1.
	ids := make(map[string]int32)
	var colorOf []int32
	var graphOf *prov.Graph
	sig := sc.text
	for i, s := range in.segs {
		if s.P != graphOf {
			graphOf, colorOf = s.P, mem.i32.take(in.ids)
		}
		occ := in.base[i]
		for _, r := range s.VertexRuns {
			for v := r.First; v <= r.Last; v++ {
				if colorOf[v] == 0 {
					sig = appendBaseColor(sig[:0], s.P, v, opts.K)
					id, ok := ids[string(sig)]
					if !ok {
						id = int32(len(ids))
						c.baseName = append(c.baseName, string(sig))
						ids[c.baseName[id]] = id
						c.base = append(c.base, id)
					}
					colorOf[v] = id + 1
				}
				c.colors[occ] = colorOf[v] - 1
				occ++
			}
		}
	}
	// Refinement rounds 1..k: a vertex's next color is its current color
	// plus the sorted multiset of (direction, relationship, neighbor color)
	// over its segment edges, spelled into one reused byte buffer.
	parts := sc.parts
	for round := 0; round < opts.TypeRadius; round++ {
		cur, next := c.colors, mem.i32.take(n)
		var nextBase []int32
		clear(ids)
		for j := range cur {
			parts = parts[:0]
			for _, a := range c.g.out.of(int32(j)) {
				parts = append(parts, uint64(arcRel(a))<<32|uint64(cur[arcFar(a)]))
			}
			for _, a := range c.g.in.of(int32(j)) {
				parts = append(parts, 1<<63|uint64(arcRel(a))<<32|uint64(cur[arcFar(a)]))
			}
			slices.Sort(parts)
			sig = binary.LittleEndian.AppendUint64(sig[:0], uint64(cur[j]))
			for _, p := range parts {
				sig = binary.LittleEndian.AppendUint64(sig, p)
			}
			id, ok := ids[string(sig)]
			if !ok {
				id = int32(len(ids))
				ids[string(sig)] = id
				nextBase = append(nextBase, c.base[cur[j]])
			}
			next[j] = id
		}
		c.colors, c.base = next, nextBase
	}
	sc.text, sc.parts = sig, parts
	if opts.ExactIso && opts.TypeRadius > 0 {
		c.splitByExactIso()
	}
	return c
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
