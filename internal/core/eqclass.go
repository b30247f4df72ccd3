package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

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

// occRef identifies one vertex occurrence: segment index + vertex id.
type occRef struct {
	seg int
	v   graph.VertexID
}

// segIndex provides local adjacency for one segment: vertices are numbered
// by their position in Segment.Vertices and arcs are segment edges only.
type segIndex struct {
	out [][]halfArc
	in  [][]halfArc
}

func indexSegment(s *Segment) *segIndex {
	si := &segIndex{
		out: make([][]halfArc, len(s.Vertices)),
		in:  make([][]halfArc, len(s.Vertices)),
	}
	idx := make(map[graph.VertexID]int, len(s.Vertices))
	for i, v := range s.Vertices {
		idx[v] = i
	}
	g := s.P.PG()
	for _, e := range s.Edges {
		from, to, rel := idx[g.Src(e)], idx[g.Dst(e)], uint8(s.P.RelOf(e))
		si.out[from] = append(si.out[from], halfArc{to: to, rel: rel})
		si.in[to] = append(si.in[to], halfArc{to: from, rel: rel})
	}
	return si
}

// baseColor returns the kind + aggregated-property signature of a vertex.
func baseColor(p *prov.Graph, v graph.VertexID, k Aggregation) string {
	kind := p.KindOf(v)
	var b strings.Builder
	b.WriteString(kind.String())
	for _, key := range k.keysFor(kind) {
		b.WriteByte('|')
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(p.PG().VertexProp(v, key).AsString())
	}
	return b.String()
}

// classifier assigns provenance-type class ids to segment vertex
// occurrences.
type classifier struct {
	opts SumOptions
	segs []*segIndex

	// colors[i][j] is the class of vertex j of segment i, refined in
	// rounds.
	colors [][]int
	// classBase is the display name of each class (the base color of its
	// members).
	classBase []string
}

// classify computes the final class id of every occurrence across all
// segments. The same class id means "mergeable candidates" per the
// equivalence relation. Ids are interned in first-appearance order
// (segment by segment, vertex by vertex).
func classify(segs []*Segment, opts SumOptions) *classifier {
	c := &classifier{
		opts:   opts,
		segs:   make([]*segIndex, len(segs)),
		colors: make([][]int, len(segs)),
	}
	// Round 0: kind + K-projected properties.
	ids := make(map[string]int)
	for i, s := range segs {
		c.segs[i] = indexSegment(s)
		c.colors[i] = make([]int, len(s.Vertices))
		for j, v := range s.Vertices {
			sig := baseColor(s.P, v, opts.K)
			id, ok := ids[sig]
			if !ok {
				id = len(ids)
				ids[sig] = id
				c.classBase = append(c.classBase, sig)
			}
			c.colors[i][j] = id
		}
	}
	// Refinement rounds 1..k: a vertex's next color is its current color
	// plus the sorted multiset of (direction, relationship, neighbor color)
	// over its segment edges, spelled into one reused byte buffer.
	var (
		parts []uint64
		sig   []byte
	)
	for round := 0; round < opts.TypeRadius; round++ {
		next := make([][]int, len(c.segs))
		var nextBase []string
		clear(ids)
		for i, si := range c.segs {
			cur := c.colors[i]
			next[i] = make([]int, len(cur))
			for j := range cur {
				parts = parts[:0]
				for _, a := range si.out[j] {
					parts = append(parts, uint64(a.rel)<<32|uint64(cur[a.to]))
				}
				for _, a := range si.in[j] {
					parts = append(parts, 1<<63|uint64(a.rel)<<32|uint64(cur[a.to]))
				}
				slices.Sort(parts)
				sig = binary.LittleEndian.AppendUint64(sig[:0], uint64(cur[j]))
				for _, p := range parts {
					sig = binary.LittleEndian.AppendUint64(sig, p)
				}
				id, ok := ids[string(sig)]
				if !ok {
					id = len(ids)
					ids[string(sig)] = id
					nextBase = append(nextBase, c.classBase[cur[j]])
				}
				next[i][j] = id
			}
		}
		c.colors = next
		c.classBase = nextBase
	}
	if opts.ExactIso && opts.TypeRadius > 0 {
		c.splitByExactIso()
	}
	return c
}

// className returns a display name for a class: the base color plus a
// provenance-type discriminator index (Fig. 2(e)'s "(t1)" / "(t2)").
func (c *classifier) className(class int) string {
	if class < len(c.classBase) && c.classBase[class] != "" {
		return c.classBase[class]
	}
	return fmt.Sprintf("class%d", class)
}

// splitByExactIso refines color groups with exact rooted isomorphism of
// k-hop neighborhoods: occurrences that share a refinement color but have
// non-isomorphic neighborhoods receive fresh class ids.
func (c *classifier) splitByExactIso() {
	type occ struct{ seg, j int } // vertex j of segment seg
	groups := make(map[int][]occ)
	for i, colors := range c.colors {
		for j, cl := range colors {
			groups[cl] = append(groups[cl], occ{seg: i, j: j})
		}
	}
	maxNodes := c.opts.MaxIsoNodes
	if maxNodes <= 0 {
		maxNodes = 64
	}
	nextID := len(c.classBase)
	classes := make([]int, 0, len(groups))
	for cl := range groups {
		classes = append(classes, cl)
	}
	sort.Ints(classes)
	for _, cl := range classes {
		members := groups[cl]
		if len(members) < 2 {
			continue
		}
		// Representative of each discovered sub-class, with its
		// neighborhood.
		type subclass struct {
			hood *neighborhood
			id   int
		}
		var subs []subclass
		for _, m := range members {
			h := c.extractNeighborhood(m.seg, m.j, maxNodes)
			if h == nil {
				// Over-budget neighborhood: keep the refinement color.
				continue
			}
			placed := false
			for _, sc := range subs {
				if isomorphic(h, sc.hood) {
					c.colors[m.seg][m.j] = sc.id
					placed = true
					break
				}
			}
			if !placed {
				id := cl
				if len(subs) > 0 {
					id = nextID
					nextID++
					for id >= len(c.classBase) {
						c.classBase = append(c.classBase, "")
					}
					c.classBase[id] = c.classBase[cl]
				}
				subs = append(subs, subclass{hood: h, id: id})
				c.colors[m.seg][m.j] = id
			}
		}
	}
}
