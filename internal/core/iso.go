package core

import (
	"sort"
)

// Exact rooted isomorphism of k-hop neighborhoods, used to sharpen the
// color-refinement approximation of provenance types Rk (paper Sec. IV.A.1
// condition (c): the k-hop subgraphs must be isomorphic w.r.t. kind and
// aggregated properties).

// neighborhood is a small rooted labeled digraph extracted from a segment:
// node 0 is the root; node labels are refinement colors of the PREVIOUS
// round's assignment (which already fold in kind and K-properties); edges
// carry the PROV relationship.
type neighborhood struct {
	labels []int
	out    [][]halfArc // per node: (to, rel)
	in     [][]halfArc
}

type halfArc struct {
	to  int
	rel uint8
}

// extractNeighborhood builds the k-hop ball around occurrence root,
// following its segment's edges in both directions; it returns nil when the
// ball exceeds maxNodes (caller falls back to refinement colors).
func (c *classifier) extractNeighborhood(root int32, maxNodes int) *neighborhood {
	idx := map[int32]int{root: 0}
	order := []int32{root}
	frontier := []int32{root}
	for hop := 0; hop < c.opts.TypeRadius; hop++ {
		var next []int32
		for _, v := range frontier {
			for _, arcs := range [2][]uint64{c.g.out.of(v), c.g.in.of(v)} {
				for _, a := range arcs {
					if _, ok := idx[arcFar(a)]; !ok {
						idx[arcFar(a)] = len(order)
						order = append(order, arcFar(a))
						next = append(next, arcFar(a))
					}
				}
			}
		}
		if len(order) > maxNodes {
			return nil
		}
		frontier = next
	}
	h := &neighborhood{
		labels: make([]int, len(order)),
		out:    make([][]halfArc, len(order)),
		in:     make([][]halfArc, len(order)),
	}
	for i, v := range order {
		h.labels[i] = int(c.colors[v])
	}
	for i, v := range order {
		for _, a := range c.g.out.of(v) {
			if j, ok := idx[arcFar(a)]; ok {
				h.out[i] = append(h.out[i], halfArc{to: j, rel: arcRel(a)})
				h.in[j] = append(h.in[j], halfArc{to: i, rel: arcRel(a)})
			}
		}
	}
	for i := range h.out {
		sortArcs(h.out[i])
		sortArcs(h.in[i])
	}
	return h
}

func sortArcs(a []halfArc) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].rel != a[j].rel {
			return a[i].rel < a[j].rel
		}
		return a[i].to < a[j].to
	})
}

// isomorphic reports whether two rooted neighborhoods admit a rooted
// label- and edge-preserving bijection (both directions checked). Nil
// neighborhoods (over-budget extractions) are never considered isomorphic
// to anything, which conservatively keeps their refinement color.
func isomorphic(a, b *neighborhood) bool {
	if a == nil || b == nil {
		return false
	}
	if len(a.labels) != len(b.labels) {
		return false
	}
	if a.labels[0] != b.labels[0] {
		return false
	}
	// Quick invariant: multiset of (label, outdeg, indeg).
	if !sameDegreeProfile(a, b) {
		return false
	}
	n := len(a.labels)
	mapping := make([]int, n) // a-node -> b-node
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}
	mapping[0] = 0
	used[0] = true
	return matchNode(a, b, 1, mapping, used)
}

func sameDegreeProfile(a, b *neighborhood) bool {
	sig := func(h *neighborhood) []int64 {
		out := make([]int64, len(h.labels))
		for i := range h.labels {
			out[i] = int64(h.labels[i])<<32 | int64(len(h.out[i]))<<16 | int64(len(h.in[i]))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	sa, sb := sig(a), sig(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// matchNode extends a partial mapping over a's nodes in index order
// (index order is BFS from the root, so each new node is adjacent to an
// already-mapped one, keeping the search tight).
func matchNode(a, b *neighborhood, i int, mapping []int, used []bool) bool {
	if i == len(a.labels) {
		return true
	}
	for cand := 0; cand < len(b.labels); cand++ {
		if used[cand] || b.labels[cand] != a.labels[i] {
			continue
		}
		if len(b.out[cand]) != len(a.out[i]) || len(b.in[cand]) != len(a.in[i]) {
			continue
		}
		mapping[i] = cand
		used[cand] = true
		if consistent(a, b, i, mapping) && matchNode(a, b, i+1, mapping, used) {
			return true
		}
		mapping[i] = -1
		used[cand] = false
	}
	return false
}

// consistent checks all arcs between node i and already-mapped nodes.
func consistent(a, b *neighborhood, i int, mapping []int) bool {
	for _, arc := range a.out[i] {
		m := mapping[arc.to]
		if m < 0 {
			continue
		}
		if !hasArc(b.out[mapping[i]], m, arc.rel) {
			return false
		}
	}
	for _, arc := range a.in[i] {
		m := mapping[arc.to]
		if m < 0 {
			continue
		}
		if !hasArc(b.in[mapping[i]], m, arc.rel) {
			return false
		}
	}
	// Reverse direction: arcs in b between mapping[i] and mapped nodes must
	// exist in a (bijective edge preservation).
	inv := make(map[int]int, i+1)
	for ai, bi := range mapping[:i+1] {
		if bi >= 0 {
			inv[bi] = ai
		}
	}
	for _, arc := range b.out[mapping[i]] {
		if ai, ok := inv[arc.to]; ok {
			if !hasArc(a.out[i], ai, arc.rel) {
				return false
			}
		}
	}
	for _, arc := range b.in[mapping[i]] {
		if ai, ok := inv[arc.to]; ok {
			if !hasArc(a.in[i], ai, arc.rel) {
				return false
			}
		}
	}
	return true
}

func hasArc(arcs []halfArc, to int, rel uint8) bool {
	for _, a := range arcs {
		if a.to == to && a.rel == rel {
			return true
		}
	}
	return false
}
