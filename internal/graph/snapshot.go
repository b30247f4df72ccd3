package graph

import "sort"

// Epoch snapshots. The graph is append-only (provenance is immutable
// history), so a consistent read view is fully described by a watermark
// (numVertices, numEdges): everything below the watermark never changes.
// Freeze materializes such a view as a frozen *Graph that
//
//   - shares the immutable prefix of the live graph's columnar arrays
//     (vertex/edge labels, endpoints, properties) via capped slice headers,
//     so freezing copies O(V) headers, not the data itself, and
//   - replaces the live per-vertex adjacency lists with a CSR
//     (compressed-sparse-row) index of contiguous neighbor/edge-id rows:
//     one block per direction over all edges, plus one per edge label.
//
// A frozen graph answers every read the live graph does (the whole Graph
// API works on it), but neighbor scans that previously filtered a mixed
// edge list per call become contiguous slice reads. Mutations panic.
//
// Because the graph is append-only, the next epoch's index is the previous
// one plus the delta: ExtendFrozen reuses the previous snapshot's rel
// blocks copy-on-write and stores the delta's edges as sparse extension
// rows, so the commit path pays O(delta + touched rows) instead of
// O(V + E) per freeze (see ExtendFrozen for the layout).
//
// Concurrency: a frozen graph shares no mutable state with its source.
// Writers may keep appending to the live graph while any number of readers
// traverse the snapshot; appends only ever touch indices at or beyond the
// watermark, which no snapshot reader dereferences.

// csrExt holds the rows appended to a rel block since its contiguous base
// was last fully built: a sparse CSR over only the vertices the delta
// touched. vids is sorted ascending; row i of the touched vertex vids[i] is
// nbr[off[i]:off[i+1]] with eid holding the matching edge ids, in ascending
// edge-id order. Lookups binary-search vids, so untouched-label reads pay
// nothing and touched-label reads pay O(log touched).
type csrExt struct {
	vids []VertexID
	off  []uint32
	nbr  []VertexID
	eid  []EdgeID
}

// row returns the extension row of v (nil when the delta never touched v).
func (x *csrExt) row(v VertexID) ([]VertexID, []EdgeID) {
	if x == nil {
		return nil, nil
	}
	i := sort.Search(len(x.vids), func(i int) bool { return x.vids[i] >= v })
	if i == len(x.vids) || x.vids[i] != v {
		return nil, nil
	}
	a, b := x.off[i], x.off[i+1]
	return x.nbr[a:b:b], x.eid[a:b:b]
}

// edges returns the number of edges held in the extension.
func (x *csrExt) edges() int {
	if x == nil {
		return 0
	}
	return len(x.nbr)
}

// csrRel is the CSR block of one direction over all edges or over one
// label's edges. A block is either
//
//   - contiguous (base == nil, ext == nil): row v is nbr[off[v]:off[v+1]]
//     with eid holding the matching edge ids, as built by a full rebuild or
//     a flatten, or
//   - extended (ext != nil): the rows of an older epoch's contiguous block
//     (base; nil when the label first appeared after that epoch) plus the
//     sparse extension rows accumulated by ExtendFrozen since. A row then
//     spans up to two epochs: the base segment followed by the extension
//     segment, both in ascending edge-id order (every delta edge id is
//     larger than every base edge id, so the concatenation is exactly the
//     row a full rebuild would produce).
//
// base is always contiguous: extending an already-extended block merges the
// old extension with the new delta instead of chaining, so reads never walk
// more than two segments no matter how many epochs a block has survived.
type csrRel struct {
	off []uint32
	nbr []VertexID
	eid []EdgeID

	base *csrRel
	ext  *csrExt
}

// contiguousRow returns v's slice of the block's own contiguous arrays
// (capped: appending to a returned slice never clobbers the next row).
func (r *csrRel) contiguousRow(v VertexID) ([]VertexID, []EdgeID) {
	if r == nil || int(v)+1 >= len(r.off) {
		return nil, nil
	}
	a, b := r.off[v], r.off[v+1]
	return r.nbr[a:b:b], r.eid[a:b:b]
}

// row returns the neighbor and edge-id rows of v. On an extended block the
// row may span two epochs; when both segments are non-empty they are
// materialized into fresh slices (callers treat rows as read-only either
// way).
func (r *csrRel) row(v VertexID) ([]VertexID, []EdgeID) {
	if r == nil {
		return nil, nil
	}
	if r.ext == nil {
		return r.contiguousRow(v)
	}
	bn, be := r.base.contiguousRow(v)
	xn, xe := r.ext.row(v)
	switch {
	case len(xn) == 0:
		return bn, be
	case len(bn) == 0:
		return xn, xe
	}
	nbr := make([]VertexID, 0, len(bn)+len(xn))
	eid := make([]EdgeID, 0, len(be)+len(xe))
	nbr = append(append(nbr, bn...), xn...)
	eid = append(append(eid, be...), xe...)
	return nbr, eid
}

// appendNbrs appends v's neighbor row to buf without materializing
// multi-epoch rows.
func (r *csrRel) appendNbrs(v VertexID, buf []VertexID) []VertexID {
	if r == nil {
		return buf
	}
	if r.ext == nil {
		n, _ := r.contiguousRow(v)
		return append(buf, n...)
	}
	bn, _ := r.base.contiguousRow(v)
	xn, _ := r.ext.row(v)
	return append(append(buf, bn...), xn...)
}

// edges returns the total edge count of the block (base + extension).
func (r *csrRel) edges() int {
	if r == nil {
		return 0
	}
	if r.ext == nil {
		if len(r.off) == 0 {
			return 0
		}
		return int(r.off[len(r.off)-1])
	}
	return r.base.edges() + r.ext.edges()
}

// csrIndex is the frozen adjacency index: one all-edge block per direction
// backing the per-vertex Out/In views, plus per-label blocks for the hot
// label-filtered scans. Every block is a csrRel, built by the same counting
// sort and extended by the same extendRel. The per-label tables are dense
// slices indexed by Label (labels are small interned ints) so a row lookup
// is two array indexings — no hashing on the query path.
type csrIndex struct {
	outAll, inAll *csrRel
	outRel, inRel []*csrRel // indexed by Label; nil = no edges of that label
}

// rel returns the per-label block for one direction (nil when no edge
// carries the label).
func (cs *csrIndex) rel(label Label, out bool) *csrRel {
	t := cs.outRel
	if !out {
		t = cs.inRel
	}
	if int(label) >= len(t) {
		return nil
	}
	return t[label]
}

// Frozen reports whether the graph is an immutable snapshot.
func (g *Graph) Frozen() bool { return g.frozen }

// IncrementalSnapshot reports whether this frozen graph's index was built
// by extending an earlier epoch (ExtendFrozen) rather than a full rebuild.
func (g *Graph) IncrementalSnapshot() bool { return g.incrSnap }

// snapshotShell allocates the frozen graph sharing the live graph's
// columnar prefix via capped slice headers and records the watermark on the
// live graph so property writes below it are rejected (SetVertexProp).
func (g *Graph) snapshotShell(nv, ne int) *Graph {
	fz := &Graph{
		dict:    g.dict.clone(),
		vLabel:  g.vLabel[:nv:nv],
		vProps:  g.vProps[:nv:nv],
		eLabel:  g.eLabel[:ne:ne],
		eProps:  g.eProps[:ne:ne],
		eSrc:    g.eSrc[:ne:ne],
		eDst:    g.eDst[:ne:ne],
		byLabel: make(map[Label][]VertexID, len(g.byLabel)),
		frozen:  true,
	}
	// The label index map must be copied (appends replace its slice-header
	// values in place), but the id lists themselves are append-only.
	for l, vs := range g.byLabel {
		fz.byLabel[l] = vs[:len(vs):len(vs)]
	}
	g.snapV, g.snapE = max(g.snapV, nv), max(g.snapE, ne)
	return fz
}

// Freeze returns an immutable snapshot of the graph with a CSR adjacency
// index, fully rebuilt from the live adjacency. Freezing a frozen graph
// returns it unchanged.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	nv, ne := len(g.vLabel), len(g.eLabel)
	fz := g.snapshotShell(nv, ne)
	fz.buildCSR(g, nv, ne)
	return fz
}

// Incremental extension tuning. A touched rel block's extension is merged
// across epochs rather than chained (reads stay two-segment), and is
// flattened back into a contiguous block once it outgrows its base: past
// that point the merge copies more than a rebuild would, and row reads of
// touched vertices keep paying the binary search + concatenation. The
// extEdges > base/4 ratio bounds both at a fraction of a full rebuild while
// keeping flattens rare; the minimum stops tiny, hot blocks from
// re-flattening on every commit.
const extFlattenMin = 64

// ExtendFrozen returns an immutable snapshot like Freeze, but builds the
// adjacency index incrementally from prev — an earlier snapshot of this
// same graph (normally the previous epoch). Blocks no delta edge touches
// are shared with prev outright; touched blocks (the all-edge pair on every
// commit that adds an edge, and each label the delta carries) keep prev's
// contiguous rows copy-on-write and gain sparse extension rows over just
// the delta, flattened back to contiguous form only when the accumulated
// extension outgrows its base. The commit path therefore pays
// O(delta + touched extensions), not the full O(V + E) counting sort.
//
// The bool result reports whether the incremental path was taken. It falls
// back to a full Freeze (returning false) when prev is nil or not a
// snapshot of this graph's history, or when the delta is so large that a
// rebuild is cheaper. Callers must not extend concurrently with other
// freezes of the same graph (the serving layer serializes commits behind
// its write mutex).
func (g *Graph) ExtendFrozen(prev *Graph) (*Graph, bool) {
	if g.frozen {
		return g, false
	}
	nv, ne := len(g.vLabel), len(g.eLabel)
	if !g.canExtend(prev, nv, ne) {
		return g.Freeze(), false
	}
	pe := prev.NumEdges()
	fz := g.snapshotShell(nv, ne)
	fz.incrSnap = true

	// Group the delta per block — the all-edge pair and one pair per label
	// — then share the blocks with no delta and extend the rest.
	nl := g.dict.Len()
	pcs := prev.csr
	cs := &csrIndex{
		outAll: pcs.outAll,
		inAll:  pcs.inAll,
		outRel: make([]*csrRel, nl),
		inRel:  make([]*csrRel, nl),
	}
	copy(cs.outRel, pcs.outRel)
	copy(cs.inRel, pcs.inRel)
	var outAll, inAll extBuilder
	outDelta := make(map[Label]*extBuilder)
	inDelta := make(map[Label]*extBuilder)
	for e := pe; e < ne; e++ {
		l, s, d := g.eLabel[e], g.eSrc[e], g.eDst[e]
		outAll.add(s, d, EdgeID(e))
		inAll.add(d, s, EdgeID(e))
		ob := outDelta[l]
		if ob == nil {
			ob = &extBuilder{}
			outDelta[l] = ob
			inDelta[l] = &extBuilder{}
		}
		ob.add(s, d, EdgeID(e))
		inDelta[l].add(d, s, EdgeID(e))
	}
	if ne > pe {
		cs.outAll = extendRel(pcs.outAll, outAll.build(), nv)
		cs.inAll = extendRel(pcs.inAll, inAll.build(), nv)
	}
	for l, b := range outDelta {
		cs.outRel[l] = extendRel(pcs.rel(l, true), b.build(), nv)
		cs.inRel[l] = extendRel(pcs.rel(l, false), inDelta[l].build(), nv)
	}
	fz.csr = cs
	return fz, true
}

// canExtend validates that prev is a usable base for an incremental
// extension of this graph's current state: a frozen snapshot whose
// watermark is a prefix of ours, whose label dictionary is a prefix of
// ours, and whose boundary rows match ours (a cheap spot check — the full
// prefix property is the caller's contract, prev having been frozen from
// this same graph). A delta larger than half the graph falls back to the
// full rebuild: at that size the counting sort is no slower and resets the
// extension state.
func (g *Graph) canExtend(prev *Graph, nv, ne int) bool {
	if prev == nil || !prev.frozen || prev.csr == nil {
		return false
	}
	pv, pe := prev.NumVertices(), prev.NumEdges()
	if pv > nv || pe > ne || pe == 0 {
		return false
	}
	if (ne-pe)*2 > ne {
		return false
	}
	if prev.dict.Len() > g.dict.Len() {
		return false
	}
	for l := 0; l < prev.dict.Len(); l++ {
		if prev.dict.Name(Label(l)) != g.dict.Name(Label(l)) {
			return false
		}
	}
	for _, i := range []int{0, pv - 1} {
		if prev.vLabel[i] != g.vLabel[i] {
			return false
		}
	}
	for _, i := range []int{0, pe - 1} {
		if prev.eSrc[i] != g.eSrc[i] || prev.eDst[i] != g.eDst[i] || prev.eLabel[i] != g.eLabel[i] {
			return false
		}
	}
	return true
}

// extBuilder accumulates one block's delta rows in edge order, then sorts
// them by vertex into a csrExt.
type extBuilder struct {
	vids []VertexID
	nbr  []VertexID
	eid  []EdgeID
}

func (b *extBuilder) add(v, nbr VertexID, e EdgeID) {
	b.vids = append(b.vids, v)
	b.nbr = append(b.nbr, nbr)
	b.eid = append(b.eid, e)
}

// build groups the accumulated entries into sparse sorted rows. The sort is
// stable so each row keeps ascending edge-id order.
func (b *extBuilder) build() *csrExt {
	idx := make([]int, len(b.vids))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return b.vids[idx[i]] < b.vids[idx[j]] })
	x := &csrExt{
		nbr: make([]VertexID, 0, len(idx)),
		eid: make([]EdgeID, 0, len(idx)),
	}
	for _, i := range idx {
		v := b.vids[i]
		if n := len(x.vids); n == 0 || x.vids[n-1] != v {
			x.vids = append(x.vids, v)
			x.off = append(x.off, uint32(len(x.nbr)))
		}
		x.nbr = append(x.nbr, b.nbr[i])
		x.eid = append(x.eid, b.eid[i])
	}
	x.off = append(x.off, uint32(len(x.nbr)))
	return x
}

// extendRel layers a delta extension onto the previous epoch's block. An
// already-extended block has its old extension merged with the delta (so
// rows never span more than two segments); the result is flattened back to
// a contiguous block when the accumulated extension outgrows its base.
func extendRel(prev *csrRel, delta *csrExt, nv int) *csrRel {
	var base *csrRel
	ext := delta
	if prev != nil {
		base = prev
		if prev.ext != nil {
			base = prev.base
			ext = mergeExt(prev.ext, delta)
		}
	}
	if n := ext.edges(); n > extFlattenMin && n*4 > base.edges() {
		return flattenRel(base, ext, nv)
	}
	return &csrRel{base: base, ext: ext}
}

// mergeExt merges two sparse extensions; every edge id in b is newer than
// every id in a, so concatenating a's row before b's preserves ascending
// edge-id order.
func mergeExt(a, b *csrExt) *csrExt {
	x := &csrExt{
		vids: make([]VertexID, 0, len(a.vids)+len(b.vids)),
		off:  make([]uint32, 0, len(a.vids)+len(b.vids)+1),
		nbr:  make([]VertexID, 0, len(a.nbr)+len(b.nbr)),
		eid:  make([]EdgeID, 0, len(a.eid)+len(b.eid)),
	}
	i, j := 0, 0
	appendRow := func(s *csrExt, k int) {
		x.nbr = append(x.nbr, s.nbr[s.off[k]:s.off[k+1]]...)
		x.eid = append(x.eid, s.eid[s.off[k]:s.off[k+1]]...)
	}
	for i < len(a.vids) || j < len(b.vids) {
		var v VertexID
		switch {
		case j == len(b.vids) || i < len(a.vids) && a.vids[i] < b.vids[j]:
			v = a.vids[i]
		default:
			v = b.vids[j]
		}
		x.vids = append(x.vids, v)
		x.off = append(x.off, uint32(len(x.nbr)))
		if i < len(a.vids) && a.vids[i] == v {
			appendRow(a, i)
			i++
		}
		if j < len(b.vids) && b.vids[j] == v {
			appendRow(b, j)
			j++
		}
	}
	x.off = append(x.off, uint32(len(x.nbr)))
	return x
}

// flattenRel rebuilds one block contiguously from a base block and its
// accumulated extension: O(V + edges of the block), the same shape a full
// rebuild produces.
func flattenRel(base *csrRel, ext *csrExt, nv int) *csrRel {
	total := base.edges() + ext.edges()
	r := &csrRel{
		off: make([]uint32, nv+1),
		nbr: make([]VertexID, 0, total),
		eid: make([]EdgeID, 0, total),
	}
	for v := 0; v < nv; v++ {
		bn, be := base.contiguousRow(VertexID(v))
		xn, xe := ext.row(VertexID(v))
		r.nbr = append(append(r.nbr, bn...), xn...)
		r.eid = append(append(r.eid, be...), xe...)
		r.off[v+1] = uint32(len(r.nbr))
	}
	return r
}

// buildCSR constructs the full CSR index in two counting-sort passes: the
// all-edge blocks first, then every label's blocks. Keeping the passes apart
// keeps the scattered write streams of each loop few. Within a row, edges
// appear in ascending id order, matching the live graph's insertion-ordered
// lists. src is the graph whose adjacency is being indexed (the live graph;
// the receiver is the snapshot under construction).
func (g *Graph) buildCSR(src *Graph, nv, ne int) {
	nl := src.dict.Len()
	oa := &csrRel{off: make([]uint32, nv+1), nbr: make([]VertexID, ne), eid: make([]EdgeID, ne)}
	ia := &csrRel{off: make([]uint32, nv+1), nbr: make([]VertexID, ne), eid: make([]EdgeID, ne)}
	cs := &csrIndex{outAll: oa, inAll: ia, outRel: make([]*csrRel, nl), inRel: make([]*csrRel, nl)}

	// All-edge blocks, backing Out(v)/In(v).
	for e := 0; e < ne; e++ {
		oa.off[src.eSrc[e]+1]++
		ia.off[src.eDst[e]+1]++
	}
	for v := 0; v < nv; v++ {
		oa.off[v+1] += oa.off[v]
		ia.off[v+1] += ia.off[v]
	}
	outCur := append([]uint32(nil), oa.off...)
	inCur := append([]uint32(nil), ia.off...)
	for e := 0; e < ne; e++ {
		s, d := src.eSrc[e], src.eDst[e]
		oa.nbr[outCur[s]], oa.eid[outCur[s]] = d, EdgeID(e)
		outCur[s]++
		ia.nbr[inCur[d]], ia.eid[inCur[d]] = s, EdgeID(e)
		inCur[d]++
	}

	// Per-label CSR: count rows, prefix-sum, fill.
	for e := 0; e < ne; e++ {
		l := src.eLabel[e]
		ob := cs.outRel[l]
		if ob == nil {
			ob = &csrRel{off: make([]uint32, nv+1)}
			cs.outRel[l] = ob
			cs.inRel[l] = &csrRel{off: make([]uint32, nv+1)}
		}
		ob.off[src.eSrc[e]+1]++
		cs.inRel[l].off[src.eDst[e]+1]++
	}
	outPos := make([][]uint32, nl)
	inPos := make([][]uint32, nl)
	for l := 0; l < nl; l++ {
		for _, b := range []*csrRel{cs.outRel[l], cs.inRel[l]} {
			if b == nil {
				continue
			}
			for v := 0; v < nv; v++ {
				b.off[v+1] += b.off[v]
			}
			n := b.off[nv]
			b.nbr = make([]VertexID, n)
			b.eid = make([]EdgeID, n)
		}
		if cs.outRel[l] != nil {
			outPos[l] = append([]uint32(nil), cs.outRel[l].off...)
			inPos[l] = append([]uint32(nil), cs.inRel[l].off...)
		}
	}
	for e := 0; e < ne; e++ {
		l := src.eLabel[e]
		s, d := src.eSrc[e], src.eDst[e]
		ob, ib := cs.outRel[l], cs.inRel[l]
		op, ip := outPos[l], inPos[l]
		ob.nbr[op[s]] = d
		ob.eid[op[s]] = EdgeID(e)
		op[s]++
		ib.nbr[ip[d]] = s
		ib.eid[ip[d]] = EdgeID(e)
		ip[d]++
	}
	g.csr = cs
}

// FrozenNeighbors returns the CSR row for v's neighbors over edges with the
// given label: destination endpoints of v's out-edges when out is true,
// source endpoints of its in-edges otherwise, with eids holding the
// matching edge ids in ascending order. On an incrementally extended
// snapshot a row may span two epochs, in which case it is materialized into
// fresh slices; either way the returned slices must not be modified. ok is
// false when the graph is not frozen (callers fall back to scanning the
// live adjacency lists).
func (g *Graph) FrozenNeighbors(v VertexID, label Label, out bool) (nbrs []VertexID, eids []EdgeID, ok bool) {
	if g.csr == nil {
		return nil, nil, false
	}
	hookRowRead(label, out)
	nbrs, eids = g.csr.rel(label, out).row(v)
	return nbrs, eids, true
}

// NeighborRowSegs returns v's neighbor row for the label/direction as up to
// two zero-copy segments: base (the contiguous epoch's slice) and ext (the
// sparse extension's slice, nil unless the block was incrementally
// extended). Concatenated they equal FrozenNeighbors' nbrs — both segments
// are in ascending edge-id order and every ext id is newer than every base
// id — but nothing is materialized, which is what lets the Cypher planner
// OR a row straight into a bitset without the per-row allocation
// FrozenNeighbors pays on extended blocks. ok is false on live graphs.
// Returned slices must not be modified.
func (g *Graph) NeighborRowSegs(v VertexID, label Label, out bool) (base, ext []VertexID, ok bool) {
	if g.csr == nil {
		return nil, nil, false
	}
	hookRowRead(label, out)
	r := g.csr.rel(label, out)
	if r == nil {
		return nil, nil, true
	}
	if r.ext == nil {
		base, _ = r.contiguousRow(v)
		return base, nil, true
	}
	base, _ = r.base.contiguousRow(v)
	ext, _ = r.ext.row(v)
	return base, ext, true
}

// clone returns an independent copy of the dictionary whose reads are safe
// against concurrent Intern calls on the original.
func (d *Dictionary) clone() *Dictionary {
	nd := &Dictionary{
		names: d.names[:len(d.names):len(d.names)],
		ids:   make(map[string]Label, len(d.ids)),
	}
	for k, v := range d.ids {
		nd.ids[k] = v
	}
	return nd
}
