package server

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prov"
)

// replyColumn holds the /segment and /adjust reply records of one graph
// lineage, rendered once each, so that a reply naming 63k elements copies
// bytes instead of formatting ~150k integers and 20k names. Three invariants
// make one rendering valid for every reply:
//
//   - Immutable prefix. A frozen vertex's kind and name, and an edge's src,
//     dst and relationship, never change, so a record rendered from one
//     snapshot is the record of every later snapshot of the same graph. The
//     column only grows.
//   - Reader-extended. A reply extends the column up to the largest vertex
//     and edge ids it names, which its own snapshot holds, so never past that
//     snapshot; the commit path never touches it. Records of vertices no
//     reply has named (a write-heavy tail nobody reads) are never rendered.
//   - Lineage-scoped. The column travels on Epoch: a commit or a replicated
//     delta hands it on, while opening a store and a follower's checkpoint
//     re-seed start a new one. A reader pinned to a snapshot from before a
//     re-seed extends the old lineage's column, never the new one's.
type replyColumn struct {
	mu   sync.Mutex                   // serializes extend
	recs atomic.Pointer[replyRecords] // replaced, never modified below its lengths
}

// replyRecords is one extent of the column. verts[vOff[v]:vOff[v+1]] is
// vertex v's record up to its per-segment rule, {"id":V,"kind":"K" and the
// "name" member when the vertex has one; edges[eOff[e]:eOff[e+1]] is edge e's
// whole record followed by its ','. Both arenas are in id order, so a run of
// consecutive edge ids is one contiguous span.
type replyRecords struct {
	verts, edges []byte
	vOff, eOff   []uint32
}

func newReplyColumn() *replyColumn {
	c := new(replyColumn)
	c.recs.Store(&replyRecords{vOff: []uint32{0}, eOff: []uint32{0}})
	return c
}

func (r *replyRecords) numVertices() int { return len(r.vOff) - 1 }
func (r *replyRecords) numEdges() int    { return len(r.eOff) - 1 }

// vertex is v's record prefix.
func (r *replyRecords) vertex(v graph.VertexID) []byte {
	return r.verts[r.vOff[v]:r.vOff[v+1]]
}

// edgeRun is the records of edges first..last, each with its trailing comma.
func (r *replyRecords) edgeRun(first, last graph.EdgeID) []byte {
	return r.edges[r.eOff[first]:r.eOff[last+1]]
}

// covering returns records for every vertex and edge of seg, whose snapshot
// seg.P belongs to the column's lineage, extending the column from seg.P up
// to seg's largest ids if it is short. The ids are ascending, as core.Segment
// keeps them, so the largest is the last.
func (c *replyColumn) covering(seg *core.Segment) *replyRecords {
	var nv, ne int
	if n := len(seg.Vertices); n > 0 {
		nv = int(seg.Vertices[n-1]) + 1
	}
	if n := len(seg.Edges); n > 0 {
		ne = int(seg.Edges[n-1]) + 1
	}
	if r := c.recs.Load(); r.numVertices() >= nv && r.numEdges() >= ne {
		return r
	}
	return c.extend(seg.P, nv, ne)
}

// extend renders the records of p's vertices below nv and edges below ne
// past the column's end. Appending never rewrites a byte below the old
// lengths, which readers of the previous extent may be copying while this
// runs. The arenas are grown by the extension's exact size first (plus the
// room appendUint32 reserves at the last record), so the first read of a
// graph allocates each arena once, without append's intermediate arrays or
// growth slack.
func (c *replyColumn) extend(p *prov.Graph, nv, ne int) *replyRecords {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := *c.recs.Load()
	v0, e0 := r.numVertices(), r.numEdges()
	nv, ne = max(v0, nv), max(e0, ne)
	vb, eb := recordBytes(p, v0, nv, e0, ne)
	r.verts, r.vOff = slices.Grow(r.verts, vb+uint32Room), slices.Grow(r.vOff, nv-v0)
	r.edges, r.eOff = slices.Grow(r.edges, eb+uint32Room), slices.Grow(r.eOff, ne-e0)
	for v := v0; v < nv; v++ {
		r.verts = appendVertexRecord(r.verts, p, graph.VertexID(v))
		r.vOff = append(r.vOff, uint32(len(r.verts)))
	}
	for e := e0; e < ne; e++ {
		r.edges = appendEdgeRecord(r.edges, p, graph.EdgeID(e))
		r.eOff = append(r.eOff, uint32(len(r.edges)))
	}
	c.recs.Store(&r)
	return &r
}

// recordBytes is the size of the records of vertices [v0, nv) and edges
// [e0, ne) of p, exact unless a name needs escaping.
func recordBytes(p *prov.Graph, v0, nv, e0, ne int) (vb, eb int) {
	for v := v0; v < nv; v++ {
		vb += len(`{"id":,"kind":"E"`) + decimalLen(uint32(v))
		if name := p.Name(graph.VertexID(v)); name != "" {
			vb += len(`,"name":""`) + len(name)
		}
	}
	g := p.PG()
	for e := e0; e < ne; e++ {
		id := graph.EdgeID(e)
		eb += len(`{"id":,"src":,"dst":,"rel":"U"},`) + decimalLen(uint32(e)) + decimalLen(uint32(g.Src(id))) + decimalLen(uint32(g.Dst(id)))
	}
	return vb, eb
}

func decimalLen(x uint32) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// appendVertexRecord appends v's record prefix: {"id":V,"kind":"K", then
// ,"name":"…" unless the name is empty (omitempty).
func appendVertexRecord(b []byte, p *prov.Graph, v graph.VertexID) []byte {
	b = appendUint32(append(b, `{"id":`...), uint32(v))
	b = append(b, kindTails[p.KindOf(v)]...)
	if name := p.Name(v); name != "" {
		b = appendJSONString(append(b, `,"name":`...), name)
	}
	return b
}

// appendEdgeRecord appends e's record and the ',' that follows it in a reply.
func appendEdgeRecord(b []byte, p *prov.Graph, e graph.EdgeID) []byte {
	g := p.PG()
	b = appendUint32(append(b, `{"id":`...), uint32(e))
	b = appendUint32(append(b, `,"src":`...), uint32(g.Src(e)))
	b = appendUint32(append(b, `,"dst":`...), uint32(g.Dst(e)))
	return append(append(b, relTails[p.RelOf(e)]...), "},"...)
}
