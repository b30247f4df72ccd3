// Package graph implements an in-memory property graph store.
//
// It is the storage substrate for the provenance operators, standing in for
// the Neo4j backend used in the paper. It guarantees the two properties the
// paper's query evaluation assumes (Sec. III.B): constant-time access to any
// vertex or edge by its primary identifier, and linear-time scans of a
// vertex's incoming and outgoing edges.
//
// Vertices and edges carry a single label (interned through a dictionary)
// and an optional set of key/value properties. The store is append-only:
// vertices and edges are never deleted, which matches provenance ingestion
// semantics (provenance is immutable history).
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs are dense, starting at 0, and are
// assigned in insertion order, so they double as an order-of-being proxy.
type VertexID uint32

// EdgeID identifies an edge. IDs are dense, starting at 0.
type EdgeID uint32

// NoVertex is a sentinel for "no vertex".
const NoVertex = VertexID(^uint32(0))

// Label is an interned vertex or edge label.
type Label uint16

// NoLabel is the zero, unnamed label.
const NoLabel = Label(0)

// Value is a property value: string, int64, float64 or bool.
type Value struct {
	kind valueKind
	s    string
	i    int64
	f    float64
}

type valueKind uint8

const (
	kindNone valueKind = iota
	kindString
	kindInt
	kindFloat
	kindBool
)

// String wraps a string property value.
func String(s string) Value { return Value{kind: kindString, s: s} }

// Int wraps an int64 property value.
func Int(i int64) Value { return Value{kind: kindInt, i: i} }

// Float wraps a float64 property value.
func Float(f float64) Value { return Value{kind: kindFloat, f: f} }

// Bool wraps a bool property value.
func Bool(b bool) Value {
	v := Value{kind: kindBool}
	if b {
		v.i = 1
	}
	return v
}

// IsZero reports whether the value is the absent value.
func (v Value) IsZero() bool { return v.kind == kindNone }

// AsString returns the string form of the value; numeric values are
// formatted. Useful for display and for property-equality keys.
func (v Value) AsString() string {
	switch v.kind {
	case kindString:
		return v.s
	case kindInt:
		return fmt.Sprintf("%d", v.i)
	case kindFloat:
		return fmt.Sprintf("%g", v.f)
	case kindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	}
	return ""
}

// Str returns the string payload and whether the value is a string.
func (v Value) Str() (string, bool) { return v.s, v.kind == kindString }

// IntVal returns the int payload and whether the value is an int.
func (v Value) IntVal() (int64, bool) { return v.i, v.kind == kindInt }

// FloatVal returns the float payload and whether the value is a float.
func (v Value) FloatVal() (float64, bool) { return v.f, v.kind == kindFloat }

// BoolVal returns the bool payload and whether the value is a bool.
func (v Value) BoolVal() (bool, bool) { return v.i != 0, v.kind == kindBool }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool { return v == o }

// Props is a property map attached to a vertex or an edge.
type Props map[string]Value

// Graph is an append-only labeled property multigraph.
//
// The zero value is not usable; construct with New.
type Graph struct {
	dict *Dictionary

	vLabel []Label
	vProps []Props

	eLabel []Label
	eProps []Props
	eSrc   []VertexID
	eDst   []VertexID

	out [][]EdgeID // outgoing edges per vertex (live graphs)
	in  [][]EdgeID // incoming edges per vertex (live graphs)

	// outRows/inRows replace out/in on frozen snapshots: immutable
	// per-vertex edge-id rows that an incremental snapshot can share with
	// the previous epoch plus a sparse overlay of delta-touched rows, so
	// extending a snapshot does not copy O(V) row headers (see edgeRows).
	outRows, inRows *edgeRows

	byLabel map[Label][]VertexID // label index over vertices

	// frozen marks an immutable epoch snapshot (see Freeze); csr is its
	// compressed-sparse-row adjacency index, nil on live graphs. incrSnap
	// marks a snapshot whose index extends an earlier epoch's
	// (ExtendFrozen) instead of being fully rebuilt.
	frozen   bool
	incrSnap bool
	csr      *csrIndex
	// degrees holds freeze-time per-label degree statistics (see stats.go);
	// nil on live graphs. An incremental snapshot updates the previous
	// epoch's stats by the delta, so they always equal a full rebuild's.
	degrees *DegreeStats
	// snapV/snapE are the high-watermarks of the largest snapshot taken
	// from this live graph. Everything below them is shared with lock-free
	// snapshot readers and must stay immutable: appends are naturally safe
	// (they only touch indices at or past the watermark), but property
	// writes to pre-watermark vertices/edges would race and are rejected.
	snapV, snapE int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		dict:    NewDictionary(),
		byLabel: make(map[Label][]VertexID),
	}
}

// Dict exposes the label dictionary.
func (g *Graph) Dict() *Dictionary { return g.dict }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vLabel) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.eLabel) }

// AddVertex appends a vertex with the given label and returns its id.
func (g *Graph) AddVertex(label Label) VertexID {
	g.mustBeLive()
	id := VertexID(len(g.vLabel))
	g.vLabel = append(g.vLabel, label)
	g.vProps = append(g.vProps, nil)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byLabel[label] = append(g.byLabel[label], id)
	return id
}

// AddEdge appends a directed edge src -> dst with the given label and
// returns its id. Both endpoints must exist.
func (g *Graph) AddEdge(src, dst VertexID, label Label) EdgeID {
	g.mustBeLive()
	if int(src) >= len(g.vLabel) || int(dst) >= len(g.vLabel) {
		panic(fmt.Sprintf("graph: AddEdge endpoint out of range (src=%d dst=%d n=%d)", src, dst, len(g.vLabel)))
	}
	id := EdgeID(len(g.eLabel))
	g.eLabel = append(g.eLabel, label)
	g.eProps = append(g.eProps, nil)
	g.eSrc = append(g.eSrc, src)
	g.eDst = append(g.eDst, dst)
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	return id
}

// VertexLabel returns the label of v.
func (g *Graph) VertexLabel(v VertexID) Label { return g.vLabel[v] }

// EdgeLabel returns the label of e.
func (g *Graph) EdgeLabel(e EdgeID) Label { return g.eLabel[e] }

// Src returns the source endpoint of e.
func (g *Graph) Src(e EdgeID) VertexID { return g.eSrc[e] }

// Dst returns the destination endpoint of e.
func (g *Graph) Dst(e EdgeID) VertexID { return g.eDst[e] }

// Out returns the outgoing edge ids of v. The returned slice must not be
// modified.
func (g *Graph) Out(v VertexID) []EdgeID {
	if g.frozen {
		return g.outRows.row(v)
	}
	return g.out[v]
}

// In returns the incoming edge ids of v. The returned slice must not be
// modified.
func (g *Graph) In(v VertexID) []EdgeID {
	if g.frozen {
		return g.inRows.row(v)
	}
	return g.in[v]
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.Out(v)) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.In(v)) }

// mustBeLive guards mutations: snapshots are immutable by contract, and a
// write slipping through would race with the snapshot's lock-free readers.
func (g *Graph) mustBeLive() {
	if g.frozen {
		panic("graph: mutation of frozen snapshot")
	}
}

// SetVertexProp sets a property on a vertex. The vertex must not be
// covered by a snapshot taken from this graph (see Freeze): snapshot
// readers access shared property maps lock-free, so only vertices appended
// after the last freeze are writable.
func (g *Graph) SetVertexProp(v VertexID, key string, val Value) {
	g.mustBeLive()
	if int(v) < g.snapV {
		panic(fmt.Sprintf("graph: SetVertexProp(%d) below snapshot watermark %d", v, g.snapV))
	}
	if g.vProps[v] == nil {
		g.vProps[v] = make(Props, 2)
	}
	g.vProps[v][key] = val
}

// VertexProp returns the value of a vertex property (zero Value if absent).
func (g *Graph) VertexProp(v VertexID, key string) Value {
	if p := g.vProps[v]; p != nil {
		return p[key]
	}
	return Value{}
}

// VertexProps returns the property map of v (may be nil); callers must not
// modify it.
func (g *Graph) VertexProps(v VertexID) Props { return g.vProps[v] }

// SetEdgeProp sets a property on an edge. Like SetVertexProp, the edge
// must not be covered by a snapshot taken from this graph.
func (g *Graph) SetEdgeProp(e EdgeID, key string, val Value) {
	g.mustBeLive()
	if int(e) < g.snapE {
		panic(fmt.Sprintf("graph: SetEdgeProp(%d) below snapshot watermark %d", e, g.snapE))
	}
	if g.eProps[e] == nil {
		g.eProps[e] = make(Props, 1)
	}
	g.eProps[e][key] = val
}

// EdgeProp returns the value of an edge property (zero Value if absent).
func (g *Graph) EdgeProp(e EdgeID, key string) Value {
	if p := g.eProps[e]; p != nil {
		return p[key]
	}
	return Value{}
}

// EdgeProps returns the property map of e (may be nil); callers must not
// modify it.
func (g *Graph) EdgeProps(e EdgeID) Props { return g.eProps[e] }

// VerticesWithLabel returns the vertices carrying the given label, in id
// order. The returned slice must not be modified.
func (g *Graph) VerticesWithLabel(label Label) []VertexID { return g.byLabel[label] }

// OutNeighbors appends to buf the destination vertices of v's outgoing
// edges with the given label and returns the extended slice. On a frozen
// graph this is one contiguous CSR row copy instead of an edge-list filter.
func (g *Graph) OutNeighbors(v VertexID, label Label, buf []VertexID) []VertexID {
	if g.csr != nil {
		hookRowRead(label, true)
		return g.csr.rel(label, true).appendNbrs(v, buf)
	}
	for _, e := range g.out[v] {
		if g.eLabel[e] == label {
			buf = append(buf, g.eDst[e])
		}
	}
	return buf
}

// InNeighbors appends to buf the source vertices of v's incoming edges with
// the given label and returns the extended slice. On a frozen graph this is
// one contiguous CSR row copy instead of an edge-list filter.
func (g *Graph) InNeighbors(v VertexID, label Label, buf []VertexID) []VertexID {
	if g.csr != nil {
		hookRowRead(label, false)
		return g.csr.rel(label, false).appendNbrs(v, buf)
	}
	for _, e := range g.in[v] {
		if g.eLabel[e] == label {
			buf = append(buf, g.eSrc[e])
		}
	}
	return buf
}

// Stats summarizes the graph.
type Stats struct {
	Vertices      int
	Edges         int
	VertexByLabel map[string]int
	EdgeByLabel   map[string]int
	MaxOutDegree  int
	MaxInDegree   int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		VertexByLabel: make(map[string]int),
		EdgeByLabel:   make(map[string]int),
	}
	for _, l := range g.vLabel {
		st.VertexByLabel[g.dict.Name(l)]++
	}
	for _, l := range g.eLabel {
		st.EdgeByLabel[g.dict.Name(l)]++
	}
	for v := 0; v < st.Vertices; v++ {
		if d := g.OutDegree(VertexID(v)); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
		if d := g.InDegree(VertexID(v)); d > st.MaxInDegree {
			st.MaxInDegree = d
		}
	}
	return st
}

// SortedPropKeys returns the sorted keys of a property map.
func SortedPropKeys(p Props) []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// IsAcyclic reports whether the graph is a DAG, optionally restricted to
// edges whose label passes the filter (nil filter means all edges).
func (g *Graph) IsAcyclic(edgeFilter func(Label) bool) bool {
	_, ok := g.TopoOrder(edgeFilter)
	return ok
}

// TopoOrder returns the vertices in a topological order of the edges whose
// label passes the filter (nil filter means all edges): each edge's source
// comes first. ok is false, and the order partial, when they hold a cycle.
func (g *Graph) TopoOrder(edgeFilter func(Label) bool) (order []VertexID, ok bool) {
	n := g.NumVertices()
	indeg := make([]int32, n)
	for e := 0; e < g.NumEdges(); e++ {
		if edgeFilter != nil && !edgeFilter(g.eLabel[e]) {
			continue
		}
		indeg[g.eDst[e]]++
	}
	order = make([]VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, VertexID(v))
		}
	}
	// Kahn's algorithm with order as its queue: order[i:] is ready, unvisited.
	for i := 0; i < len(order); i++ {
		for _, e := range g.Out(order[i]) {
			if edgeFilter != nil && !edgeFilter(g.eLabel[e]) {
				continue
			}
			d := g.eDst[e]
			if indeg[d]--; indeg[d] == 0 {
				order = append(order, d)
			}
		}
	}
	return order, len(order) == n
}
