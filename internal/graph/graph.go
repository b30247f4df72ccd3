// Package graph implements an in-memory property graph store.
//
// It is the storage substrate for the provenance operators, standing in for
// the Neo4j backend used in the paper. It guarantees the two properties the
// paper's query evaluation assumes (Sec. III.B): constant-time access to any
// vertex or edge by its primary identifier, and linear-time scans of a
// vertex's incoming and outgoing edges of a label. The live graph is
// write-only: it keeps its edges as columns (label, source, destination),
// and every adjacency read goes through an immutable snapshot (Freeze),
// whose per-label CSR rows give both guarantees.
//
// Vertices and edges carry a single label (interned through a dictionary)
// and an optional set of key/value properties. The store is append-only:
// vertices and edges are never deleted, which matches provenance ingestion
// semantics (provenance is immutable history).
package graph

import (
	"fmt"
	"slices"
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

// Props is the property map of a vertex or edge that no freeze has packed
// yet (see props.go).
type Props map[string]Value

// Graph is an append-only labeled property multigraph.
//
// The zero value is not usable; construct with New.
type Graph struct {
	dict *Dictionary

	vLabel []Label
	eLabel []Label
	eSrc   []VertexID
	eDst   []VertexID

	// props holds the properties below the watermark (props.v.n,
	// props.e.n), packed (see props.go); vTail/eTail hold the rest as maps
	// (live graphs only; a slice may stop short of the last element when
	// the elements past it have no properties). packer interns key names
	// for the next freeze. The last freeze, Load or ApplyDelta set the
	// watermark, and everything below it may be shared with lock-free
	// snapshot readers: appends only touch indices past it, but property
	// writes below it would race and are rejected.
	props        propStore
	vTail, eTail []Props
	packer       packer

	byLabel map[Label][]VertexID // label index over vertices

	// frozen marks an immutable epoch snapshot (see Freeze); csr is its
	// compressed-sparse-row adjacency index, the only adjacency rows a
	// graph keeps (nil on live graphs). incrSnap marks a snapshot whose
	// index extends an earlier epoch's (ExtendFrozen) instead of being
	// fully rebuilt.
	frozen   bool
	incrSnap bool
	csr      *csrIndex
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
	g.eSrc = append(g.eSrc, src)
	g.eDst = append(g.eDst, dst)
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

// EdgeColumns returns the edge columns, indexed by edge id: each edge's
// label, source and destination. They are the graph's own and must not be
// modified; a scan over every edge reads them without a call per edge.
func (g *Graph) EdgeColumns() (labels []Label, src, dst []VertexID) {
	return g.eLabel, g.eSrc, g.eDst
}

// mustBeLive guards mutations: snapshots are immutable by contract, and a
// write slipping through would race with the snapshot's lock-free readers.
func (g *Graph) mustBeLive() {
	if g.frozen {
		panic("graph: mutation of frozen snapshot")
	}
}

// MustBeFrozen guards the readers that walk adjacency rows: the live graph
// keeps none, so caller (named in the panic) must be handed a snapshot.
func (g *Graph) MustBeFrozen(caller string) {
	if !g.frozen {
		panic(caller + ": adjacency read of live graph (read a snapshot: Freeze)")
	}
}

// index returns the snapshot's CSR index, panicking on a live graph.
func (g *Graph) index() *csrIndex {
	g.MustBeFrozen("graph")
	return g.csr
}

// VerticesWithLabel returns the vertices carrying the given label, in id
// order. The returned slice must not be modified.
func (g *Graph) VerticesWithLabel(label Label) []VertexID { return g.byLabel[label] }

// Stats summarizes the graph.
type Stats struct {
	Vertices      int
	Edges         int
	VertexByLabel map[string]int
	EdgeByLabel   map[string]int
	MaxOutDegree  int
	MaxInDegree   int
}

// Stats computes summary statistics from the edge columns, so it works on
// a live graph and a snapshot alike.
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
	outDeg, inDeg := make([]int, st.Vertices), make([]int, st.Vertices)
	for e, s := range g.eSrc {
		outDeg[s]++
		inDeg[g.eDst[e]]++
	}
	for v := range outDeg {
		st.MaxOutDegree = max(st.MaxOutDegree, outDeg[v])
		st.MaxInDegree = max(st.MaxInDegree, inDeg[v])
	}
	return st
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
// It reads the edge columns through one transient counting sort by source
// (off, nbr: row v is nbr[off[v]:off[v+1]], its admitted edges' targets in
// ascending edge id), so it runs on a live graph, which is how Validate
// checks loads, recovery and replicated deltas.
func (g *Graph) TopoOrder(edgeFilter func(Label) bool) (order []VertexID, ok bool) {
	n := g.NumVertices()
	admit := func(e int) bool { return edgeFilter == nil || edgeFilter(g.eLabel[e]) }
	off := make([]uint32, n+1)
	indeg := make([]int32, n)
	for e, s := range g.eSrc {
		if admit(e) {
			off[s+1]++
			indeg[g.eDst[e]]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]VertexID, off[n])
	next := slices.Clone(off[:n])
	for e, s := range g.eSrc {
		if admit(e) {
			nbr[next[s]] = g.eDst[e]
			next[s]++
		}
	}
	order = make([]VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, VertexID(v))
		}
	}
	// Kahn's algorithm with order as its queue: order[i:] is ready, unvisited.
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, d := range nbr[off[v]:off[v+1]] {
			if indeg[d]--; indeg[d] == 0 {
				order = append(order, d)
			}
		}
	}
	return order, len(order) == n
}
