// Package prov implements the W3C PROV core data model on top of the
// property graph store (paper Sec. II, Definition 1).
//
// A provenance graph G(V, E, lambda_v, lambda_e, sigma, omega) is a DAG
// whose vertices are Entities (E), Activities (A) and Agents (U), and whose
// edges are one of the five core PROV relationships:
//
//	used              U  subset of A x E
//	wasGeneratedBy    G  subset of E x A
//	wasAssociatedWith S  subset of A x U
//	wasAttributedTo   A  subset of E x U
//	wasDerivedFrom    D  subset of E x E
//
// The package provides a typed builder with schema validation, helpers for
// versioned artifacts, order-of-being, path labels (including inverse edge
// labels U^-1 and G^-1), and a JSON interchange format.
package prov

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// Kind is a PROV vertex kind.
type Kind uint8

// PROV vertex kinds.
const (
	KindEntity Kind = iota
	KindActivity
	KindAgent
	numKinds
)

// String returns the one-letter PROV vertex label (E, A, U).
func (k Kind) String() string {
	switch k {
	case KindEntity:
		return "E"
	case KindActivity:
		return "A"
	case KindAgent:
		return "U"
	}
	return "?"
}

// Rel is a PROV edge relationship type.
type Rel uint8

// PROV relationship types.
const (
	RelUsed  Rel = iota // used: Activity -> Entity
	RelGen              // wasGeneratedBy: Entity -> Activity
	RelAssoc            // wasAssociatedWith: Activity -> Agent
	RelAttr             // wasAttributedTo: Entity -> Agent
	RelDeriv            // wasDerivedFrom: Entity -> Entity
	numRels
)

// String returns the one-letter edge label used in path words
// (U, G, S, A, D).
func (r Rel) String() string {
	switch r {
	case RelUsed:
		return "U"
	case RelGen:
		return "G"
	case RelAssoc:
		return "S"
	case RelAttr:
		return "A"
	case RelDeriv:
		return "D"
	}
	return "?"
}

// LongName returns the PROV-DM relationship name.
func (r Rel) LongName() string {
	switch r {
	case RelUsed:
		return "used"
	case RelGen:
		return "wasGeneratedBy"
	case RelAssoc:
		return "wasAssociatedWith"
	case RelAttr:
		return "wasAttributedTo"
	case RelDeriv:
		return "wasDerivedFrom"
	}
	return "?"
}

// Endpoints returns the required (src, dst) vertex kinds for a
// relationship: the schema AddRel and Validate enforce, and the one the
// walks that read a kind's relation rows derive their lists from.
func (r Rel) Endpoints() (src, dst Kind) {
	switch r {
	case RelUsed:
		return KindActivity, KindEntity
	case RelGen:
		return KindEntity, KindActivity
	case RelAssoc:
		return KindActivity, KindAgent
	case RelAttr:
		return KindEntity, KindAgent
	case RelDeriv:
		return KindEntity, KindEntity
	}
	panic("prov: bad relationship")
}

// Well-known property keys used by the lifecycle tooling.
const (
	PropName     = "name"     // display/artifact name
	PropCommand  = "command"  // activity command
	PropVersion  = "version"  // commit/version id
	PropFilename = "filename" // artifact a snapshot entity belongs to
)

// Graph is a PROV provenance graph. It embeds the generic property graph
// and adds PROV typing.
type Graph struct {
	g *graph.Graph

	kindLabels [numKinds]graph.Label
	relLabels  [numRels]graph.Label
	// labelKind / labelRel are the inverse tables, indexed by graph.Label:
	// numKinds / numRels mark a non-PROV label, as does an index past the
	// end. Built once in Wrap and shared, read-only, by every snapshot.
	labelKind []Kind
	labelRel  []Rel

	// being memoizes OrderOfBeing on a frozen snapshot: idRank once the
	// snapshot is known id-monotone, else the rank once built.
	being atomic.Pointer[Rank]
}

// Rank is an order of being: every ancestry (U, G) edge u -> w has
// Of(u) > Of(w) (paper Sec. III.B). The zero Rank is the vertex id.
type Rank struct {
	byRank []graph.VertexID // the vertex of each rank; nil: the id
	rank   []int32
}

var idRank = new(Rank) // the memo of an id-monotone snapshot: the zero Rank

// Of returns v's rank.
func (r Rank) Of(v graph.VertexID) int32 {
	if r.rank == nil {
		return int32(v)
	}
	return r.rank[v]
}

// At returns the vertex of rank i.
func (r Rank) At(i int32) graph.VertexID {
	if r.byRank == nil {
		return graph.VertexID(i)
	}
	return r.byRank[i]
}

// IsID reports whether the rank is the vertex id.
func (r Rank) IsID() bool { return r.rank == nil }

// OrderOfBeing returns the graph's order of being, false if its ancestry has a
// cycle: the id on an id-monotone graph (nothing is allocated), else a rank
// built in O(V+E), once per frozen snapshot and per call on a live graph.
func (p *Graph) OrderOfBeing() (Rank, bool) {
	if r := p.being.Load(); r != nil {
		return *r, true // *idRank is the id
	}
	if p.AncestryMonotone() {
		return Rank{}, true
	}
	uL, gL := p.relLabels[RelUsed], p.relLabels[RelGen]
	order, ok := p.g.TopoOrder(func(l graph.Label) bool { return l == uL || l == gL })
	if !ok {
		return Rank{}, false
	}
	slices.Reverse(order) // TopoOrder puts an edge's newer end first
	r := &Rank{byRank: order, rank: make([]int32, len(order))}
	for i, v := range order {
		r.rank[v] = int32(i)
	}
	if p.g.Frozen() && !p.being.CompareAndSwap(nil, r) {
		r = p.being.Load()
	}
	return *r, true
}

// New returns an empty PROV graph.
func New() *Graph {
	return Wrap(graph.New())
}

// Wrap adapts an existing property graph whose labels are the PROV
// one-letter conventions (E, A, U vertices; U, G, S, A, D edges). Labels are
// interned if missing.
func Wrap(g *graph.Graph) *Graph {
	p := &Graph{g: g}
	d := g.Dict()
	// Vertex labels: E, A, U. Edge labels are prefixed to avoid colliding
	// with the "A"/"U" vertex labels in the shared dictionary.
	for k := Kind(0); k < numKinds; k++ {
		p.kindLabels[k] = d.Intern("v:" + k.String())
	}
	for r := Rel(0); r < numRels; r++ {
		p.relLabels[r] = d.Intern("e:" + r.String())
	}
	// The inverse tables cover every label interned so far.
	p.labelKind = make([]Kind, d.Len())
	p.labelRel = make([]Rel, d.Len())
	for l := range p.labelKind {
		p.labelKind[l], p.labelRel[l] = numKinds, numRels
	}
	for k, l := range p.kindLabels {
		p.labelKind[l] = Kind(k)
	}
	for r, l := range p.relLabels {
		p.labelRel[l] = Rel(r)
	}
	return p
}

// kindOfLabel maps a vertex label to its PROV kind; false for a non-PROV
// label.
func (p *Graph) kindOfLabel(l graph.Label) (Kind, bool) {
	if int(l) < len(p.labelKind) {
		k := p.labelKind[l]
		return k, k < numKinds
	}
	return numKinds, false
}

// relOfLabel maps an edge label to its PROV relationship; false for a
// non-PROV label.
func (p *Graph) relOfLabel(l graph.Label) (Rel, bool) {
	if int(l) < len(p.labelRel) {
		r := p.labelRel[l]
		return r, r < numRels
	}
	return numRels, false
}

// PG exposes the underlying property graph.
func (p *Graph) PG() *graph.Graph { return p.g }

// Freeze returns an immutable epoch snapshot of the provenance graph,
// backed by graph.Freeze's CSR adjacency index. The snapshot shares no
// mutable state with the live graph: writers may keep appending while any
// number of readers query the snapshot lock-free. The label tables are
// shared (they are fixed at Wrap time). Freezing a frozen graph returns it
// unchanged.
func (p *Graph) Freeze() *Graph {
	if p.g.Frozen() {
		return p
	}
	return p.wrapSnapshot(p.g.Freeze())
}

// wrapSnapshot wraps a frozen property graph with this graph's (immutable,
// fixed at Wrap time) PROV label tables.
func (p *Graph) wrapSnapshot(fg *graph.Graph) *Graph {
	return &Graph{
		g:          fg,
		kindLabels: p.kindLabels,
		relLabels:  p.relLabels,
		labelKind:  p.labelKind,
		labelRel:   p.labelRel,
	}
}

// ExtendFrozen returns an immutable epoch snapshot like Freeze, but builds
// the CSR index incrementally from prev, an earlier snapshot of this same
// graph (normally the previous epoch): unchanged per-label blocks are
// shared, only the ingest delta is indexed (graph.ExtendFrozen). The bool
// result reports whether the incremental path was taken; when prev is
// unusable as a base the snapshot falls back to a full rebuild.
func (p *Graph) ExtendFrozen(prev *Graph) (*Graph, bool) {
	if p.g.Frozen() {
		return p, false
	}
	var pg *graph.Graph
	if prev != nil {
		pg = prev.g
	}
	fg, incr := p.g.ExtendFrozen(pg)
	np := p.wrapSnapshot(fg)
	// Carried at delta cost: prev's answer and the edges added since.
	if incr && prev.AncestryMonotone() && np.ancestryDescends(prev.NumEdges()) {
		np.being.Store(idRank)
	}
	return np, incr
}

// AncestryMonotone reports whether every ancestry (U, G) edge points from a
// newer vertex to a strictly older one — true for ingestion-ordered
// provenance, where the id itself is an order of being (OrderOfBeing). A
// frozen snapshot memoizes a yes, which ExtendFrozen carries at delta cost;
// otherwise the edges are scanned up to the first that does not descend.
func (p *Graph) AncestryMonotone() bool {
	if r := p.being.Load(); r != nil {
		return r == idRank
	}
	ok := p.ancestryDescends(0)
	if ok && p.g.Frozen() {
		p.being.CompareAndSwap(nil, idRank)
	}
	return ok
}

// ancestryDescends scans the edges with id >= from.
func (p *Graph) ancestryDescends(from int) bool {
	uL, gL := p.relLabels[RelUsed], p.relLabels[RelGen]
	for eid := from; eid < p.g.NumEdges(); eid++ {
		id := graph.EdgeID(eid)
		if l := p.g.EdgeLabel(id); (l == uL || l == gL) && p.g.Src(id) <= p.g.Dst(id) {
			return false
		}
	}
	return true
}

// KindLabel returns the graph label for a vertex kind.
func (p *Graph) KindLabel(k Kind) graph.Label { return p.kindLabels[k] }

// RelLabel returns the graph label for a relationship.
func (p *Graph) RelLabel(r Rel) graph.Label { return p.relLabels[r] }

// NumVertices returns the number of vertices.
func (p *Graph) NumVertices() int { return p.g.NumVertices() }

// NumEdges returns the number of edges.
func (p *Graph) NumEdges() int { return p.g.NumEdges() }

// KindOf returns the PROV kind of vertex v.
func (p *Graph) KindOf(v graph.VertexID) Kind {
	k, ok := p.kindOfLabel(p.g.VertexLabel(v))
	if !ok {
		panic(fmt.Sprintf("prov: vertex %d has non-PROV label", v))
	}
	return k
}

// RelOf returns the PROV relationship of edge e.
func (p *Graph) RelOf(e graph.EdgeID) Rel {
	r, ok := p.relOfLabel(p.g.EdgeLabel(e))
	if !ok {
		panic(fmt.Sprintf("prov: edge %d has non-PROV label", e))
	}
	return r
}

// IsKind reports whether v has the given kind.
func (p *Graph) IsKind(v graph.VertexID, k Kind) bool {
	return p.g.VertexLabel(v) == p.kindLabels[k]
}

// NewEntity adds an entity vertex with a display name.
func (p *Graph) NewEntity(name string) graph.VertexID {
	v := p.g.AddVertex(p.kindLabels[KindEntity])
	if name != "" {
		p.g.SetVertexProp(v, PropName, graph.String(name))
	}
	return v
}

// NewActivity adds an activity vertex with a display name.
func (p *Graph) NewActivity(name string) graph.VertexID {
	v := p.g.AddVertex(p.kindLabels[KindActivity])
	if name != "" {
		p.g.SetVertexProp(v, PropName, graph.String(name))
	}
	return v
}

// NewAgent adds an agent vertex with a display name.
func (p *Graph) NewAgent(name string) graph.VertexID {
	v := p.g.AddVertex(p.kindLabels[KindAgent])
	if name != "" {
		p.g.SetVertexProp(v, PropName, graph.String(name))
	}
	return v
}

// errKind formats an endpoint-typing error.
func (p *Graph) errKind(r Rel, src, dst graph.VertexID) error {
	ks, kd := r.Endpoints()
	return fmt.Errorf("prov: %s requires %v -> %v endpoints, got %v -> %v",
		r.LongName(), ks, kd, p.KindOf(src), p.KindOf(dst))
}

// AddRel adds a typed relationship edge after validating the endpoint kinds.
func (p *Graph) AddRel(r Rel, src, dst graph.VertexID) (graph.EdgeID, error) {
	ks, kd := r.Endpoints()
	if p.KindOf(src) != ks || p.KindOf(dst) != kd {
		return 0, p.errKind(r, src, dst)
	}
	return p.g.AddEdge(src, dst, p.relLabels[r]), nil
}

// mustRel is AddRel that panics on schema violation; used by the typed
// helpers below whose signatures already enforce intent.
func (p *Graph) mustRel(r Rel, src, dst graph.VertexID) graph.EdgeID {
	e, err := p.AddRel(r, src, dst)
	if err != nil {
		panic(err)
	}
	return e
}

// Used records that activity a used entity e (edge a -> e).
func (p *Graph) Used(a, e graph.VertexID) graph.EdgeID { return p.mustRel(RelUsed, a, e) }

// WasGeneratedBy records that entity e was generated by activity a
// (edge e -> a).
func (p *Graph) WasGeneratedBy(e, a graph.VertexID) graph.EdgeID { return p.mustRel(RelGen, e, a) }

// WasAssociatedWith records that activity a was associated with agent u.
func (p *Graph) WasAssociatedWith(a, u graph.VertexID) graph.EdgeID {
	return p.mustRel(RelAssoc, a, u)
}

// WasAttributedTo records that entity e was attributed to agent u.
func (p *Graph) WasAttributedTo(e, u graph.VertexID) graph.EdgeID { return p.mustRel(RelAttr, e, u) }

// WasDerivedFrom records that entity e2 was derived from entity e1
// (edge e2 -> e1).
func (p *Graph) WasDerivedFrom(e2, e1 graph.VertexID) graph.EdgeID {
	return p.mustRel(RelDeriv, e2, e1)
}

// Name returns the display name of a vertex (empty if unset).
func (p *Graph) Name(v graph.VertexID) string {
	return p.g.VertexProp(v, PropName).AsString()
}

// Entities returns all entity vertex ids in id order.
func (p *Graph) Entities() []graph.VertexID {
	return p.g.VerticesWithLabel(p.kindLabels[KindEntity])
}

// Activities returns all activity vertex ids in id order.
func (p *Graph) Activities() []graph.VertexID {
	return p.g.VerticesWithLabel(p.kindLabels[KindActivity])
}

// Agents returns all agent vertex ids in id order.
func (p *Graph) Agents() []graph.VertexID {
	return p.g.VerticesWithLabel(p.kindLabels[KindAgent])
}

// The neighbor helpers below read a snapshot's rows (Freeze); on a live
// graph, which keeps none, they panic.

// GeneratorsOf appends to buf the activities that generated entity e
// (targets of e's G out-edges).
func (p *Graph) GeneratorsOf(e graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return p.appendRow(buf, e, RelGen, true)
}

// GeneratedBy appends to buf the entities generated by activity a
// (sources of a's G in-edges).
func (p *Graph) GeneratedBy(a graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return p.appendRow(buf, a, RelGen, false)
}

// InputsOf appends to buf the entities used by activity a (targets of a's
// U out-edges).
func (p *Graph) InputsOf(a graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return p.appendRow(buf, a, RelUsed, true)
}

// UsersOf appends to buf the activities that used entity e (sources of e's
// U in-edges).
func (p *Graph) UsersOf(e graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return p.appendRow(buf, e, RelUsed, false)
}

// AgentsOf appends to buf the agents linked to v by S (activities) or A
// (entities) edges.
func (p *Graph) AgentsOf(v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	buf = p.appendRow(buf, v, RelAssoc, true)
	return p.appendRow(buf, v, RelAttr, true)
}

// appendRow appends v's row of relation r to buf: the targets of its
// out-edges when out, the sources of its in-edges otherwise.
func (p *Graph) appendRow(buf []graph.VertexID, v graph.VertexID, r Rel, out bool) []graph.VertexID {
	base, ext := p.g.Rows(p.relLabels[r], out).Segs(v)
	return append(append(buf, base...), ext...)
}

// Validate checks PROV well-formedness: every vertex/edge label is a PROV
// label, every edge is endpoint-typed correctly (ValidateFrom over the whole
// graph), and the graph is acyclic (Definition 1 requires a DAG).
func (p *Graph) Validate() error {
	if err := p.ValidateFrom(0, 0); err != nil {
		return err
	}
	if !p.g.IsAcyclic(nil) {
		return fmt.Errorf("prov: provenance graph contains a cycle")
	}
	return nil
}

// ValidateFrom checks the PROV schema over what was appended past a
// watermark: every vertex with id >= firstVertex has a PROV label, and every
// edge with id >= firstEdge has a PROV label and the endpoint kinds AddRel
// enforces. It costs O(delta), so the paths that append without AddRel —
// graph loads, WAL replay, a follower's delta apply — run it on what they
// add; PgSeg's walks rely on the typing.
func (p *Graph) ValidateFrom(firstVertex, firstEdge int) error {
	for v := firstVertex; v < p.g.NumVertices(); v++ {
		if _, ok := p.kindOfLabel(p.g.VertexLabel(graph.VertexID(v))); !ok {
			return fmt.Errorf("prov: vertex %d: unknown label %q", v, p.g.Dict().Name(p.g.VertexLabel(graph.VertexID(v))))
		}
	}
	for e := firstEdge; e < p.g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		r, ok := p.relOfLabel(p.g.EdgeLabel(id))
		if !ok {
			return fmt.Errorf("prov: edge %d: unknown label %q", e, p.g.Dict().Name(p.g.EdgeLabel(id)))
		}
		ks, kd := r.Endpoints()
		if p.KindOf(p.g.Src(id)) != ks || p.KindOf(p.g.Dst(id)) != kd {
			return fmt.Errorf("prov: edge %d: %w", e, p.errKind(r, p.g.Src(id), p.g.Dst(id)))
		}
	}
	return nil
}
