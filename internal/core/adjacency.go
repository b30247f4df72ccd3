package core

import (
	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// adjacency wraps the provenance graph with boundary-filtered neighbor
// access: vertices and edges excluded by the boundary criteria are mapped
// to epsilon (paper's F_v / F_e) and never traversed.
//
// It is the only code in the package that knows a graph representation. The
// per-relation walks (closures, the VC2 runners, VC3, expansion) are written
// once against row() — or neighbors(), its copying form — and serve frozen
// CSR snapshots, live edge lists and programmatically filtered boundaries
// alike; VC4 and the induced edges read no relation rows at all but each
// segment vertex's mixed Out row once (inducedEdges), applying the same
// relation exclusions and filters. On a frozen graph (graph.Freeze) the
// per-relation neighbor scans read contiguous CSR rows; with no programmatic
// filters (the common case — the serving layer's cacheable queries carry
// only relation-type exclusions) row hands out the CSR segments themselves
// and the read-only walks (closures, VC3) iterate them in place. An excluded
// relation returns before any row is touched, so its CSR block is never
// read.
type adjacency struct {
	p        *prov.Graph
	vFilters []VertexFilter
	eFilters []EdgeFilter
	relOK    [8]bool
	// plain marks a boundary with no programmatic vertex/edge filters, so
	// vertexOK is constant-true and edgeOK reduces to the relation mask.
	plain bool
	rows  RowCounts // what row fetched; each goroutine reads through its own copy
	// done is the request's done channel (Work), which the long walks poll;
	// nil for none.
	done <-chan struct{}
}

// RowCounts counts the relation rows a PgSeg call fetched, by prov.Rel and
// direction (1: out-rows, toward ancestors). An excluded relation counts 0.
type RowCounts [8][2]int

// add adds o to c.
func (c *RowCounts) add(o *RowCounts) {
	for r := range o {
		c[r][0] += o[r][0]
		c[r][1] += o[r][1]
	}
}

func newAdjacency(p *prov.Graph, b Boundary) *adjacency {
	ad := &adjacency{
		p:        p,
		vFilters: b.VertexFilters,
		eFilters: b.EdgeFilters,
		plain:    len(b.VertexFilters) == 0 && len(b.EdgeFilters) == 0,
	}
	for i := range ad.relOK {
		ad.relOK[i] = true
	}
	for _, r := range b.ExcludeRels {
		ad.relOK[r] = false
	}
	return ad
}

func (ad *adjacency) vertexOK(v graph.VertexID) bool {
	for _, f := range ad.vFilters {
		if !f(ad.p, v) {
			return false
		}
	}
	return true
}

func (ad *adjacency) edgeOK(e graph.EdgeID) bool {
	if !ad.relOK[ad.p.RelOf(e)] {
		return false
	}
	return ad.edgeFiltersOK(e)
}

// edgeFiltersOK applies just the programmatic edge filters (callers that
// already know the relation is admitted skip the relOK lookup).
func (ad *adjacency) edgeFiltersOK(e graph.EdgeID) bool {
	for _, f := range ad.eFilters {
		if !f(ad.p, e) {
			return false
		}
	}
	return true
}

// row returns the filtered neighbors of v reached by edges of the given
// relationship in the given direction (out = forward edge traversal) as two
// read-only segments, a then b. On a plain frozen boundary they are the CSR
// row itself — the contiguous epoch's slice and, on an incrementally
// extended block, the extension's — and nothing is copied. Otherwise (a live
// graph, programmatic filters) the row is appended to *buf and returned as a,
// b is nil; a caller reusing buf across rows truncates it itself. (Two
// results, not a [2] array: ranging over a returned array costs the closure
// walk a third of its time.)
func (ad *adjacency) row(v graph.VertexID, rel prov.Rel, out bool, buf *[]graph.VertexID) (a, b []graph.VertexID) {
	if !ad.relOK[rel] {
		return nil, nil
	}
	ad.rows[rel][dir(out)]++
	label := ad.p.RelLabel(rel)
	if ad.plain {
		if base, ext, ok := ad.p.PG().NeighborRowSegs(v, label, out); ok {
			return base, ext
		}
	}
	n := len(*buf)
	*buf = ad.scan(v, label, out, *buf)
	return (*buf)[n:], nil
}

// scan appends the row that row cannot read in place.
func (ad *adjacency) scan(v graph.VertexID, label graph.Label, out bool, buf []graph.VertexID) []graph.VertexID {
	g := ad.p.PG()
	if ad.plain {
		// A live graph: OutNeighbors/InNeighbors filter the edge list by
		// label alone.
		if out {
			return g.OutNeighbors(v, label, buf)
		}
		return g.InNeighbors(v, label, buf)
	}
	if nbrs, eids, frozen := g.FrozenNeighbors(v, label, out); frozen {
		for i, e := range eids {
			if ad.edgeFiltersOK(e) && ad.vertexOK(nbrs[i]) {
				buf = append(buf, nbrs[i])
			}
		}
		return buf
	}
	if out {
		for _, e := range g.Out(v) {
			if g.EdgeLabel(e) == label && ad.edgeFiltersOK(e) && ad.vertexOK(g.Dst(e)) {
				buf = append(buf, g.Dst(e))
			}
		}
	} else {
		for _, e := range g.In(v) {
			if g.EdgeLabel(e) == label && ad.edgeFiltersOK(e) && ad.vertexOK(g.Src(e)) {
				buf = append(buf, g.Src(e))
			}
		}
	}
	return buf
}

// neighbors appends the row of v (see row) to buf.
func (ad *adjacency) neighbors(v graph.VertexID, rel prov.Rel, out bool, buf []graph.VertexID) []graph.VertexID {
	n := len(buf)
	a, b := ad.row(v, rel, out, &buf)
	if len(buf) == n { // read in place (or empty): copy it out
		buf = append(append(buf, a...), b...)
	}
	return buf
}

// generatorsOf returns the activities that generated entity e (ascend).
func (ad *adjacency) generatorsOf(e graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return ad.neighbors(e, prov.RelGen, true, buf)
}

// generatedBy returns the entities generated by activity a (descend).
func (ad *adjacency) generatedBy(a graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return ad.neighbors(a, prov.RelGen, false, buf)
}

// inputsOf returns the entities used by activity a (ascend).
func (ad *adjacency) inputsOf(a graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return ad.neighbors(a, prov.RelUsed, true, buf)
}

// usersOf returns the activities that used entity e (descend).
func (ad *adjacency) usersOf(e graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return ad.neighbors(e, prov.RelUsed, false, buf)
}

// directPaths forms VC1 from the forward ancestry closure of Vdst and the
// backward closure of Vsrc (two tasks of Segment's fork-join): the vertices
// on any direct ancestry path from a destination entity to a source entity,
// i.e. the closures' intersection. Ancestry edges are U, G and (unless
// disabled) D. The union of the two closures is returned alongside: it seeds
// the segment's support set (every VC1/VC2 derivation stays inside it, see
// Segment.Support), which the serving layer uses to revalidate cached
// segments against ingest deltas. fromDst becomes VC1.
func directPaths(fromDst, toSrc *bitmap.Bitset) (vc1, closures *bitmap.Bitset) {
	closures = fromDst.Clone()
	closures.UnionWith(toSrc)
	fromDst.IntersectWith(toSrc)
	return fromDst, closures
}

// AncestryClosure computes the set of vertices reachable from the seeds by
// ancestry edges under the given boundary — the VC1 building block (one of
// directPaths' two inputs), exposed for benchmark/trace.go's per-layer
// timing and difftest's live-vs-snapshot closure diff.
func (e *Engine) AncestryClosure(seeds []graph.VertexID, b Boundary, forward bool) *bitmap.Bitset {
	return e.ancestryClosure(seeds, newAdjacency(e.P, b), forward)
}

// Ancestry relations by the kind of the vertex a closure pops (prov.AddRel
// types every edge, so no other row of that vertex can be non-empty). Toward
// ancestors (out-rows) an entity has G and D, an activity U; toward
// descendants (in-rows) an entity has U and D, an activity G. An agent is
// never reached. D comes last so VC1ExcludeDerivations can cut it off.
var (
	ancestorRels   = [2][]prov.Rel{{prov.RelGen, prov.RelDeriv}, {prov.RelUsed}}
	descendantRels = [2][]prov.Rel{{prov.RelUsed, prov.RelDeriv}, {prov.RelGen}}
)

// closureRels returns the relations a closure follows out of an entity and
// out of an activity, toward ancestors when forward.
func (e *Engine) closureRels(forward bool) (ent, act []prov.Rel) {
	rels := descendantRels
	if forward {
		rels = ancestorRels
	}
	ent, act = rels[0], rels[1]
	if e.opts.VC1ExcludeDerivations {
		ent = ent[:1]
	}
	return ent, act
}

// ancestryClosure computes the set of vertices reachable from the seeds by
// ancestry edges; forward=true follows edges in their direction (toward
// ancestors), forward=false follows them inversely (toward descendants). It
// stops early, with part of the closure, once ad's request is done.
// The walk visits one relation at a time, and only the relations the popped
// vertex's kind can have (closureRels): on a frozen graph each step then
// reads contiguous CSR rows, and on a live graph the repeated label-compare
// scans of the edge list still measure ~2x faster than one mixed pass that
// classifies every edge through the RelOf label map (Pd10k VC1 walk: ~1.0ms
// vs ~1.8ms).
func (e *Engine) ancestryClosure(seeds []graph.VertexID, ad *adjacency, forward bool) *bitmap.Bitset {
	closure := bitmap.NewBitset(e.P.NumVertices())
	queue := make([]graph.VertexID, 0, len(seeds))
	for _, v := range seeds {
		if ad.vertexOK(v) && closure.Add(uint32(v)) {
			queue = append(queue, v)
		}
	}
	entRels, actRels := e.closureRels(forward)
	var buf []graph.VertexID
	for pops := 1; len(queue) > 0; pops++ {
		if pops&pollMask == 0 && stopped(ad.done) {
			break
		}
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		rels := actRels
		if e.P.IsKind(v, prov.KindEntity) {
			rels = entRels
		}
		for _, r := range rels {
			buf = buf[:0]
			a, b := ad.row(v, r, forward, &buf)
			for _, nxt := range a {
				if closure.Add(uint32(nxt)) {
					queue = append(queue, nxt)
				}
			}
			for _, nxt := range b {
				if closure.Add(uint32(nxt)) {
					queue = append(queue, nxt)
				}
			}
		}
	}
	return closure
}
