package difftest

import "repro/internal/graph"

// Replayer re-ingests an existing property graph into a fresh live graph
// in increments, preserving every id: vertices and edges are appended in id
// order (edges pull in the vertices they need first), labels keep their
// interned ids, and properties are copied at append time so they land above
// the snapshot watermark. It turns any generated graph (e.g. gen.Pd) into
// an incremental ingest script with arbitrary commit points.
type Replayer struct {
	src   *graph.Graph
	g     *graph.Graph
	nextV int
	nextE int
}

// NewReplayer prepares a replay of src into a fresh graph. The source's
// dictionary is interned up front so label ids match the source exactly
// (prov.Wrap on the replica then resolves the same labels).
func NewReplayer(src *graph.Graph) *Replayer {
	g := graph.New()
	for l := 0; l < src.Dict().Len(); l++ {
		g.Dict().Intern(src.Dict().Name(graph.Label(l)))
	}
	return &Replayer{src: src, g: g}
}

// Graph returns the live replica.
func (r *Replayer) Graph() *graph.Graph { return r.g }

// StepEdges replays source edges [nextE, toEdge), first appending any
// vertices they reference. Calls with toEdge at or below the current
// position are no-ops, so arbitrary non-decreasing cut sequences are fine.
func (r *Replayer) StepEdges(toEdge int) {
	if toEdge > r.src.NumEdges() {
		toEdge = r.src.NumEdges()
	}
	for ; r.nextE < toEdge; r.nextE++ {
		e := graph.EdgeID(r.nextE)
		s, d := r.src.Src(e), r.src.Dst(e)
		need := int(s)
		if int(d) > need {
			need = int(d)
		}
		r.addVerticesThrough(need)
		id := r.g.AddEdge(s, d, r.src.EdgeLabel(e))
		r.src.EdgeProps(e, func(k string, v graph.Value) bool {
			r.g.SetEdgeProp(id, k, v)
			return true
		})
	}
}

// FinishVertices appends the source vertices no edge referenced (trailing
// isolated vertices), completing the replay.
func (r *Replayer) FinishVertices() {
	r.addVerticesThrough(r.src.NumVertices() - 1)
}

func (r *Replayer) addVerticesThrough(v int) {
	for ; r.nextV <= v; r.nextV++ {
		id := r.g.AddVertex(r.src.VertexLabel(graph.VertexID(r.nextV)))
		r.src.VertexProps(graph.VertexID(r.nextV), func(k string, val graph.Value) bool {
			r.g.SetVertexProp(id, k, val)
			return true
		})
	}
}
