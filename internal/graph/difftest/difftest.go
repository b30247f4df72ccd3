// Package difftest is the differential-testing harness that gates the
// incremental epoch snapshots (graph.ExtendFrozen): it replays randomized
// ingest scripts and asserts, at every epoch, that the incrementally
// extended snapshot is indistinguishable from a full Freeze rebuild —
// identical FrozenNeighbors rows, all-edge Out/In views, dictionary and
// label-index contents, and identical core.Segment results for randomized
// queries.
//
// The checks are plain functions returning errors (no *testing.T) so the
// same script runners back table tests, property-based loops over many
// seeds, and native fuzz targets.
package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Result summarizes one differential script run.
type Result struct {
	// Epochs is the number of snapshot pairs compared.
	Epochs int
	// Incremental counts epochs where ExtendFrozen took the incremental
	// path; the remainder fell back to a full rebuild (first epoch, or
	// oversized deltas).
	Incremental int
}

// CheckGraphScript replays a randomized graph-level ingest script — vertex
// and edge appends over a growing label set, with properties — derived
// deterministically from seed, freezing after every batch, and diffs the
// incremental snapshot chain against full rebuilds. opsPerEpoch bounds the
// batch size; epochs is the number of commit points.
func CheckGraphScript(seed int64, opsPerEpoch, epochs int) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	labels := []graph.Label{g.Dict().Intern("l0")}
	var prev *graph.Graph
	var res Result
	for ep := 0; ep < epochs; ep++ {
		n := 1 + rng.Intn(opsPerEpoch)
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.05:
				labels = append(labels, g.Dict().Intern(fmt.Sprintf("l%d", len(labels))))
			case r < 0.45 || g.NumVertices() < 2:
				v := g.AddVertex(labels[rng.Intn(len(labels))])
				if rng.Float64() < 0.3 {
					g.SetVertexProp(v, "p", graph.Int(rng.Int63n(100)))
				}
			default:
				src := graph.VertexID(rng.Intn(g.NumVertices()))
				dst := graph.VertexID(rng.Intn(g.NumVertices()))
				e := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
				if rng.Float64() < 0.2 {
					g.SetEdgeProp(e, "w", graph.Int(rng.Int63n(100)))
				}
			}
		}
		full := g.Freeze()
		incr, inc := g.ExtendFrozen(prev)
		res.Epochs++
		if inc {
			res.Incremental++
		}
		if err := DiffSnapshots(full, incr); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
		}
		prev = incr
	}
	return res, nil
}

// CheckProvScript generates a lifecycle provenance graph (gen.Pd) of about
// size vertices, replays it into a fresh graph in randomized edge batches,
// and at every epoch diffs the snapshots and additionally runs queries
// randomized PgSeg queries against both, asserting identical segments.
func CheckProvScript(seed int64, size, epochs, queries int) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	src := gen.Pd(gen.PdConfig{N: size, Seed: seed}).PG()
	rep := NewReplayer(src)
	// Wrapping the replica interns the PROV labels (a no-op id-wise: the
	// replayer pre-interned the source dictionary) so the snapshots below
	// can be wrapped without mutating state.
	prov.Wrap(rep.Graph())

	cuts := randomCuts(rng, src.NumEdges(), epochs)
	var prev *graph.Graph
	var res Result
	for ep, cut := range cuts {
		rep.StepEdges(cut)
		if ep == len(cuts)-1 {
			rep.FinishVertices()
		}
		full := rep.Graph().Freeze()
		incr, inc := rep.Graph().ExtendFrozen(prev)
		res.Epochs++
		if inc {
			res.Incremental++
		}
		if err := DiffSnapshots(full, incr); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
		}
		fullP, incrP := prov.Wrap(full), prov.Wrap(incr)
		for qi := 0; qi < queries; qi++ {
			q, ok := randomQuery(rng, fullP)
			if !ok {
				break
			}
			if err := DiffSegments(fullP, incrP, q); err != nil {
				return res, fmt.Errorf("seed %d epoch %d query %d: %w", seed, ep, qi, err)
			}
		}
		prev = incr
	}
	return res, nil
}

// randomCuts picks n increasing commit points over ne edges, ending at ne.
func randomCuts(rng *rand.Rand, ne, n int) []int {
	if n < 1 {
		n = 1
	}
	cuts := make([]int, 0, n)
	for i := 0; i < n-1; i++ {
		cuts = append(cuts, rng.Intn(ne+1))
	}
	cuts = append(cuts, ne)
	// Insertion sort: n is small and the cuts must be non-decreasing.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// randomQuery builds a randomized PgSeg query over the graph's current
// entities: 1-2 sources, 1-2 destinations, sometimes a relation-exclusion
// boundary or an expansion, covering the cached-query shapes the serving
// layer sees.
func randomQuery(rng *rand.Rand, p *prov.Graph) (core.Query, bool) {
	ents := p.Entities()
	if len(ents) < 2 {
		return core.Query{}, false
	}
	pick := func(n int) []graph.VertexID {
		out := make([]graph.VertexID, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, ents[rng.Intn(len(ents))])
		}
		return out
	}
	q := core.Query{Src: pick(1 + rng.Intn(2)), Dst: pick(1 + rng.Intn(2))}
	if rng.Float64() < 0.3 {
		q.Boundary.ExcludeRels = []prov.Rel{prov.Rel(rng.Intn(5))}
	}
	if rng.Float64() < 0.3 {
		q.Boundary.Expansions = []core.Expansion{{Within: pick(1), K: 1 + rng.Intn(3)}}
	}
	return q, true
}

// DiffSnapshots asserts two frozen snapshots of the same graph state are
// indistinguishable: same shape, dictionary, per-label edge counts, label
// index, all-edge Out/In views, and identical FrozenNeighbors rows for every
// vertex, label and direction.
func DiffSnapshots(full, incr *graph.Graph) error {
	if full.NumVertices() != incr.NumVertices() || full.NumEdges() != incr.NumEdges() {
		return fmt.Errorf("shape mismatch: full %d/%d vs incr %d/%d",
			full.NumVertices(), full.NumEdges(), incr.NumVertices(), incr.NumEdges())
	}
	fd, id := full.Dict(), incr.Dict()
	if fd.Len() != id.Len() {
		return fmt.Errorf("dict length mismatch: %d vs %d", fd.Len(), id.Len())
	}
	for l := 0; l < fd.Len(); l++ {
		if fd.Name(graph.Label(l)) != id.Name(graph.Label(l)) {
			return fmt.Errorf("dict[%d] mismatch: %q vs %q", l, fd.Name(graph.Label(l)), id.Name(graph.Label(l)))
		}
		if f, x := full.EdgesWithLabel(graph.Label(l)), incr.EdgesWithLabel(graph.Label(l)); f != x {
			return fmt.Errorf("edge count for %q mismatch: full %d vs incr %d", fd.Name(graph.Label(l)), f, x)
		}
		fv, iv := full.VerticesWithLabel(graph.Label(l)), incr.VerticesWithLabel(graph.Label(l))
		if !vertexSlicesEq(fv, iv) {
			return fmt.Errorf("label index %q mismatch: %v vs %v", fd.Name(graph.Label(l)), fv, iv)
		}
	}
	for v := 0; v < full.NumVertices(); v++ {
		id := graph.VertexID(v)
		if full.VertexLabel(id) != incr.VertexLabel(id) {
			return fmt.Errorf("vertex %d label mismatch", v)
		}
		if !edgeSlicesEq(full.Out(id), incr.Out(id)) {
			return fmt.Errorf("Out(%d) mismatch: %v vs %v", v, full.Out(id), incr.Out(id))
		}
		if !edgeSlicesEq(full.In(id), incr.In(id)) {
			return fmt.Errorf("In(%d) mismatch: %v vs %v", v, full.In(id), incr.In(id))
		}
		for l := 0; l < fd.Len(); l++ {
			for _, out := range []bool{true, false} {
				fn, fe, _ := full.FrozenNeighbors(id, graph.Label(l), out)
				xn, xe, _ := incr.FrozenNeighbors(id, graph.Label(l), out)
				if !vertexSlicesEq(fn, xn) || !edgeSlicesEq(fe, xe) {
					return fmt.Errorf("FrozenNeighbors(%d, %q, out=%v) mismatch: (%v,%v) vs (%v,%v)",
						v, fd.Name(graph.Label(l)), out, fn, fe, xn, xe)
				}
			}
		}
	}
	return nil
}

// DiffSegments evaluates the same PgSeg query against both snapshots and
// asserts identical results: vertex set, edge set, rule attribution and
// revalidation support set.
func DiffSegments(fullP, incrP *prov.Graph, q core.Query) error {
	fs, ferr := core.NewEngine(fullP, core.Options{}).Segment(q)
	is, ierr := core.NewEngine(incrP, core.Options{}).Segment(q)
	if (ferr == nil) != (ierr == nil) {
		return fmt.Errorf("error mismatch: full %v vs incr %v", ferr, ierr)
	}
	if ferr != nil {
		if ferr.Error() != ierr.Error() {
			return fmt.Errorf("error text mismatch: %v vs %v", ferr, ierr)
		}
		return nil
	}
	return diffSegPair(fs, is)
}

// diffSegPair asserts two segments are identical in every externally
// observable dimension: vertex set, edge set, rule attribution, support set.
func diffSegPair(fs, is *core.Segment) error {
	if !vertexSlicesEq(fs.Vertices, is.Vertices) {
		return fmt.Errorf("segment vertices mismatch: %v vs %v", fs.Vertices, is.Vertices)
	}
	if !edgeSlicesEq(fs.Edges, is.Edges) {
		return fmt.Errorf("segment edges mismatch: %v vs %v", fs.Edges, is.Edges)
	}
	if len(fs.Rules) != len(fs.Vertices) || len(is.Rules) != len(is.Vertices) {
		return fmt.Errorf("segment Rules not parallel to Vertices: %d/%d vs %d/%d", len(fs.Rules), len(fs.Vertices), len(is.Rules), len(is.Vertices))
	}
	for i, v := range fs.Vertices {
		if fs.Rules[i] != is.Rules[i] {
			return fmt.Errorf("segment rule of vertex %d mismatch: %v vs %v", v, fs.Rules[i], is.Rules[i])
		}
	}
	fsup, isup := fs.Support().ToSlice(), is.Support().ToSlice()
	if len(fsup) != len(isup) {
		return fmt.Errorf("support size mismatch: %d vs %d", len(fsup), len(isup))
	}
	for i := range fsup {
		if fsup[i] != isup[i] {
			return fmt.Errorf("support mismatch at %d: %d vs %d", i, fsup[i], isup[i])
		}
	}
	return nil
}

func vertexSlicesEq(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func edgeSlicesEq(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
