// Package difftest is the differential-testing harness that gates the
// incremental epoch snapshots (graph.ExtendFrozen): it replays randomized
// ingest scripts and asserts, at every epoch, that the incrementally
// extended snapshot is indistinguishable from a full Freeze rebuild —
// identical per-label rows, dictionary and label-index contents, and identical core.Segment results for randomized
// queries — and that both snapshots' rows are the naive rows of the edge
// columns (rowOracle).
//
// The checks are plain functions returning errors (no *testing.T) so the
// same script runners back table tests, property-based loops over many
// seeds, and native fuzz targets.
package difftest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
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
// and edge appends over a growing label set, with properties of every kind,
// sparse keys, many keys on one element and keys set twice in a batch —
// derived deterministically from seed, freezing after every batch, and
// diffs the incremental snapshot chain against full rebuilds. At every
// epoch every property read is compared with a map oracle on the live
// graph, on each snapshot taken so far, on a replica fed the batch through
// EncodeDelta/ApplyDelta, and after Save/Load (all of which must save to
// the same bytes). opsPerEpoch bounds the batch size; epochs is the number
// of commit points.
func CheckGraphScript(seed int64, opsPerEpoch, epochs int) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	labels := []graph.Label{g.Dict().Intern("l0")}
	oracle := &propOracle{}
	replica := graph.New()
	replica.Dict().Intern("l0")
	var prev *graph.Graph
	var snaps []*graph.Graph
	var res Result
	for ep := 0; ep < epochs; ep++ {
		baseDict, baseV, baseE := g.Dict().Len(), g.NumVertices(), g.NumEdges()
		n := 1 + rng.Intn(opsPerEpoch)
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.05:
				labels = append(labels, g.Dict().Intern(fmt.Sprintf("l%d", len(labels))))
			case r < 0.45 || g.NumVertices() < 2:
				v := g.AddVertex(labels[rng.Intn(len(labels))])
				setRandomProps(rng, g, oracle, true, int(v))
			default:
				src := graph.VertexID(rng.Intn(g.NumVertices()))
				dst := graph.VertexID(rng.Intn(g.NumVertices()))
				e := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
				setRandomProps(rng, g, oracle, false, int(e))
			}
		}
		resetSome(rng, g, oracle, baseV, baseE)
		// The delta is encoded before the freeze on even epochs (its
		// properties still in the live tail's maps) and after it on odd
		// ones (packed).
		var delta bytes.Buffer
		encode := func() error { return g.EncodeDelta(&delta, baseDict, baseV, baseE) }
		if ep%2 == 0 {
			if err := encode(); err != nil {
				return res, err
			}
		}
		// Before the freeze the batch's properties are read from the
		// live graph's unfrozen tail.
		if err := oracle.DiffProps(g); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: live graph before the freeze: %w", seed, ep, err)
		}
		full := g.Freeze()
		incr, inc := g.ExtendFrozen(prev)
		res.Epochs++
		if inc {
			res.Incremental++
		}
		if ep%2 == 1 {
			if err := encode(); err != nil {
				return res, err
			}
		}
		if err := DiffSnapshots(full, incr); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
		}
		if err := replica.ApplyDelta(&delta); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: apply delta: %w", seed, ep, err)
		}
		snaps = append(snaps, full, incr)
		if err := diffEpochProps(oracle, g, replica, snaps); err != nil {
			return res, fmt.Errorf("seed %d epoch %d: %w", seed, ep, err)
		}
		if rng.Intn(2) == 0 {
			replica.Freeze()
		}
		prev = incr
	}
	return res, nil
}

// diffEpochProps compares the property reads of the live graph, a replica
// of it, and every snapshot taken so far with the oracle, and requires the
// live graph, the replica and the newest snapshot to save (and load) alike.
func diffEpochProps(o *propOracle, live, replica *graph.Graph, snaps []*graph.Graph) error {
	for name, g := range map[string]*graph.Graph{"live": live, "replica": replica} {
		if err := o.DiffProps(g); err != nil {
			return fmt.Errorf("%s graph: %w", name, err)
		}
	}
	for i, s := range snaps {
		if err := o.DiffProps(s); err != nil {
			return fmt.Errorf("snapshot %d of %d: %w", i, len(snaps), err)
		}
	}
	return o.diffSavedProps(live, replica, snaps[len(snaps)-1])
}

// CheckProvScript generates a lifecycle provenance graph (gen.Pd) of about
// size vertices, replays it into a fresh graph in randomized edge batches,
// and at every epoch diffs a full rebuild with the incremental chain's
// snapshot (DiffSnapshots), compares the property reads of the live replica
// and of every snapshot so far with the source's, and runs queries
// randomized PgSeg queries against both (DiffSegments).
func CheckProvScript(seed int64, size, epochs, queries int) (Result, error) {
	return checkChainScript(seed, size, epochs, queries, DiffSegments, nil)
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
// indistinguishable: same shape, dictionary, label index and vertex labels,
// and, for both, every label's rows in both directions and the per-label edge counts of the edge columns (rowOracle).
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
		fv, iv := full.VerticesWithLabel(graph.Label(l)), incr.VerticesWithLabel(graph.Label(l))
		if !slices.Equal(fv, iv) {
			return fmt.Errorf("label index %q mismatch: %v vs %v", fd.Name(graph.Label(l)), fv, iv)
		}
	}
	for v := 0; v < full.NumVertices(); v++ {
		if full.VertexLabel(graph.VertexID(v)) != incr.VertexLabel(graph.VertexID(v)) {
			return fmt.Errorf("vertex %d label mismatch", v)
		}
	}
	rows := rowsOf(full)
	if err := rows.diff(full); err != nil {
		return fmt.Errorf("full rebuild vs edge columns: %w", err)
	}
	if err := rows.diff(incr); err != nil {
		return fmt.Errorf("incremental snapshot vs edge columns: %w", err)
	}
	return nil
}

// DiffSegments evaluates the same PgSeg query against a full rebuild and
// the chain's snapshot of one graph state and asserts identical results —
// vertex set, edge set, rule attribution and revalidation support set —
// and identical ancestry closures in both directions under the query's
// boundary.
func DiffSegments(full, chain *prov.Graph, q core.Query) error {
	fullEng, chainEng := core.NewEngine(full, core.Options{}), core.NewEngine(chain, core.Options{})
	fs, ferr := fullEng.Segment(q)
	cs, cerr := chainEng.Segment(q)
	if (ferr == nil) != (cerr == nil) {
		return fmt.Errorf("error mismatch: rebuild %v vs chain %v", ferr, cerr)
	}
	if ferr != nil {
		if ferr.Error() != cerr.Error() {
			return fmt.Errorf("error text mismatch: %v vs %v", ferr, cerr)
		}
		return nil
	}
	if err := diffSegPair(fs, cs); err != nil {
		return err
	}
	for _, fwd := range []bool{true, false} {
		seeds := q.Dst
		if !fwd {
			seeds = q.Src
		}
		fl := fullEng.AncestryClosure(seeds, q.Boundary, fwd).ToSlice()
		cl := chainEng.AncestryClosure(seeds, q.Boundary, fwd).ToSlice()
		if !slices.Equal(fl, cl) {
			return fmt.Errorf("closure(fwd=%v) mismatch: rebuild %d vs chain %d vertices", fwd, len(fl), len(cl))
		}
	}
	return nil
}

// diffSegPair asserts two segments are identical in every externally
// observable dimension: vertex set, edge set, rule attribution, support set.
func diffSegPair(fs, is *core.Segment) error {
	if !slices.Equal(fs.VertexRuns, is.VertexRuns) {
		return fmt.Errorf("segment vertex runs mismatch: %v vs %v", fs.VertexRuns, is.VertexRuns)
	}
	if !slices.Equal(fs.EdgeRuns, is.EdgeRuns) {
		return fmt.Errorf("segment edge runs mismatch: %v vs %v", fs.EdgeRuns, is.EdgeRuns)
	}
	vs := fs.Vertices()
	if len(fs.Rules) != len(vs) || len(is.Rules) != len(vs) {
		return fmt.Errorf("segment Rules not parallel to the vertex runs: %d and %d rules for %d vertices", len(fs.Rules), len(is.Rules), len(vs))
	}
	for k, v := range vs {
		if fs.Rules[k] != is.Rules[k] {
			return fmt.Errorf("segment rule of vertex %d mismatch: %v vs %v", v, fs.Rules[k], is.Rules[k])
		}
	}
	if fsup, isup := fs.Support().ToSlice(), is.Support().ToSlice(); !slices.Equal(fsup, isup) {
		return fmt.Errorf("support sets mismatch: %d vs %d vertices", len(fsup), len(isup))
	}
	return nil
}
