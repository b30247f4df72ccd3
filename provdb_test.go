package provdb_test

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	provdb "repro"
	"repro/internal/prov"
)

func segmentNames(g *provdb.Graph, s *provdb.Segment) map[string]bool {
	out := make(map[string]bool, s.NumVertices())
	for _, v := range s.Vertices() {
		out[g.Name(v)] = true
	}
	return out
}

// TestFig2Queries reproduces the paper's worked segmentation queries
// (Fig. 2(d)): Q1 must show Alice's v2 trail (including the expanded
// update-v2 and model-v1, excluding everything of Bob's), Q2 must show
// Bob's v3 trail using Alice's original model.
func TestFig2Queries(t *testing.T) {
	g, names := provdb.Fig2Lifecycle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	seg1, err := g.Segment(provdb.Fig2Q1(names))
	if err != nil {
		t.Fatal(err)
	}
	got1 := segmentNames(g, seg1)
	for _, w := range []string{
		"dataset-v1", "weights-v2", "model-v2", "solver-v1",
		"logs-v2", "model-v1", "Alice",
	} {
		if !got1[w] {
			t.Errorf("Q1: missing %q (got %v)", w, got1)
		}
	}
	for _, w := range []string{"train-v2", "update-v2"} {
		if !seg1.Contains(names[w]) {
			t.Errorf("Q1: missing activity %s", w)
		}
	}
	for _, bad := range []string{"Bob", "solver-v2", "weights-v3", "weights-v1", "logs-v1", "logs-v3"} {
		if got1[bad] {
			t.Errorf("Q1: unexpectedly contains %q", bad)
		}
	}
	for _, bad := range []string{"train-v1", "train-v3", "update-v3"} {
		if seg1.Contains(names[bad]) {
			t.Errorf("Q1: unexpectedly contains activity %s", bad)
		}
	}

	seg2, err := g.Segment(provdb.Fig2Q2(names))
	if err != nil {
		t.Fatal(err)
	}
	got2 := segmentNames(g, seg2)
	for _, w := range []string{
		"dataset-v1", "logs-v3", "model-v1", "solver-v2",
		"weights-v3", "solver-v1", "Bob",
	} {
		if !got2[w] {
			t.Errorf("Q2: missing %q (got %v)", w, got2)
		}
	}
	for _, w := range []string{"train-v3", "update-v3"} {
		if !seg2.Contains(names[w]) {
			t.Errorf("Q2: missing activity %s", w)
		}
	}
	for _, bad := range []string{"model-v2", "weights-v2", "logs-v2", "weights-v1"} {
		if got2[bad] {
			t.Errorf("Q2: unexpectedly contains %q", bad)
		}
	}
	for _, bad := range []string{"train-v1", "train-v2", "update-v2"} {
		if seg2.Contains(names[bad]) {
			t.Errorf("Q2: unexpectedly contains activity %s", bad)
		}
	}
}

// TestFig2Summarization reproduces Query 3 (Fig. 2(e)): summarizing Q1 and
// Q2 with command/filename aggregation and 1-hop provenance types must
// merge the shared dataset and distinguish two provenance types for the
// update/model/solver classes.
func TestFig2Summarization(t *testing.T) {
	g, names := provdb.Fig2Lifecycle()
	seg1, err := g.Segment(provdb.Fig2Q1(names))
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := g.Segment(provdb.Fig2Q2(names))
	if err != nil {
		t.Fatal(err)
	}
	psg, err := provdb.Summarize([]*provdb.Segment{seg1, seg2}, provdb.Fig2Q3Options())
	if err != nil {
		t.Fatal(err)
	}
	if psg.InputVertices != seg1.NumVertices()+seg2.NumVertices() {
		t.Fatalf("input vertices %d", psg.InputVertices)
	}
	if len(psg.Nodes) >= psg.InputVertices {
		t.Errorf("no compaction: %d nodes from %d inputs", len(psg.Nodes), psg.InputVertices)
	}
	// The two trains (same command, same 1-hop shape: 3 used, 2 generated)
	// must merge; dataset occurrences must merge; there must be at least
	// one 100%-frequency edge (train->dataset appears in both segments).
	var mergedAcross int
	for _, n := range psg.Nodes {
		segs := map[int]bool{}
		for _, m := range n.Members {
			segs[m[0]] = true
		}
		if len(segs) == 2 {
			mergedAcross++
		}
	}
	if mergedAcross == 0 {
		t.Error("no node merged occurrences across the two segments")
	}
	full := 0
	for _, e := range psg.Edges {
		if e.Freq == 1 {
			full++
		}
	}
	if full == 0 {
		t.Error("no edge with frequency 1 (dataset is shared by both trails)")
	}
	// Rendering sanity.
	var buf bytes.Buffer
	psg.Render(&buf)
	if !strings.Contains(buf.String(), "cr=") {
		t.Error("Render output missing compaction ratio")
	}
}

// TestFig3SimilarPaths reproduces the Fig. 3 scenario: with Vsrc={m3} and
// Vdst={p4}, the similar-path rule must pull in the parallel adjustment
// round (m2/w2/l2 side) even though it is not on the direct path.
func TestFig3SimilarPaths(t *testing.T) {
	g, names := provdb.Fig3Project()
	seg, err := g.Segment(provdb.Query{
		Src: []provdb.VertexID{names["m3"]},
		Dst: []provdb.VertexID{names["p4"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := segmentNames(g, seg)
	// Direct path: p4 <- compare <- p3 <- plot <- w3 <- train <- m3.
	// Similar paths at matching depths: the other round through p2/w2/m2
	// and the datasets d1/d2.
	for _, w := range []string{"p4-v1", "p3-v1", "p2-v1", "w3-v1", "w2-v1", "model3-v1", "model2-v1", "d1-v1", "d2-v1"} {
		if !got[w] {
			t.Errorf("missing %q; segment: %v", w, got)
		}
	}
	// l2/l3 are siblings (VC3).
	for _, w := range []string{"l2-v1", "l3-v1"} {
		if !got[w] {
			t.Errorf("missing sibling %q", w)
		}
	}
}

// TestSaveLoadRoundTrip exercises persistence through the public API.
func TestSaveLoadRoundTrip(t *testing.T) {
	g, names := provdb.Fig2Lifecycle()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := provdb.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip size mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g.NumVertices(), g2.NumEdges(), g.NumEdges())
	}
	// The same query must give the same segment on the loaded graph.
	s1, err := g.Segment(provdb.Fig2Q1(names))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := g2.Segment(provdb.Fig2Q1(names))
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumVertices() != s2.NumVertices() || s1.NumEdges() != s2.NumEdges() {
		t.Fatalf("segment mismatch after roundtrip")
	}
}

// TestLoadRefusesMistypedGraph: Load checks the PROV schema, which PgSeg's
// closures rely on when they follow only the rows a vertex's kind can have.
func TestLoadRefusesMistypedGraph(t *testing.T) {
	g, _ := provdb.Fig2Lifecycle()
	p := g.Prov()
	ents := p.Entities()
	p.PG().AddEdge(ents[0], ents[1], p.RelLabel(prov.RelUsed))
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := provdb.Load(&buf); err == nil || !strings.Contains(err.Error(), "used requires A -> E") {
		t.Fatalf("Load of an entity->entity U edge: %v, want its typing error", err)
	}
}

// TestJSONRoundTrip exercises the PROV-JSON interchange.
func TestJSONRoundTrip(t *testing.T) {
	g, _ := provdb.Fig2Lifecycle()
	var buf bytes.Buffer
	if err := g.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := provdb.ImportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("json roundtrip mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g.NumVertices(), g2.NumEdges(), g.NumEdges())
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCypherFacade runs a query through the public Cypher surface.
func TestCypherFacade(t *testing.T) {
	g, names := provdb.Fig2Lifecycle()
	res, err := g.Cypher("match (a:A)-[:S]->(u:U) return id(a), id(u)", provdb.CypherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 activities each associated with one agent.
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 association rows, got %d", len(res.Rows))
	}
	_ = names
}

// TestPdSdGenerators sanity-checks the public generator surface.
func TestPdSdGenerators(t *testing.T) {
	g := provdb.GeneratePd(provdb.PdConfig{N: 500, Seed: 42})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	if n < 400 || n > 600 {
		t.Errorf("Pd size off target: %d", n)
	}
	src, dst := provdb.DefaultPdQuery(g)
	seg, err := g.Segment(provdb.Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumVertices() == 0 {
		t.Error("empty segment on Pd")
	}

	sg, segs := provdb.GenerateSd(provdb.SdConfig{Segments: 5, Seed: 7})
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("want 5 segments, got %d", len(segs))
	}
	psg, err := provdb.Summarize(segs, provdb.SdSumOptions())
	if err != nil {
		t.Fatal(err)
	}
	pcr := provdb.PSumBaseline(segs, provdb.SdSumOptions().K)
	if psg.CompactionRatio() > pcr {
		t.Errorf("PgSum (cr=%.3f) should compact at least as well as pSum (cr=%.3f)",
			psg.CompactionRatio(), pcr)
	}
}

// quarantined is a property-filtered boundary: it excludes every vertex
// whose "quarantined" property is true.
var quarantined = provdb.Boundary{VertexFilters: []provdb.VertexFilter{
	func(p *prov.Graph, v provdb.VertexID) bool {
		b, _ := p.PG().VertexProp(v, "quarantined").BoolVal()
		return !b
	},
}}

// TestSetPropAfterSegment: a SetProp on a vertex an earlier Segment covered
// reaches Prop and the next property-filtered Segment, which both equal a
// graph that had the property from the start, while the earlier segment
// keeps the properties of the snapshot it was solved on.
func TestSetPropAfterSegment(t *testing.T) {
	g, names := provdb.Fig2Lifecycle()
	q := provdb.Fig2Q1(names)
	before, err := g.Segment(q)
	if err != nil {
		t.Fatal(err)
	}
	v := names["update-v2"]
	if !before.Contains(v) {
		t.Fatal("Q1 does not cover update-v2: the write would not be below the snapshot")
	}
	g.SetProp(v, "quarantined", provdb.Bool(true))

	ref, refNames := provdb.Fig2Lifecycle()
	ref.SetProp(refNames["update-v2"], "quarantined", provdb.Bool(true))

	if got, want := g.Prop(v, "quarantined"), ref.Prop(refNames["update-v2"], "quarantined"); got != want || got != provdb.Bool(true) {
		t.Fatalf("Prop after the write = %v, a graph that had it from the start reads %v", got, want)
	}
	fq, rq := q, provdb.Fig2Q1(refNames)
	fq.Boundary.VertexFilters, rq.Boundary.VertexFilters = quarantined.VertexFilters, quarantined.VertexFilters
	got, err := g.Segment(fq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Segment(rq)
	if err != nil {
		t.Fatal(err)
	}
	if got.Contains(v) {
		t.Error("the filtered Segment kept the quarantined vertex")
	}
	if !slices.Equal(got.VertexRuns, want.VertexRuns) || !slices.Equal(got.EdgeRuns, want.EdgeRuns) || !slices.Equal(got.Rules, want.Rules) {
		t.Errorf("filtered Segment after the write: %v, from the start: %v", got.VertexRuns, want.VertexRuns)
	}
	if !before.P.PG().VertexProp(v, "quarantined").IsZero() {
		t.Error("the segment solved before the write sees the write")
	}

	// A snapshot the facade does not hold (here one taken through Prov)
	// covers the vertex too: SetProp still writes it, and reads see it.
	h, hNames := provdb.Fig2Lifecycle()
	h.Prov().Freeze()
	h.SetProp(hNames["update-v2"], "quarantined", provdb.Bool(true))
	if got := h.Prop(hNames["update-v2"], "quarantined"); got != provdb.Bool(true) {
		t.Fatalf("Prop after a write below a snapshot taken through Prov = %v", got)
	}
	hq := provdb.Fig2Q1(hNames)
	hq.Boundary.VertexFilters = quarantined.VertexFilters
	hseg, err := h.Segment(hq)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hseg.VertexRuns, want.VertexRuns) || !slices.Equal(hseg.EdgeRuns, want.EdgeRuns) {
		t.Errorf("filtered Segment after a write below a snapshot taken through Prov: %v, from the start: %v", hseg.VertexRuns, want.VertexRuns)
	}
}

// TestConcurrentReadsAfterWrite: the first reads after a write refresh the
// facade's snapshot; eight goroutines doing so at once (run it under -race)
// all get the answers of a sequential read.
func TestConcurrentReadsAfterWrite(t *testing.T) {
	g := provdb.GeneratePd(provdb.PdConfig{N: 400, Seed: 3})
	src, dst := provdb.DefaultPdQuery(g)
	if _, err := g.Segment(provdb.Query{Src: src, Dst: dst}); err != nil {
		t.Fatal(err)
	}
	_, outs := g.Run("carol", "retrain", dst, []string{"weights-late"})
	q := provdb.Query{Src: src, Dst: outs}
	const text = "match (a:A)-[:S]->(u:U) return id(a), id(u)"
	type answer struct {
		vertices []provdb.VertexID
		rows     int
	}
	read := func() (answer, error) {
		seg, err := g.Segment(q)
		if err != nil {
			return answer{}, err
		}
		res, err := g.Cypher(text, provdb.CypherOptions{})
		if err != nil {
			return answer{}, err
		}
		return answer{seg.Vertices(), len(res.Rows)}, nil
	}
	got := make([]answer, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = read()
		}()
	}
	wg.Wait()
	want, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(want.vertices, outs[0]) {
		t.Fatal("the sequential Segment does not see the write")
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !slices.Equal(got[i].vertices, want.vertices) || got[i].rows != want.rows {
			t.Errorf("goroutine %d: %d vertices, %d rows; sequential %d, %d", i, len(got[i].vertices), got[i].rows, len(want.vertices), want.rows)
		}
	}
}

// TestAdjustExpandAfterWrite: a segment solved before a write, grown by an
// expansion around what the write added, renders the added activity and its
// edges: the adjusted segment is over the snapshot the expansion read.
func TestAdjustExpandAfterWrite(t *testing.T) {
	g, names := provdb.Fig2Lifecycle()
	seg, err := g.Segment(provdb.Fig2Q1(names))
	if err != nil {
		t.Fatal(err)
	}
	eval, outs := g.Run("Alice", "evaluate", []provdb.VertexID{names["weight-v2"]}, []string{"score"})
	adj, err := g.AdjustExpand(seg, provdb.Expansion{Within: outs, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	adj.Render(&b)
	if !adj.Contains(eval) || !strings.Contains(b.String(), "evaluate -[U]-> weights-v2") {
		t.Fatalf("the expansion around the new output is missing from\n%s", b.String())
	}
}

// TestNewSegmentRefusesOutOfRange: a vertex id the graph does not have is
// refused with an error naming it, and the graph's own ids still build the
// segment.
func TestNewSegmentRefusesOutOfRange(t *testing.T) {
	g := provdb.New()
	x := g.Import("alice", "data", "s3://data")
	seg, err := g.NewSegment([]provdb.VertexID{x, 999})
	if err == nil || seg != nil || !strings.Contains(err.Error(), "segment vertex 999 out of range") {
		t.Fatalf("NewSegment with vertex 999 of %d: segment %v, err %v", g.NumVertices(), seg, err)
	}
	seg, err = g.NewSegment([]provdb.VertexID{x})
	if err != nil || seg.NumVertices() != 1 {
		t.Fatalf("NewSegment of the graph's own vertex: %v, %v", seg, err)
	}
}
