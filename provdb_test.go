package provdb_test

import (
	"bytes"
	"strings"
	"testing"

	provdb "repro"
	"repro/internal/prov"
)

func segmentNames(g *provdb.Graph, s *provdb.Segment) map[string]bool {
	out := make(map[string]bool, len(s.Vertices))
	for _, v := range s.Vertices {
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
	if psg.InputVertices != len(seg1.Vertices)+len(seg2.Vertices) {
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
	if len(s1.Vertices) != len(s2.Vertices) || len(s1.Edges) != len(s2.Edges) {
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
