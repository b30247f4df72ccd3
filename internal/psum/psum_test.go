package psum_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/psum"
)

func TestPSumBasics(t *testing.T) {
	_, segs := gen.Sd(gen.SdConfig{Alpha: 0.1, Activities: 10, Segments: 5, Seed: 1})
	res := psum.Summarize(segs, psum.Options{K: gen.SdSumOptions().K})
	if res.InputVertices == 0 {
		t.Fatal("no input vertices")
	}
	if res.Nodes <= 0 || res.Nodes > res.InputVertices {
		t.Fatalf("node count %d out of range (inputs %d)", res.Nodes, res.InputVertices)
	}
	cr := res.CompactionRatio()
	if cr <= 0 || cr > 1 {
		t.Fatalf("cr %v out of range", cr)
	}
	// Every occurrence is classified.
	total := 0
	for _, s := range segs {
		total += s.NumVertices()
	}
	if len(res.Classes) != total {
		t.Fatalf("classified %d of %d occurrences", len(res.Classes), total)
	}
}

// TestPSumMergesOnlySameLabel: merged occurrences always share their
// aggregated label (kind + kept properties).
func TestPSumMergesOnlySameLabel(t *testing.T) {
	g, segs := gen.Sd(gen.SdConfig{Alpha: 0.05, Activities: 8, Segments: 4, Seed: 2})
	opts := psum.Options{K: gen.SdSumOptions().K}
	res := psum.Summarize(segs, opts)
	byClass := map[int]map[string]bool{}
	for occ, cl := range res.Classes {
		if byClass[cl] == nil {
			byClass[cl] = map[string]bool{}
		}
		v := graph.VertexID(occ[1])
		kind := g.KindOf(v).String()
		cmd := g.PG().VertexProp(v, "command").AsString()
		byClass[cl][kind+"|"+cmd] = true
	}
	for cl, labels := range byClass {
		if len(labels) > 1 {
			t.Fatalf("class %d mixes labels %v", cl, labels)
		}
	}
}

// TestPSumPreservesKeywordPaths: on identical segments every vertex class
// collapses across segments, so the summary is no larger than one segment
// plus the keyword pair.
func TestPSumIdenticalSegments(t *testing.T) {
	g := core.NewSegment // silence unused import when core usage changes
	_ = g
	_, segs := gen.Sd(gen.SdConfig{Alpha: 0.01, Activities: 6, Segments: 2, Seed: 3})
	res := psum.Summarize(segs, psum.Options{K: gen.SdSumOptions().K})
	if res.CompactionRatio() > 0.95 {
		t.Errorf("near-identical segments produced no compaction: cr=%.3f", res.CompactionRatio())
	}
}
