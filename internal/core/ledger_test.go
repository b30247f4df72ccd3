package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/prov"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const ledgerGolden = "testdata/row_ledger.golden"

// TestSegmentRowLedger pins the relation rows each query of a fixed set
// fetches, per relation and direction, and the edge entries its induce
// steps read (one scan of the edge columns each), as its request record
// (core.Work) counts them: the first 16 seg_cold pool queries at Pd-20000,
// the same draw on a permuted Pd-2000, pool query 0 under ExcludeRels
// {D, A} with an expansion, then grown by AdjustExpand, one sum_pd-shaped
// /summarize request (two Pd-2000 solves and PgSum on one record, with
// PgSum's simulations, Kahn sorts, phase scans, simulation pairs tested and
// arc walks) and a query per segment
// of an Sd graph, from its first vertex to its last. The counts do not depend on the
// host or on the worker count, so any change fails here. A change that is
// meant regenerates the golden file with
//
//	go test -run TestSegmentRowLedger ./internal/core -update
//
// and says why in its description.
func TestSegmentRowLedger(t *testing.T) {
	var b strings.Builder
	fmt.Fprintln(&b, "# Relation rows fetched per query (rel.in / rel.out); see TestSegmentRowLedger.")
	fmt.Fprintln(&b, "# induce=ENTRIES: the edge entries induce's scans of the edge columns read.")
	line := func(name string, w *core.Work) int {
		rows, total := w.Rows, 0
		fmt.Fprint(&b, name)
		for r, n := range rows {
			for d, dir := range [2]string{"in", "out"} {
				if n[d] != 0 {
					fmt.Fprintf(&b, " %v.%s=%d", prov.Rel(r), dir, n[d])
					total += n[d]
				}
			}
		}
		if w.Sims+w.Topos+w.Phases != 0 {
			fmt.Fprintf(&b, " total=%d sims=%d topos=%d phases=%d pairs=%d walks=%d", total, w.Sims, w.Topos, w.Phases, w.SimPairs, w.SimWalks)
		} else {
			fmt.Fprintf(&b, " total=%d", total)
		}
		fmt.Fprintf(&b, " induce=%d\n", w.EdgeEntries)
		return total
	}
	segment := func(w *core.Work, eng *core.Engine, q core.Query) *core.Segment {
		seg, err := eng.SegmentWork(w, q)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}

	eng, qs := pdPoolQueries(t, 20000, 16)
	pool := 0
	for i, q := range qs {
		w := new(core.Work)
		segment(w, eng, q)
		pool += line(fmt.Sprintf("Pd-20000/%02d", i), w)
	}
	fmt.Fprintf(&b, "Pd-20000 pool total=%d\n", pool)
	q := qs[0]
	ex := core.Expansion{Within: q.Dst, K: 3}
	q.Boundary = core.Boundary{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAttr}, Expansions: []core.Expansion{ex}}
	w := new(core.Work)
	seg := segment(w, eng, q)
	line("Pd-20000/00/exclude-D-A/expand-3", w)
	w = new(core.Work)
	if _, err := eng.AdjustExpandWork(w, seg, ex); err != nil {
		t.Fatal(err)
	}
	line("Pd-20000/00/exclude-D-A/adjust-expand-3", w)

	small, qs := pdPoolQueries(t, 2000, 16)
	pp, perm, _ := permute(small.P, 1)
	eng = core.NewEngine(pp.Freeze(), core.Options{})
	for i, q := range qs {
		w := new(core.Work)
		segment(w, eng, core.Query{Src: mapIDs(perm, q.Src), Dst: mapIDs(perm, q.Dst)})
		line(fmt.Sprintf("Pd-2000/permuted/%02d", i), w)
	}

	eng, qs = pdWideQueries(t, 2000, 2)
	w = new(core.Work)
	segs := []*core.Segment{segment(w, eng, qs[0]), segment(w, eng, qs[1])}
	if _, err := core.SummarizeWork(w, segs, pdSumOptions); err != nil {
		t.Fatal(err)
	}
	line("Pd-2000/summarize-x2", w)

	sd, sdSegs := gen.Sd(gen.SdConfig{Seed: 3})
	eng, sdTotal := core.NewEngine(sd.Freeze(), core.Options{}), 0
	for i, s := range sdSegs {
		w := new(core.Work)
		segment(w, eng, core.Query{Src: s.Vertices()[:1], Dst: s.Vertices()[len(s.Vertices())-1:]})
		sdTotal += line(fmt.Sprintf("Sd/%02d", i), w)
	}
	fmt.Fprintf(&b, "Sd total=%d\n", sdTotal)

	got := b.String()
	if *update {
		if err := os.WriteFile(ledgerGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
