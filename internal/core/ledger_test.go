package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prov"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const ledgerGolden = "testdata/row_ledger.golden"

// TestSegmentRowLedger pins the relation rows each query of a fixed set
// fetches, per relation and direction: the first 16 seg_cold pool queries
// at Pd-20000, the same draw on a permuted Pd-2000, and pool query 0 under
// ExcludeRels {D, A} with an expansion, then grown by AdjustExpand. Row
// counts do not depend on the host or on the worker count, so any change
// fails here. A change that is meant regenerates the golden file with
//
//	go test -run TestSegmentRowLedger ./internal/core -update
//
// and says why in its description.
func TestSegmentRowLedger(t *testing.T) {
	var b strings.Builder
	fmt.Fprintln(&b, "# Relation rows fetched per query (rel.in / rel.out); see TestSegmentRowLedger.")
	line := func(name string, rows core.RowCounts) int {
		total := 0
		fmt.Fprint(&b, name)
		for r, n := range rows {
			for d, dir := range [2]string{"in", "out"} {
				if n[d] != 0 {
					fmt.Fprintf(&b, " %v.%s=%d", prov.Rel(r), dir, n[d])
					total += n[d]
				}
			}
		}
		fmt.Fprintf(&b, " total=%d\n", total)
		return total
	}
	segment := func(eng *core.Engine, q core.Query) *core.Segment {
		seg, err := eng.Segment(q)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}

	eng, qs := pdPoolQueries(t, 20000, 16)
	pool := 0
	for i, q := range qs {
		pool += line(fmt.Sprintf("Pd-20000/%02d", i), segment(eng, q).RowReads())
	}
	fmt.Fprintf(&b, "Pd-20000 pool total=%d\n", pool)
	q := qs[0]
	ex := core.Expansion{Within: q.Dst, K: 3}
	q.Boundary = core.Boundary{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAttr}, Expansions: []core.Expansion{ex}}
	seg := segment(eng, q)
	line("Pd-20000/00/exclude-D-A/expand-3", seg.RowReads())
	adj, err := eng.AdjustExpand(seg, ex)
	if err != nil {
		t.Fatal(err)
	}
	line("Pd-20000/00/exclude-D-A/adjust-expand-3", adj.RowReads())

	small, qs := pdPoolQueries(t, 2000, 16)
	pp, perm, _ := permute(small.P, 1)
	eng = core.NewEngine(pp.Freeze(), core.Options{})
	for i, q := range qs {
		line(fmt.Sprintf("Pd-2000/permuted/%02d", i), segment(eng, core.Query{Src: mapIDs(perm, q.Src), Dst: mapIDs(perm, q.Dst)}).RowReads())
	}

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
