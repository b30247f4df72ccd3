package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// wholeSegment is the segment of every vertex of p for which keep is true
// (nil keeps them all) with every edge between them, its rules cycling
// through all of them so that every rule tail is rendered.
func wholeSegment(p *prov.Graph, keep func(v int) bool) *core.Segment {
	var vs []graph.VertexID
	for v := 0; v < p.NumVertices(); v++ {
		if keep == nil || keep(v) {
			vs = append(vs, graph.VertexID(v))
		}
	}
	seg := segmentOf(p, vs)
	for k := range seg.Rules {
		seg.Rules[k] = core.Rule(k % int(core.RuleC4+1))
	}
	return seg
}

// segmentOf is core.NewSegment over vertices of p's own, which it cannot
// refuse.
func segmentOf(p *prov.Graph, vs []graph.VertexID) *core.Segment {
	seg, err := core.NewSegment(p, vs)
	if err != nil {
		panic(err)
	}
	return seg
}

// extentOf is how many vertex and edge records the column holds.
func extentOf(col *replyColumn) [2]int {
	r := col.recs.Load()
	return [2]int{r.numVertices(), r.numEdges()}
}

func countsOf(p *prov.Graph) [2]int { return [2]int{p.NumVertices(), p.NumEdges()} }

// reachOf is the extent a reply of seg needs: one past its largest ids.
func reachOf(seg *core.Segment) [2]int {
	return [2]int{int(seg.Vertices[len(seg.Vertices)-1]) + 1, int(seg.Edges[len(seg.Edges)-1]) + 1}
}

// heldBytes is what the column holds: both arenas and both offset tables.
func heldBytes(col *replyColumn) int {
	r := col.recs.Load()
	return cap(r.verts) + cap(r.edges) + 4*(cap(r.vOff)+cap(r.eOff))
}

// within reports whether extent a is at most b in both counts.
func within(a, b [2]int) bool { return a[0] <= b[0] && a[1] <= b[1] }

// TestReplyColumn: one column serves every snapshot of its lineage. Eight
// epochs built by ExtendFrozen are read out of order, then by readers of
// different epochs extending the column at once (-race). Every reply is
// encoding/json's over the property maps, and a reader extends the column to
// the largest ids its reply names, never past its own snapshot.
func TestReplyColumn(t *testing.T) {
	p := prov.New()
	var snaps []*prov.Graph
	last := graph.VertexID(0)
	for epoch := 0; epoch < 8; epoch++ {
		for i := 0; i < 10; i++ {
			e := p.NewEntity("e" + strconv.Itoa(epoch*100+i))
			a := p.NewActivity("") // no name property at all
			u := p.NewAgent("x")
			p.PG().SetVertexProp(u, prov.PropName, graph.Int(int64(i))) // rendered by AsString
			o := p.NewEntity("x")
			p.PG().SetVertexProp(o, prov.PropName, graph.String(""))
			p.Used(a, e)
			if epoch+i > 0 {
				p.Used(a, last)
			}
			p.WasGeneratedBy(o, a)
			p.WasAssociatedWith(a, u)
			p.WasDerivedFrom(o, e)
			last = o
		}
		var prev *prov.Graph
		if epoch > 0 {
			prev = snaps[epoch-1]
		}
		fz, _ := p.ExtendFrozen(prev)
		snaps = append(snaps, fz)
	}
	// Per snapshot: the whole graph, and the vertices of the first two thirds
	// bar every third one (many short edge runs, none near the snapshot's end).
	segs := make([][]*core.Segment, len(snaps))
	want := make([][][]byte, len(snaps))
	for k, fz := range snaps {
		segs[k] = []*core.Segment{
			wholeSegment(fz, nil),
			wholeSegment(fz, func(v int) bool { return v%3 != 1 && v < 2*fz.NumVertices()/3 }),
		}
		for _, seg := range segs[k] {
			want[k] = append(want[k], oracleSegmentJSON(t, seg, false, ""))
		}
	}
	col := newReplyColumn()
	render := func(k, s int) error {
		var got bytes.Buffer
		if err := writeSegmentJSON(&got, col, segs[k][s].Pack(), false, ""); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want[k][s]) {
			return fmt.Errorf("snapshot %d segment %d: reply differs from encoding/json at byte %d", k, s, firstDiff(got.Bytes(), want[k][s]))
		}
		return nil
	}

	if err := render(3, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := extentOf(col), countsOf(snaps[3]); got != want {
		t.Fatalf("a reader at %v left the column at %v", want, got)
	}
	if err := render(1, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := extentOf(col), countsOf(snaps[3]); got != want {
		t.Fatalf("a reader of an older snapshot moved the column from %v to %v", want, got)
	}
	if err := render(7, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := extentOf(col), reachOf(segs[7][1]); got != want || !within(want, countsOf(snaps[7])) || within(got, countsOf(snaps[3])) {
		t.Fatalf("a reply reaching %v of a snapshot of %v left the column at %v", want, countsOf(snaps[7]), got)
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := range snaps {
				k := (i*3 + r*5) % len(snaps)
				if err := render(k, (i+r)%2); err != nil {
					t.Error(err)
					return
				}
				if ext := extentOf(col); !within(reachOf(segs[k][(i+r)%2]), ext) || !within(ext, countsOf(snaps[len(snaps)-1])) {
					t.Errorf("after a read reaching %v the column holds %v", reachOf(segs[k][(i+r)%2]), ext)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if err := render(len(snaps)-1, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := extentOf(col), countsOf(snaps[len(snaps)-1]); got != want {
		t.Fatalf("a whole-graph reply left the column at %v records for a newest snapshot of %v", got, want)
	}
}

// TestReplyColumnFootprint: the column built by a first read of a Pd graph
// is no larger than the whole-graph reply plus 4 B per vertex and edge id.
func TestReplyColumnFootprint(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 3000, Seed: 1}).Freeze()
	seg := wholeSegment(p, nil)
	col := newReplyColumn()
	var reply tally
	if err := writeSegmentJSON(&reply, col, seg.Pack(), false, ""); err != nil {
		t.Fatal(err)
	}
	held, bound := heldBytes(col), reply.n+4*(p.NumVertices()+p.NumEdges())
	if held > bound {
		t.Fatalf("Pd-3000: the column holds %d bytes, more than the whole-graph reply plus 4 B per id (%d)", held, bound)
	}
	t.Logf("Pd-3000: column %d bytes (%.1f per vertex + edge), whole-graph reply %d", held, float64(held)/float64(p.NumVertices()+p.NumEdges()), reply.n)
}

// TestReplyColumnOffCommitPath: ingests never touch the column. After a read
// builds it, N commits with no read in between hand the same column on and
// leave its length where the read left it; the next read of the new
// vertices extends it to them.
func TestReplyColumnOffCommitPath(t *testing.T) {
	ts, st, ids := newTestServer(t)
	read := func(dst graph.VertexID) *core.Segment {
		t.Helper()
		raw := postRaw(t, ts.URL+"/segment", stdJSON(t, SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(dst)}}))
		seg, hit, err := st.Segment(core.Query{Src: []graph.VertexID{ids["dataset"]}, Dst: []graph.VertexID{dst}}, core.Options{}, true)
		if err != nil || !hit {
			t.Fatalf("segment: hit=%v err=%v", hit, err)
		}
		diffBytes(t, fmt.Sprintf("dataset → %d at epoch %d", dst, st.Epoch().N), raw, oracleSegmentJSON(t, seg, false, ""))
		return seg
	}
	seg := read(ids["report"])
	col, built := st.Epoch().replies, reachOf(seg)
	if got := extentOf(col); got != built {
		t.Fatalf("a read reaching %v left the column at %v", built, got)
	}
	start := st.Epoch().N
	last := ids["report"]
	for i := 0; i < 20; i++ {
		var ing IngestResponse
		if err := json.Unmarshal(postRaw(t, ts.URL+"/ingest", stdJSON(t, IngestRequest{Ops: []IngestOp{
			{Op: "run", Agent: "carol", Command: "c" + strconv.Itoa(i), Inputs: []uint32{uint32(last)}, Outputs: []string{"out"}},
		}})), &ing); err != nil {
			t.Fatal(err)
		}
		last = graph.VertexID(ing.Results[0].Outputs[0])
	}
	ep := st.Epoch()
	if ep.N != start+20 || ep.replies != col {
		t.Fatalf("epoch %d → %d: the commits did not hand the column on", start, ep.N)
	}
	if got := extentOf(col); got != built {
		t.Fatalf("20 commits without a read moved the column from %v to %v", built, got)
	}
	seg = read(last)
	if got := extentOf(col); got != reachOf(seg) || got[0] != ep.Vertices {
		t.Fatalf("a read reaching %v of an epoch of %v left the column at %v", reachOf(seg), countsOf(ep.P), got)
	}
}

// BenchmarkReplyColumnBuild is a graph's first read: every vertex and edge
// record of Pd-20000 rendered into a fresh column through covering, the one
// place every record is formatted.
func BenchmarkReplyColumnBuild(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	seg := wholeSegment(gen.Pd(gen.PdConfig{N: n, Seed: 1}).Freeze(), nil).Pack()
	col := newReplyColumn()
	col.covering(seg)
	b.SetBytes(int64(heldBytes(col)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newReplyColumn().covering(seg)
	}
}
