package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// --- the oracle: the retired production path ---
//
// encodeSegment / encodePsg build the wire structs by append and hand them
// to reflection encoding/json, exactly as the handlers did before the
// streaming writer. They live on here as what the writer's bytes are
// compared against.

// encodeSegment renders a segment into the wire response.
func encodeSegment(p *prov.Graph, seg *core.Segment, cached bool) *SegmentResponse {
	resp := &SegmentResponse{
		NumVertices: seg.NumVertices(),
		NumEdges:    seg.NumEdges(),
		Cached:      cached,
	}
	g := p.PG()
	for i, v := range seg.Vertices {
		resp.Vertices = append(resp.Vertices, VertexInfo{
			ID:   uint32(v),
			Kind: p.KindOf(v).String(),
			Name: p.Name(v),
			Rule: seg.Rules[i].String(),
		})
	}
	for _, e := range seg.Edges {
		resp.Edges = append(resp.Edges, EdgeInfo{
			ID:  uint32(e),
			Src: uint32(g.Src(e)),
			Dst: uint32(g.Dst(e)),
			Rel: p.RelOf(e).String(),
		})
	}
	return resp
}

// encodePsg renders a summary graph's nodes and edges into the wire
// response.
func encodePsg(psg *core.Psg, resp *SummarizeResponse) {
	resp.Nodes = make([]PsgNodeInfo, 0, len(psg.Nodes))
	for _, n := range psg.Nodes {
		resp.Nodes = append(resp.Nodes, PsgNodeInfo{Label: n.Label, Members: len(n.Members)})
	}
	resp.Edges = make([]PsgEdgeInfo, 0, len(psg.Edges))
	for _, e := range psg.Edges {
		resp.Edges = append(resp.Edges, PsgEdgeInfo{From: e.From, To: e.To, Rel: e.Rel.String(), Freq: e.Freq})
	}
}

// stdJSON is writeJSON's body: json.Encoder, SetEscapeHTML(false).
func stdJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleSegmentJSON is the old handlers' reply for a segment.
func oracleSegmentJSON(t testing.TB, seg *core.Segment, cached bool, dot string) []byte {
	t.Helper()
	if dot != "" {
		return stdJSON(t, &SegmentResponse{NumVertices: seg.NumVertices(), NumEdges: seg.NumEdges(), Cached: cached, DOT: dot})
	}
	return stdJSON(t, encodeSegment(seg.P, seg, cached))
}

// oraclePsgJSON is the old handler's reply for a summary graph.
func oraclePsgJSON(t testing.TB, psg *core.Psg, dot string) []byte {
	t.Helper()
	resp := &SummarizeResponse{InputVertices: psg.InputVertices, Segments: psg.Segments, CompactionRatio: psg.CompactionRatio(), DOT: dot}
	if dot == "" {
		encodePsg(psg, resp)
	}
	return stdJSON(t, resp)
}

func diffSegmentReply(t *testing.T, tag string, col *replyColumn, seg *core.Segment, cached bool, dot string) {
	t.Helper()
	var got bytes.Buffer
	if err := writeSegmentJSON(&got, col, seg.Pack(), cached, dot); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	diffBytes(t, tag, got.Bytes(), oracleSegmentJSON(t, seg, cached, dot))
}

// diffNamedSegments diffs the reply for a segment of entities with the given
// names, rendered uncached and cached, each through a column of its own.
func diffNamedSegments(t *testing.T, tag string, names ...string) {
	t.Helper()
	p := prov.New()
	var vs []graph.VertexID
	for _, name := range names {
		vs = append(vs, p.NewEntity(name))
	}
	fz := p.Freeze()
	diffSegmentReply(t, tag+" (uncached)", newReplyColumn(), segmentOf(fz, vs), false, "")
	diffSegmentReply(t, tag+" (cached)", newReplyColumn(), segmentOf(fz, vs), true, "")
}

// writeSizes keeps what is written to it and the size of each Write.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

func diffPsgReply(t *testing.T, tag string, psg *core.Psg, dot string) {
	t.Helper()
	var got bytes.Buffer
	if err := writePsgJSON(&got, psg, dot); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	diffBytes(t, tag, got.Bytes(), oraclePsgJSON(t, psg, dot))
}

// diffBytes fails unless the writer's bytes are encoding/json's, showing
// both from a little before the first difference.
func diffBytes(t *testing.T, tag string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	at := firstDiff(got, want)
	from := max(0, at-20)
	t.Fatalf("%s: writer and encoding/json differ (%d vs %d bytes) at byte %d:\n got …%.80q\nwant …%.80q",
		tag, len(got), len(want), at, got[from:], want[from:])
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func segmentDOT(t testing.TB, seg *core.Segment) string {
	t.Helper()
	var b strings.Builder
	if err := seg.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// hostileNames are the strings the escaping differential is run over: every
// class the writer's fast path must hand to encoding/json, and the ones it
// must not.
func hostileNames() []string {
	names := []string{
		`plain`, `say "hi"`, `back\slash`, `<script>&amp;</script>`,
		"line\u2028sep\u2029para", "caf\u00e9 \u65e5\u672c \U0001F600", "bad\xff\xfeutf8", "\xc3", "del\x7f", " ",
	}
	for c := 0; c < 0x20; c++ {
		names = append(names, fmt.Sprintf("ctl-%02x-%c-", c, rune(c)))
	}
	return names
}

// TestReplyBytesMatchEncodingJSON is the byte-identity differential: on
// every reply shape the streaming writer's output equals json.Encoder's over
// the old wire-struct builders.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	sizes := []int{300, 3000}
	if testing.Short() {
		sizes = []int{300}
	}
	for _, n := range sizes {
		p := gen.Pd(gen.PdConfig{N: n, Seed: int64(n)})
		st := NewStore(p, 16)
		var segs []*core.Segment
		for _, rank := range []int{0, 20, 60} {
			src, dst := gen.QueryAtRank(p, rank)
			q := core.Query{Src: src, Dst: dst}
			tag := fmt.Sprintf("pd-%d rank %d", n, rank)
			seg, cached, err := st.Segment(q, core.Options{}, true)
			if err != nil || cached {
				t.Fatalf("%s: cold solve: cached=%v err=%v", tag, cached, err)
			}
			col := st.Epoch().replies
			diffSegmentReply(t, tag+" cold", col, seg, false, "")
			hit, cached, err := st.Segment(q, core.Options{}, true)
			if err != nil || !cached {
				t.Fatalf("%s: repeat: cached=%v err=%v", tag, cached, err)
			}
			diffSegmentReply(t, tag+" cached", col, hit, true, "")
			diffSegmentReply(t, tag+" dot", col, hit, true, segmentDOT(t, hit))
			segs = append(segs, seg)

			noAgents := core.Boundary{ExcludeRels: []prov.Rel{prov.RelAttr}, VertexFilters: []core.VertexFilter{
				func(p *prov.Graph, v graph.VertexID) bool { return !p.IsKind(v, prov.KindAgent) },
			}}
			adj, _, err := st.adjustAt(new(core.Work), st.Epoch(), q, core.Options{}, noAgents, nil)
			if err != nil || (rank == 0 && adj.NumVertices() >= seg.NumVertices()) {
				t.Fatalf("%s: adjust exclude: %v (%d of %d vertices left)", tag, err, adj.NumVertices(), seg.NumVertices())
			}
			diffSegmentReply(t, tag+" adjust exclude", col, adj.Unpack(), true, "")
			adj, _, err = st.adjustAt(new(core.Work), st.Epoch(), q, core.Options{}, noAgents, []core.Expansion{{Within: dst, K: 3}})
			if err != nil {
				t.Fatalf("%s: adjust exclude+expand: %v", tag, err)
			}
			diffSegmentReply(t, tag+" adjust exclude+expand", col, adj.Unpack(), true, "")
			// exclude_rels alone: the surviving edge ids are many short runs.
			adj, _, err = st.adjustAt(new(core.Work), st.Epoch(), q, core.Options{}, core.Boundary{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAttr}}, nil)
			if err != nil || len(adj.EdgeRuns) < 2 {
				t.Fatalf("%s: adjust exclude_rels: %v (%d edge runs)", tag, err, len(adj.EdgeRuns))
			}
			diffSegmentReply(t, tag+" adjust exclude_rels", col, adj.Unpack(), true, "")
		}
		// The benchmark's sum_pd options.
		for _, opts := range []core.SumOptions{{}, {TypeRadius: 1, K: core.Aggregation{Activity: []string{prov.PropCommand}}}} {
			psg, err := core.Summarize(segs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(psg.Nodes) == 0 || len(psg.Edges) == 0 {
				t.Fatalf("pd-%d: empty summary", n)
			}
			diffPsgReply(t, fmt.Sprintf("pd-%d psg k=%d", n, opts.TypeRadius), psg, "")
			var dot strings.Builder
			if err := psg.WriteDOT(&dot); err != nil {
				t.Fatal(err)
			}
			diffPsgReply(t, fmt.Sprintf("pd-%d psg dot", n), psg, dot.String())
		}
	}

	// Arrays that are empty are omitted, as omitempty does.
	empty := segmentOf(prov.New().Freeze(), nil)
	diffSegmentReply(t, "empty segment", newReplyColumn(), empty, false, "")
	diffNamedSegments(t, "one vertex", "only")

	// One edge, not the graph's first.
	one := prov.New()
	ag, in, run := one.NewAgent("u"), one.NewEntity("in"), one.NewActivity("run")
	one.WasAssociatedWith(run, ag)
	one.Used(run, in)
	single := segmentOf(one.Freeze(), []graph.VertexID{in, run})
	if len(single.Edges) != 1 || single.Edges[0] != 1 {
		t.Fatalf("single-edge segment has edges %v", single.Edges)
	}
	diffSegmentReply(t, "single edge", newReplyColumn(), single, false, "")

	// The ,] trap: an edge run that ends exactly where the buffer is full. Its
	// last comma is then the buffer's last byte and must still be there for
	// ']' to overwrite. A derivation chain's edges are one run; dropping edge
	// 1 makes two. The head's name pads the reply to the exact length.
	chain := prov.New()
	head := chain.NewEntity("n")
	var chainEdges []graph.EdgeID
	for prev, i := head, 0; i < replyFlushBytes/40; i++ {
		next := chain.NewEntity("")
		chainEdges = append(chainEdges, chain.WasDerivedFrom(next, prev))
		prev = next
	}
	chainEdges = slices.Delete(chainEdges, 1, 2)
	chainReply := func(pad int, edges []graph.EdgeID) (*core.Segment, []byte) {
		chain.PG().SetVertexProp(head, prov.PropName, graph.String("n"+strings.Repeat("p", pad)))
		seg := &core.Segment{P: chain, Vertices: []graph.VertexID{head}, Rules: []core.Rule{core.RuleQuery}, Edges: edges}
		var got bytes.Buffer
		if err := writeSegmentJSON(&got, newReplyColumn(), seg.Pack(), false, ""); err != nil {
			t.Fatal(err)
		}
		return seg, got.Bytes()
	}
	_, full := chainReply(0, chainEdges)
	end, cut := 0, 0
	for k, at := 0, 0; k < len(chainEdges); k++ {
		at += bytes.Index(full[at:], []byte(`"rel":"D"}`)) + len(`"rel":"D"}`) + 1
		if at <= replyFlushBytes-8 {
			end, cut = at, k+1
		}
	}
	_, trimmed := chainReply(0, chainEdges[:cut])
	if end = bytes.LastIndexByte(trimmed, ']') + 1; end > replyFlushBytes || end < replyFlushBytes-64 {
		t.Fatalf("the trimmed chain's edges end at byte %d, not just short of %d", end, replyFlushBytes)
	}
	trapSeg, trap := chainReply(replyFlushBytes-end, chainEdges[:cut])
	if trap[replyFlushBytes-1] != ']' {
		t.Fatalf("the edge array does not end on the flush threshold: byte %d is %q", replyFlushBytes-1, trap[replyFlushBytes-1])
	}
	diffBytes(t, ",] trap", trap, oracleSegmentJSON(t, trapSeg, false, ""))

	// Names of every length across the word copy's 8- and 16-byte seams (0 is
	// the omitted name), then an escaped byte first, in the middle and last
	// at each of those shapes: the copy must give up without leaving a trace.
	const plain = "abcdefghijklmnopqrstuvwxyz0123456789~{}[]"
	var names []string
	for n := 0; n <= 40; n++ {
		names = append(names, plain[:n])
	}
	for _, n := range []int{1, 7, 8, 9, 16, 23} {
		for _, at := range []int{0, n / 2, n - 1} {
			for _, esc := range []byte{'"', '\\', 0x1f, 0x80} {
				name := []byte(plain[:n])
				name[at] = esc
				names = append(names, string(name))
			}
		}
	}
	diffNamedSegments(t, "name lengths and escape positions", names...)

	// A name longer than the pooled buffer's slack grows the buffer for that
	// reply only; the pool never sees the grown array. (Get may hand out a
	// fresh buffer at any time, so this can only ever fail for a real leak.)
	for _, n := range []int{5 << 10, 200 << 10} {
		long := strings.Repeat(plain, n/len(plain)+1)[:n]
		diffNamedSegments(t, fmt.Sprintf("%d KB name", n>>10), "before", long, "after", long[:n-1]+"\n")
		for range 8 {
			b := replyBufs.Get().(*[]byte)
			if len(*b) != 0 || cap(*b) != replyFlushBytes+4<<10 {
				t.Fatalf("after a %d KB name the pool holds a buffer of len %d cap %d", n>>10, len(*b), cap(*b))
			}
			defer replyBufs.Put(b)
		}
	}

	// An element that crosses the flush threshold by 1…8 bytes (and by every
	// other amount up to its own size): its word stores land in the slack.
	straddle := func(pad int) *core.Segment {
		p := prov.New()
		var vs []graph.VertexID
		for i := 0; i < replyFlushBytes/40; i++ {
			vs = append(vs, p.NewEntity("v"))
		}
		p.PG().SetVertexProp(vs[0], prov.PropName, graph.String(strings.Repeat("p", pad)))
		return segmentOf(p.Freeze(), vs)
	}
	over := map[int]bool{}
	for pad := 1; pad <= 64; pad++ {
		seg := straddle(pad)
		var got writeSizes
		if err := writeSegmentJSON(&got, newReplyColumn(), seg.Pack(), false, ""); err != nil {
			t.Fatal(err)
		}
		diffBytes(t, fmt.Sprintf("straddle pad %d", pad), got.Bytes(), oracleSegmentJSON(t, seg, false, ""))
		over[got.sizes[0]-replyFlushBytes] = true
	}
	for k := 1; k <= 8; k++ {
		if !over[k] {
			t.Fatalf("no reply crossed the %d-byte flush threshold by %d bytes (crossings seen: %v)", replyFlushBytes, k, over)
		}
	}
	diffPsgReply(t, "empty psg", &core.Psg{}, "")
	diffPsgReply(t, "psg without edges", &core.Psg{Nodes: []core.PsgNode{{Label: "E"}}, InputVertices: 3, Segments: 1}, "")

	_, ssegs := gen.Sd(gen.SdConfig{Seed: 7})
	psg, err := core.Summarize(ssegs, gen.SdSumOptions())
	if err != nil {
		t.Fatal(err)
	}
	diffPsgReply(t, "sd psg", psg, "")

	// Hostile strings straight into the graph (the only way raw invalid
	// UTF-8 and an explicitly empty name get there), as names and — through
	// the command property — as Psg labels.
	rec := prov.NewRecorder()
	var ents []graph.VertexID
	for i, name := range hostileNames() {
		in := rec.Import("ag"+name, name, "")
		_, outs := rec.Run("ag"+name, "cmd"+name, []graph.VertexID{in}, []string{fmt.Sprintf("out-%d", i)})
		ents = append(ents, in, outs[0])
	}
	blank := rec.P.NewEntity("x")
	rec.P.PG().SetVertexProp(blank, prov.PropName, graph.String(""))
	hostile := rec.P.Freeze()
	all := segmentOf(hostile, append(ents, blank, rec.P.Agents()[0], rec.P.Activities()[0]))
	diffSegmentReply(t, "hostile names", newReplyColumn(), all, false, "")
	diffSegmentReply(t, "hostile names dot", newReplyColumn(), all, false, segmentDOT(t, all))
	acts := segmentOf(hostile, append(rec.P.Activities(), ents...))
	psg, err = core.Summarize([]*core.Segment{acts}, core.SumOptions{K: core.Aggregation{Activity: []string{prov.PropCommand}, Entity: []string{prov.PropName}}})
	if err != nil {
		t.Fatal(err)
	}
	diffPsgReply(t, "hostile labels", psg, "")
}

// postRaw posts a raw body and returns the raw reply.
func postRaw(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// TestReplyHostileNamesOverHTTP: hostile artifact, agent and command names
// go in through /ingest and come back through /segment, /adjust and
// /summarize byte-identical to what encoding/json would have sent, and still
// decode into the documented response types.
func TestReplyHostileNamesOverHTTP(t *testing.T) {
	st := NewStore(prov.New(), 16)
	ts := httptest.NewServer(NewServer(st))
	defer ts.Close()

	var src, dst []uint32
	for i, name := range hostileNames() {
		// Hand-built body: json.Marshal would already replace the invalid
		// UTF-8 the decoder is meant to see.
		quoted := strings.TrimSuffix(string(stdJSON(t, name)), "\n")
		if strings.Contains(name, "\xff") || name == "\xc3" {
			quoted = `"` + name + `"`
		}
		var ing IngestResponse
		body := fmt.Sprintf(`{"ops":[{"op":"import","agent":%s,"artifact":%s}]}`, quoted, quoted)
		if err := json.Unmarshal(postRaw(t, ts.URL+"/ingest", []byte(body)), &ing); err != nil {
			t.Fatal(err)
		}
		in := ing.Results[0].ID
		body = fmt.Sprintf(`{"ops":[{"op":"run","agent":%s,"command":%s,"inputs":[%d],"outputs":["out-%d"]}]}`, quoted, quoted, in, i)
		if err := json.Unmarshal(postRaw(t, ts.URL+"/ingest", []byte(body)), &ing); err != nil {
			t.Fatal(err)
		}
		src, dst = append(src, in), append(dst, ing.Results[0].Outputs[0])
	}

	q := core.Query{Src: toVertexIDs(src), Dst: toVertexIDs(dst)}
	req := stdJSON(t, SegmentRequest{Src: src, Dst: dst})
	for _, cached := range []bool{false, true} {
		raw := postRaw(t, ts.URL+"/segment", req)
		seg, hit, err := st.Segment(q, core.Options{}, true)
		if err != nil || !hit {
			t.Fatalf("segment: hit=%v err=%v", hit, err)
		}
		diffBytes(t, fmt.Sprintf("/segment cached=%v", cached), raw, oracleSegmentJSON(t, seg, cached, ""))
		var sr SegmentResponse
		if err := json.Unmarshal(raw, &sr); err != nil || len(sr.Vertices) != sr.NumVertices || sr.NumVertices != seg.NumVertices() {
			t.Fatalf("/segment reply does not decode: %v (%d vertices)", err, len(sr.Vertices))
		}
	}

	raw := postRaw(t, ts.URL+"/adjust", stdJSON(t, AdjustRequest{Segment: SegmentRequest{Src: src, Dst: dst}, ExcludeKinds: []string{"U"}, Format: FormatDOT}))
	var sr SegmentResponse
	if err := json.Unmarshal(raw, &sr); err != nil || sr.DOT == "" || len(sr.Vertices) != 0 || !sr.Cached {
		t.Fatalf("/adjust dot reply: %v %+v", err, sr)
	}

	raw = postRaw(t, ts.URL+"/summarize", stdJSON(t, SummarizeRequest{Segments: []SegmentSpec{{Src: src, Dst: dst}}, AggActivity: []string{prov.PropCommand}, AggEntity: []string{prov.PropName}}))
	psg, err := st.Summarize([]core.Query{q}, core.Options{}, core.SumOptions{K: core.Aggregation{Activity: []string{prov.PropCommand}, Entity: []string{prov.PropName}}})
	if err != nil {
		t.Fatal(err)
	}
	diffBytes(t, "/summarize", raw, oraclePsgJSON(t, psg, ""))

	// format:"dot" parsed back: the statements are one line each (a raw
	// newline or an unescaped quote or backslash in a label would break
	// that), and every node label unquotes — graph.WriteDOT's %q — to the
	// class name and the member count.
	raw = postRaw(t, ts.URL+"/summarize", stdJSON(t, SummarizeRequest{Segments: []SegmentSpec{{Src: src, Dst: dst}}, AggActivity: []string{prov.PropCommand}, AggEntity: []string{prov.PropName}, Format: FormatDOT}))
	var dr SummarizeResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(dr.DOT, "\n"), "\n")
	if len(lines) != 3+len(psg.Nodes)+len(psg.Edges) {
		t.Fatalf("/summarize dot: %d lines for %d nodes and %d edges", len(lines), len(psg.Nodes), len(psg.Edges))
	}
	for i, n := range psg.Nodes {
		quoted, ok := strings.CutPrefix(lines[2+i], fmt.Sprintf("  n%d [label=", i))
		quoted, closed := strings.CutSuffix(quoted, "];")
		label, err := strconv.Unquote(quoted)
		if want := fmt.Sprintf("%s\nx%d", n.Label, len(n.Members)); !ok || !closed || err != nil || label != want {
			t.Fatalf("/summarize dot node %d: %s parses to %q (%v), want %q", i, lines[2+i], label, err, want)
		}
	}
}

// FuzzAppendJSONString: whatever the string — and, riding along, whatever
// the finite float — the writer's rendering is encoding/json's. The seed
// corpus is checked in under testdata/fuzz.
func FuzzAppendJSONString(f *testing.F) {
	for i, s := range hostileNames() {
		f.Add(s, float64(i)/3)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		got := appendJSONString([]byte("x"), s)
		want := append([]byte("x"), bytes.TrimSuffix(stdJSON(t, s), []byte("\n"))...)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json says %s", s, got[1:], want[1:])
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // not JSON
		}
		got = appendJSONFloat(nil, x)
		if want := bytes.TrimSuffix(stdJSON(t, x), []byte("\n")); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%g) = %s, encoding/json says %s", x, got, want)
		}
	})
}

// putUint32Edges are the values where putUint32's digit split changes shape:
// every 10^k-1, 10^k, 10^k+1, and the largest.
func putUint32Edges() []uint32 {
	edges := []uint32{0, math.MaxUint32}
	for p := uint32(10); ; p *= 10 {
		edges = append(edges, p-1, p, p+1)
		if p == 1e9 {
			return edges
		}
	}
}

// checkPutUint32 writes x at offset off of a poisoned buffer and fails unless
// the digits are strconv's, the returned index is their end, nothing before
// off was touched and nothing from 8 bytes past the end on.
func checkPutUint32(t testing.TB, x uint32, off int) {
	t.Helper()
	const poison = 0xA5
	var buf [40]byte
	for i := range buf {
		buf[i] = poison
	}
	var scratch [10]byte
	want := strconv.AppendUint(scratch[:0], uint64(x), 10)
	end := putUint32(buf[:], off, x)
	if end != off+len(want) || !bytes.Equal(buf[off:end], want) {
		t.Fatalf("putUint32(%d) at offset %d = %q ending at %d, strconv says %q", x, off, buf[off:max(end, off)], end, want)
	}
	for i, c := range buf {
		if (i < off || i >= end+8) && c != poison {
			t.Fatalf("putUint32(%d) at offset %d (end %d) touched byte %d", x, off, end, i)
		}
	}
}

// TestPutUint32MatchesStrconv is the integer kernel's differential against
// strconv: an off-by-one in the digit split or the leading-zero shift fails
// here, by value, before it can show up as a wrong id in a reply.
func TestPutUint32MatchesStrconv(t *testing.T) {
	exhaustive := uint32(2e6)
	if testing.Short() {
		exhaustive = 2e5
	}
	for x := uint32(0); x <= exhaustive; x++ {
		checkPutUint32(t, x, int(x%8))
	}
	for _, x := range putUint32Edges() {
		for off := 0; off < 8; off++ {
			checkPutUint32(t, x, off)
		}
	}
	// The whole 32-bit range at a prime stride, until it wraps.
	const stride = 104729
	for x, off := uint32(stride), 0; x >= stride; x, off = x+stride, (off+1)%8 {
		checkPutUint32(t, x, off)
	}
}

// FuzzPutUint32: any value at any of the eight offsets.
func FuzzPutUint32(f *testing.F) {
	for i, x := range putUint32Edges() {
		f.Add(x, uint8(i))
	}
	f.Fuzz(func(t *testing.T, x uint32, off uint8) {
		checkPutUint32(t, x, int(off%8))
	})
}

// TestAppendJSONFloat pins the float form to encoding/json's on both sides
// of each format switch.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 0.5, 2.0 / 3, 100,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 5e-324,
		1e20, 9.99e20, 1e21, -1e21, 1.5e21, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		got := appendJSONFloat(nil, f)
		if want := bytes.TrimSuffix(stdJSON(t, f), []byte("\n")); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, encoding/json says %s", f, got, want)
		}
	}
}

// failAfter fails its k-th Write and every one after it.
type failAfter struct {
	k, writes int
	bufs      map[*byte]bool // first byte of every buffer handed to Write
}

var errHungUp = errors.New("client hung up")

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.bufs == nil {
		w.bufs = map[*byte]bool{}
	}
	w.bufs[&p[:1][0]] = true
	if w.writes >= w.k {
		return 0, errHungUp
	}
	return len(p), nil
}

// TestReplyStopsAtFirstFailedFlush: a client that hung up is not encoded to
// the end — the writer returns at the flush that failed, makes no further
// Write, and hands its buffer back to the pool.
func TestReplyStopsAtFirstFailedFlush(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 3000, Seed: 3}).Freeze()
	src, dst := gen.DefaultQuery(p)
	seg, err := core.NewEngine(p, core.Options{}).Segment(core.Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregating by name keeps the summary near the segment's size (several
	// flushes) and PgSum's simulation cheap.
	psg, err := core.Summarize([]*core.Segment{seg}, core.SumOptions{K: core.Aggregation{Entity: []string{prov.PropName}, Activity: []string{prov.PropCommand}}})
	if err != nil {
		t.Fatal(err)
	}
	col := newReplyColumn()
	var whole writeSizes
	if err := writeSegmentJSON(&whole, col, seg.Pack(), false, ""); err != nil {
		t.Fatal(err)
	}
	if len(whole.sizes) < 4 || whole.Len() < 3*replyFlushBytes {
		t.Fatalf("reply too small to test a mid-stream failure: %d writes, %d bytes", len(whole.sizes), whole.Len())
	}
	// Writes that start after the first edge record and before the last
	// one's end are flushes made inside an edge run copy.
	edgesFrom := bytes.Index(whole.Bytes(), []byte(`"edges":[`))
	edgesTo := bytes.LastIndexByte(whole.Bytes(), ']')
	inRun := 0
	for k, at := 1, 0; k <= len(whole.sizes); k++ {
		w := &failAfter{k: k}
		if err := writeSegmentJSON(w, col, seg.Pack(), false, ""); !errors.Is(err, errHungUp) {
			t.Fatalf("fail at write %d: err = %v", k, err)
		}
		if w.writes != k {
			t.Fatalf("fail at write %d: %d Write calls, the encode went on", k, w.writes)
		}
		if at > edgesFrom && at < edgesTo {
			inRun++
		}
		at += whole.sizes[k-1]
	}
	if inRun == 0 {
		t.Fatalf("no write of the %d started inside the edge array [%d, %d)", len(whole.sizes), edgesFrom, edgesTo)
	}
	w := &failAfter{k: 2}
	if err := writePsgJSON(w, psg, ""); !errors.Is(err, errHungUp) || w.writes != 2 {
		t.Fatalf("psg: err = %v after %d writes", err, w.writes)
	}

	// The buffer of a failed reply goes back to the pool: the next reply on
	// this goroutine is handed the same array. (sync.Pool may drop a Put —
	// it does so at random under -race — hence the retries; a writer that
	// leaked its buffer on the error path would never see a repeat.)
	reused := false
	for i := 0; i < 64 && !reused; i++ {
		failed := &failAfter{k: 2}
		_ = writeSegmentJSON(failed, col, seg.Pack(), false, "")
		next := &failAfter{k: 1}
		_ = writeSegmentJSON(next, col, seg.Pack(), false, "")
		for b := range next.bufs {
			reused = reused || failed.bufs[b]
		}
	}
	if !reused {
		t.Fatal("the buffer of a failed reply never came back from the pool")
	}
}

// tally discards, counting calls and bytes.
type tally struct{ writes, n int }

func (w *tally) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	return len(p), nil
}

// TestReplyRendersFromSolvedSnapshot: a reply is rendered from the snapshot
// its segment was solved at. A segment obtained before an ingest still
// renders afterwards — from its own, older and smaller snapshot — to the
// bytes served before the ingest.
func TestReplyRendersFromSolvedSnapshot(t *testing.T) {
	ts, st, ids := newTestServer(t)
	src, dst := []uint32{uint32(ids["dataset"])}, []uint32{uint32(ids["model-v2"])}
	before := postRaw(t, ts.URL+"/segment", stdJSON(t, SegmentRequest{Src: src, Dst: dst}))
	seg, hit, err := st.Segment(core.Query{Src: toVertexIDs(src), Dst: toVertexIDs(dst)}, core.Options{}, true)
	if err != nil || !hit {
		t.Fatalf("segment: hit=%v err=%v", hit, err)
	}
	solvedAt := st.Epoch()

	// Touch the segment's support so the cache entry is purged, not rebased.
	postRaw(t, ts.URL+"/ingest", stdJSON(t, IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "carol", Command: "retrain", Inputs: src, Outputs: []string{"model"}},
	}}))
	if now := st.Epoch(); now.N == solvedAt.N || now.Vertices <= solvedAt.Vertices {
		t.Fatalf("ingest did not advance the store: epoch %d → %d", solvedAt.N, now.N)
	}
	if seg.P != solvedAt.P || seg.P.NumVertices() != solvedAt.Vertices {
		t.Fatal("the held segment no longer points at the snapshot it was solved at")
	}
	var got bytes.Buffer
	if err := writeSegmentJSON(&got, st.Epoch().replies, seg.Pack(), false, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), before) {
		t.Fatalf("held segment renders differently after the ingest:\n%s\nvs\n%s", got.Bytes(), before)
	}
	// And the live endpoint moved on: the re-solve sees the new activity.
	after := postRaw(t, ts.URL+"/segment", stdJSON(t, SegmentRequest{Src: src, Dst: dst}))
	var a, b SegmentResponse
	if json.Unmarshal(before, &b) != nil || json.Unmarshal(after, &a) != nil || a.Cached {
		t.Fatalf("replies do not decode, or the touched entry was served from cache: %s", after)
	}
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct {
	h http.Header
	n int
}

func (w *discardResponse) Header() http.Header { return w.h }
func (w *discardResponse) WriteHeader(int)     {}
func (w *discardResponse) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// segmentHit returns a server over Pd-n with one /segment query warmed into
// the cache, the request body that hits it, and the reply size.
func segmentHit(tb testing.TB, n int) (*Server, []byte, int) {
	tb.Helper()
	p := gen.Pd(gen.PdConfig{N: n, Seed: 1})
	src, dst := gen.DefaultQuery(p)
	srv := NewServer(NewStore(p, 16))
	body := stdJSON(tb, SegmentRequest{Src: vertexIDsToWire(src), Dst: vertexIDsToWire(dst)})
	var w *discardResponse
	for range 2 { // the solve, then the first hit
		w = &discardResponse{h: http.Header{}}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/segment", bytes.NewReader(body)))
	}
	if w.n == 0 {
		tb.Fatal("warm-up /segment wrote nothing")
	}
	return srv, body, w.n
}

func vertexIDsToWire(vs []graph.VertexID) []uint32 {
	out := make([]uint32, len(vs))
	for i, v := range vs {
		out[i] = uint32(v)
	}
	return out
}

// TestSegmentHitAllocations pins "no whole-body buffer, no wire structs"
// without a timing: a cached /segment hit through Server.ServeHTTP, the reply
// column already built, allocates well under 64 KB however large the reply is
// (the reflection path allocated ~7x the reply size).
func TestSegmentHitAllocations(t *testing.T) {
	srv, body, size := segmentHit(t, 3000)
	if size < 4*64<<10 {
		t.Fatalf("reply of %d bytes is too small for the bound to mean anything", size)
	}
	col := srv.Store().Epoch().replies
	built := extentOf(col)
	if built[0] == 0 {
		t.Fatal("the warm-up left the reply column empty: its build would be measured")
	}
	const hits = 100
	w := &discardResponse{h: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/segment", bytes.NewReader(body)))
	}
	runtime.ReadMemStats(&after)
	if w.n != hits*size || extentOf(col) != built {
		t.Fatalf("%d hits wrote %d bytes, want %d each; the column went from %v to %v", hits, w.n, size, built, extentOf(col))
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	if perHit > 64<<10 {
		t.Fatalf("a cached /segment hit allocates %d bytes for a %d-byte reply, want <= 64 KB", perHit, size)
	}
	t.Logf("a cached /segment hit allocates %d bytes for a %d-byte reply", perHit, size)
}

// BenchmarkSegmentReply is the seg_hot op without the socket: a cached
// /segment hit at 20k vertices through Server.ServeHTTP.
func BenchmarkSegmentReply(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	srv, body, size := segmentHit(b, n)
	w := &discardResponse{h: http.Header{}}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/segment", bytes.NewReader(body)))
	}
}

// BenchmarkSummarizeReply is the encode of a two-segment Pd-2000 summary
// (the solve is core's BenchmarkSummarizePd).
func BenchmarkSummarizeReply(b *testing.B) {
	p := gen.Pd(gen.PdConfig{N: 2000, Seed: 1}).Freeze()
	var segs []*core.Segment
	for _, rank := range []int{0, 10} {
		src, dst := gen.QueryAtRank(p, rank)
		seg, err := core.NewEngine(p, core.Options{}).Segment(core.Query{Src: src, Dst: dst})
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg)
	}
	psg, err := core.Summarize(segs, core.SumOptions{TypeRadius: 1, K: core.Aggregation{Activity: []string{prov.PropCommand}}})
	if err != nil {
		b.Fatal(err)
	}
	var w tally
	if err := writePsgJSON(&w, psg, ""); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = writePsgJSON(&w, psg, "")
	}
}
