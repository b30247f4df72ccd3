package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/prov"
)

// testLifecycle builds a small Fig.1-style project: alice imports a dataset,
// trains twice (two model versions), bob evaluates.
func testLifecycle() (*prov.Graph, map[string]graph.VertexID) {
	rec := prov.NewRecorder()
	ids := map[string]graph.VertexID{}
	ids["dataset"] = rec.Import("alice", "dataset", "http://example.com/faces")
	_, outs := rec.Run("alice", "train", []graph.VertexID{ids["dataset"]}, []string{"model", "logs"})
	ids["model-v1"], ids["logs-v1"] = outs[0], outs[1]
	_, outs = rec.Run("alice", "train -more", []graph.VertexID{ids["dataset"], ids["model-v1"]}, []string{"model"})
	ids["model-v2"] = outs[0]
	_, outs = rec.Run("bob", "eval", []graph.VertexID{ids["model-v2"]}, []string{"report"})
	ids["report"] = outs[0]
	return rec.P, ids
}

func newTestServer(t *testing.T) (*httptest.Server, *Store, map[string]graph.VertexID) {
	t.Helper()
	p, ids := testLifecycle()
	store := NewStore(p, 16)
	ts := httptest.NewServer(NewServer(store))
	t.Cleanup(ts.Close)
	return ts, store, ids
}

// doJSON posts body and decodes the JSON reply into out, returning the
// status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var reqBody io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqBody = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, reqBody)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad response body %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var got map[string]string
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &got); code != 200 {
		t.Fatalf("healthz: status %d", code)
	}
	if got["status"] != "ok" {
		t.Fatalf("healthz: %v", got)
	}
}

func TestSegmentRoundTripAndCache(t *testing.T) {
	ts, _, ids := newTestServer(t)
	req := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["model-v2"])},
	}
	var seg SegmentResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/segment", req, &seg); code != 200 {
		t.Fatalf("segment: status %d", code)
	}
	if seg.Cached {
		t.Fatal("first request must not be cached")
	}
	if seg.NumVertices == 0 || seg.NumEdges == 0 {
		t.Fatalf("empty segment: %+v", seg)
	}
	wantIDs := map[uint32]bool{uint32(ids["dataset"]): false, uint32(ids["model-v2"]): false}
	for _, v := range seg.Vertices {
		if _, ok := wantIDs[v.ID]; ok {
			wantIDs[v.ID] = true
		}
	}
	for id, seen := range wantIDs {
		if !seen {
			t.Errorf("query vertex %d missing from segment", id)
		}
	}

	// The identical query again — now answered from the LRU cache; the
	// request differing only in list order must hit the same entry.
	var again SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/segment", req, &again)
	if !again.Cached {
		t.Fatal("identical repeat not served from cache")
	}
	if again.NumVertices != seg.NumVertices || again.NumEdges != seg.NumEdges {
		t.Fatalf("cached reply differs: %+v vs %+v", again, seg)
	}

	var stats StoreStats
	doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache counters: %+v", stats.Cache)
	}
	if stats.Cache.Entries != 1 {
		t.Fatalf("cache entries: %+v", stats.Cache)
	}
}

// TestSegmentCacheKeyIgnoresRepeats: core treats src, dst, expansion seeds
// and excluded relations as sets, so a request that repeats ids (in any
// order) is the entry its deduplicated form filled, not a second copy.
func TestSegmentCacheKeyIgnoresRepeats(t *testing.T) {
	ts, _, ids := newTestServer(t)
	ds, v1, v2 := uint32(ids["dataset"]), uint32(ids["model-v1"]), uint32(ids["model-v2"])
	first := SegmentRequest{
		Src: []uint32{ds}, Dst: []uint32{v1, v2},
		ExcludeRels: []string{"D"},
		Expansions:  []ExpansionSpec{{Within: []uint32{v1}, K: 1}},
	}
	repeated := SegmentRequest{
		Src: []uint32{ds, ds}, Dst: []uint32{v2, v1, v2},
		ExcludeRels: []string{"D", "D"},
		Expansions:  []ExpansionSpec{{Within: []uint32{v1, v1}, K: 1}, {Within: []uint32{v1}, K: 1}},
	}
	var a, b SegmentResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/segment", first, &a); code != 200 || a.Cached {
		t.Fatalf("first request: status %d, cached %v", code, a.Cached)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/segment", repeated, &b); code != 200 || !b.Cached {
		t.Fatalf("repeated ids: status %d, cached %v; want the first request's entry", code, b.Cached)
	}
	if a.NumVertices != b.NumVertices || a.NumEdges != b.NumEdges {
		t.Fatalf("cached reply differs: %+v vs %+v", b, a)
	}
	var stats StoreStats
	doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats)
	if stats.Cache.Entries != 1 {
		t.Fatalf("cache entries: %+v, want 1", stats.Cache)
	}
}

// TestSegmentSolversAgree: the served solver's reply is byte for byte the
// reply of the baseline solvers, run through the library on the same
// snapshot (HTTP serves SimProvTst only).
func TestSegmentSolversAgree(t *testing.T) {
	ts, st, ids := newTestServer(t)
	src, dst := []uint32{uint32(ids["dataset"])}, []uint32{uint32(ids["report"])}
	got := postRaw(t, ts.URL+"/segment", stdJSON(t, SegmentRequest{Src: src, Dst: dst, Solver: "tst", NoCache: true}))
	q := core.Query{Src: toVertexIDs(src), Dst: toVertexIDs(dst)}
	for _, solver := range []core.SolverKind{core.SolverAlg, core.SolverCflrB} {
		seg, err := core.NewEngine(st.Epoch().P, core.Options{Solver: solver}).Segment(q)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		diffBytes(t, fmt.Sprintf("HTTP tst vs library %v", solver), got, oracleSegmentJSON(t, seg, false, ""))
	}
}

// TestSegmentRefusesBaselineSolvers: a request for SimProvAlg or CflrB gets a
// 400 before any solve, on /segment and on /adjust's base query.
func TestSegmentRefusesBaselineSolvers(t *testing.T) {
	ts, _, ids := newTestServer(t)
	for _, solver := range []string{"alg", "cflrb", " CflrB "} {
		seg := SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["report"])}, Solver: solver}
		for path, req := range map[string]any{
			"/segment": seg,
			"/adjust":  AdjustRequest{Segment: seg, ExcludeRels: []string{"A"}},
		} {
			var errResp ErrorResponse
			if code := doJSON(t, http.MethodPost, ts.URL+path, req, &errResp); code != http.StatusBadRequest || !strings.Contains(errResp.Error, "(want tst)") {
				t.Errorf("%s solver %q: status %d %q, want 400 unknown solver (want tst)", path, solver, code, errResp.Error)
			}
		}
	}
}

// TestSegmentRefusesOversizedLists: src, dst and every expansion's within
// hold at most maxQueryVertices ids on /segment, /adjust (its base query and
// its own expansions) and each /summarize spec. A list over the cap is a 400
// naming the limit before any solve — the segment cache sees no lookup — and
// a list at the cap is served.
func TestSegmentRefusesOversizedLists(t *testing.T) {
	ts, store, ids := newTestServer(t)
	rep := func(v graph.VertexID, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(v)
		}
		return out
	}
	src, dst := ids["dataset"], ids["report"]
	one := SegmentRequest{Src: rep(src, 1), Dst: rep(dst, 1)}
	for _, n := range []int{maxQueryVertices, maxQueryVertices + 1} {
		reqs := map[string]any{}
		for name, seg := range map[string]SegmentRequest{
			"src":    {Src: rep(src, n), Dst: rep(dst, 1)},
			"dst":    {Src: rep(src, 1), Dst: rep(dst, n)},
			"within": {Src: rep(src, 1), Dst: rep(dst, 1), Expansions: []ExpansionSpec{{Within: rep(dst, 1), K: 1}, {Within: rep(dst, n), K: 1}}},
		} {
			reqs["/segment "+name] = seg
			reqs["/adjust segment."+name] = AdjustRequest{Segment: seg, ExcludeRels: []string{"A"}}
		}
		reqs["/adjust within"] = AdjustRequest{Segment: one, Expansions: []ExpansionSpec{{Within: rep(dst, n), K: 1}}}
		reqs["/summarize src"] = SummarizeRequest{Segments: []SegmentSpec{{Src: one.Src, Dst: one.Dst}, {Src: rep(src, n), Dst: one.Dst}}}
		reqs["/summarize dst"] = SummarizeRequest{Segments: []SegmentSpec{{Src: one.Src, Dst: rep(dst, n)}}}
		for name, req := range reqs {
			before := store.Metrics().Cache
			var resp ErrorResponse
			code := doJSON(t, http.MethodPost, ts.URL+strings.Fields(name)[0], req, &resp)
			switch {
			case n <= maxQueryVertices && code != http.StatusOK:
				t.Errorf("%s, %d ids: status %d %q, want 200", name, n, code, resp.Error)
			case n > maxQueryVertices && (code != http.StatusBadRequest || !strings.Contains(resp.Error, fmt.Sprintf("(at most %d)", maxQueryVertices))):
				t.Errorf("%s, %d ids: status %d %q, want 400 naming the limit", name, n, code, resp.Error)
			case n > maxQueryVertices && store.Metrics().Cache != before:
				t.Errorf("%s, %d ids: refused after a solve (cache %+v -> %+v)", name, n, before, store.Metrics().Cache)
			}
		}
	}
}

func TestSegmentDOTFormat(t *testing.T) {
	ts, _, ids := newTestServer(t)
	req := SegmentRequest{
		Src:    []uint32{uint32(ids["dataset"])},
		Dst:    []uint32{uint32(ids["model-v1"])},
		Format: "dot",
	}
	var seg SegmentResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/segment", req, &seg); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(seg.DOT, "digraph provenance") {
		t.Fatalf("no DOT payload: %+v", seg)
	}
	if len(seg.Vertices) != 0 {
		t.Fatal("dot format should omit the vertex list")
	}
}

func TestSegmentBadRequests(t *testing.T) {
	ts, _, ids := newTestServer(t)
	cases := []struct {
		name string
		req  any
	}{
		{"empty src", SegmentRequest{Dst: []uint32{uint32(ids["model-v1"])}}},
		{"out of range", SegmentRequest{Src: []uint32{99999}, Dst: []uint32{uint32(ids["model-v1"])}}},
		{"bad solver", SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}, Solver: "neo4j"}},
		{"bad rel", SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}, ExcludeRels: []string{"Z"}}},
		{"bad format", SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}, Format: "svg"}},
		{"expansion id out of range", SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])},
			Expansions: []ExpansionSpec{{Within: []uint32{4_000_000_000}, K: 1}}}},
		{"unknown field", map[string]any{"sources": []int{0}}},
	}
	for _, tc := range cases {
		var errResp ErrorResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/segment", tc.req, &errResp); code != 400 {
			t.Errorf("%s: want 400, got %d", tc.name, code)
		}
		if errResp.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestSummarizeAggKeys: each agg_* list keeps every key once, in first-seen
// order, so lists that repeat their keys thousands of times get the bytes
// their deduplicated forms get; a list of more than maxAggKeys distinct keys
// is a 400 naming the limit before any solve (the segment cache sees no
// lookup), and one of exactly maxAggKeys is served; so is a key of
// maxAggKeyBytes, while a 1 MB key is refused the same way.
func TestSummarizeAggKeys(t *testing.T) {
	ts, store, ids := newTestServer(t)
	plain := SummarizeRequest{
		Segments: []SegmentSpec{
			{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}},
			{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v2"])}},
		},
		AggEntity:   []string{prov.PropFilename, prov.PropName},
		AggActivity: []string{prov.PropCommand, prov.PropName},
		AggAgent:    []string{prov.PropName},
		TypeRadius:  1,
	}
	repeat := func(keys []string, n int) []string {
		var out []string
		for range n {
			out = append(out, keys...)
		}
		return out
	}
	repeated := plain
	repeated.AggEntity, repeated.AggActivity, repeated.AggAgent = repeat(plain.AggEntity, 5000), repeat(plain.AggActivity, 5000), repeat(plain.AggAgent, 5000)
	for _, format := range []string{"", FormatDOT} {
		plain.Format, repeated.Format = format, format
		if want, got := postRaw(t, ts.URL+"/summarize", stdJSON(t, plain)), postRaw(t, ts.URL+"/summarize", stdJSON(t, repeated)); !bytes.Equal(got, want) {
			t.Errorf("format %q: repeated keys changed the reply (%d vs %d bytes)", format, len(got), len(want))
		}
	}
	distinct := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("key%d", i)
		}
		return out
	}
	for _, name := range []string{"agg_entity", "agg_activity", "agg_agent"} {
		for _, n := range []int{maxAggKeys, maxAggKeys + 1} {
			req := plain
			keys := append(distinct(n), repeat(distinct(n), 100)...)
			switch name {
			case "agg_entity":
				req.AggEntity = keys
			case "agg_activity":
				req.AggActivity = keys
			default:
				req.AggAgent = keys
			}
			before := store.Metrics().Cache
			var resp ErrorResponse
			code := doJSON(t, http.MethodPost, ts.URL+"/summarize", req, &resp)
			switch {
			case n <= maxAggKeys && code != http.StatusOK:
				t.Errorf("%s, %d keys: status %d %q, want 200", name, n, code, resp.Error)
			case n > maxAggKeys && (code != http.StatusBadRequest || !strings.Contains(resp.Error, fmt.Sprintf("%s lists more than %d", name, maxAggKeys))):
				t.Errorf("%s, %d keys: status %d %q, want 400 naming the limit", name, n, code, resp.Error)
			case n > maxAggKeys && store.Metrics().Cache != before:
				t.Errorf("%s, %d keys: refused after a solve", name, n)
			}
		}
		// One key's length: maxAggKeyBytes is served, a 1 MB key is refused.
		for _, n := range []int{maxAggKeyBytes, 1 << 20} {
			req := plain
			keys := []string{prov.PropName, strings.Repeat("k", n)}
			switch name {
			case "agg_entity":
				req.AggEntity = keys
			case "agg_activity":
				req.AggActivity = keys
			default:
				req.AggAgent = keys
			}
			before := store.Metrics().Cache
			var resp ErrorResponse
			code := doJSON(t, http.MethodPost, ts.URL+"/summarize", req, &resp)
			switch {
			case n <= maxAggKeyBytes && code != http.StatusOK:
				t.Errorf("%s, a %d-byte key: status %d %q, want 200", name, n, code, resp.Error)
			case n > maxAggKeyBytes && (code != http.StatusBadRequest || !strings.Contains(resp.Error, fmt.Sprintf("(at most %d)", maxAggKeyBytes))):
				t.Errorf("%s, a %d-byte key: status %d %q, want 400 naming the limit", name, n, code, resp.Error)
			case n > maxAggKeyBytes && store.Metrics().Cache != before:
				t.Errorf("%s, a %d-byte key: refused after a solve", name, n)
			}
		}
	}
}

func TestSummarizeRoundTrip(t *testing.T) {
	ts, _, ids := newTestServer(t)
	req := SummarizeRequest{
		Segments: []SegmentSpec{
			{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}},
			{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v2"])}},
		},
		AggActivity: []string{"command"},
		TypeRadius:  1,
	}
	var resp SummarizeResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/summarize", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Nodes) == 0 || resp.Segments != 2 {
		t.Fatalf("bad summary: %+v", resp)
	}
	if resp.CompactionRatio <= 0 || resp.CompactionRatio > 1 {
		t.Fatalf("compaction ratio out of range: %v", resp.CompactionRatio)
	}

	req.Format = "dot"
	var dotResp SummarizeResponse
	doJSON(t, http.MethodPost, ts.URL+"/summarize", req, &dotResp)
	if !strings.Contains(dotResp.DOT, "digraph psg") {
		t.Fatalf("no DOT payload: %+v", dotResp)
	}

	var errResp ErrorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/summarize", SummarizeRequest{}, &errResp); code != 400 {
		t.Fatalf("empty summarize: want 400, got %d", code)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var resp QueryResponse
	req := QueryRequest{Query: "match (e:E) where id(e) in [0, 1, 2] return e"}
	if code := doJSON(t, http.MethodPost, ts.URL+"/query", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.NumRows == 0 {
		t.Fatalf("no rows: %+v", resp)
	}
	cell, ok := resp.Rows[0][0].(map[string]any)
	if !ok || cell["kind"] != "E" {
		t.Fatalf("bad vertex cell: %#v", resp.Rows[0][0])
	}

	var errResp ErrorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/query", QueryRequest{Query: "garbage ("}, &errResp); code != 400 {
		t.Fatalf("bad query: want 400, got %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/query", QueryRequest{}, &errResp); code != 400 {
		t.Fatalf("empty query: want 400, got %d", code)
	}
}

func TestIngestRoundTripAndAtomicity(t *testing.T) {
	ts, store, ids := newTestServer(t)
	before := store.Stats()

	// A valid batch: declare an agent, import an artifact, run an activity
	// over an existing entity.
	req := IngestRequest{Ops: []IngestOp{
		{Op: "agent", Agent: "carol"},
		{Op: "import", Agent: "carol", Artifact: "testset", URL: "http://example.com/t"},
		{Op: "run", Agent: "carol", Command: "evaluate", Inputs: []uint32{uint32(ids["model-v2"])}, Outputs: []string{"scores"}},
	}}
	var resp IngestResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results: %+v", resp)
	}
	if len(resp.Results[2].Outputs) != 1 {
		t.Fatalf("run op: want 1 output, got %+v", resp.Results[2])
	}
	if resp.Vertices <= before.Vertices {
		t.Fatalf("graph did not grow: %d -> %d", before.Vertices, resp.Vertices)
	}

	// Chaining across batches: the import's returned id is usable as a run
	// input in the next batch.
	testset := resp.Results[1].ID
	req = IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "carol", Command: "re-evaluate", Inputs: []uint32{testset}, Outputs: []string{"scores"}},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", req, &resp); code != 200 {
		t.Fatalf("chained batch: status %d", code)
	}

	// Atomicity: a batch whose second op is invalid must leave the graph
	// untouched even though the first op is fine.
	mid := store.Stats()
	bad := IngestRequest{Ops: []IngestOp{
		{Op: "agent", Agent: "dave"},
		{Op: "run", Agent: "dave", Command: "x", Inputs: []uint32{1 << 30}, Outputs: []string{"y"}},
	}}
	var errResp ErrorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", bad, &errResp); code != 400 {
		t.Fatalf("bad batch: want 400, got %d", code)
	}
	after := store.Stats()
	if after.Vertices != mid.Vertices || after.Edges != mid.Edges {
		t.Fatalf("failed batch mutated the graph: %+v -> %+v", mid, after)
	}

	// The run's input must be an entity, not an activity/agent.
	badKind := IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "carol", Command: "x", Inputs: []uint32{resp.Results[0].ID}, Outputs: []string{"y"}},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", badKind, &errResp); code != 400 {
		t.Fatalf("non-entity input: want 400, got %d", code)
	}
	if !strings.Contains(errResp.Error, "not an entity") {
		t.Fatalf("unexpected error: %q", errResp.Error)
	}
}

func TestCacheInvalidationOnWrite(t *testing.T) {
	ts, _, ids := newTestServer(t)
	seg := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["model-v2"])},
	}
	var r1, r2, r3 SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &r1)
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &r2)
	if r1.Cached || !r2.Cached {
		t.Fatalf("cache warmup broken: %v %v", r1.Cached, r2.Cached)
	}

	// A write invalidates: a new training run extends model-v2's downstream
	// history; the repeat must be re-solved, not served stale.
	ingest := IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "alice", Command: "train -v3", Inputs: []uint32{uint32(ids["model-v2"])}, Outputs: []string{"model"}},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", ingest, nil); code != 200 {
		t.Fatalf("ingest failed")
	}
	var stats StoreStats
	doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats)
	if stats.Cache.Invalidations != 1 || stats.Cache.Entries != 0 {
		t.Fatalf("write did not invalidate cache: %+v", stats.Cache)
	}
	if stats.Writes != 1 {
		t.Fatalf("write generation: %+v", stats)
	}

	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &r3)
	if r3.Cached {
		t.Fatal("post-write repeat served from stale cache")
	}
}

func TestCacheEviction(t *testing.T) {
	p, ids := testLifecycle()
	store := NewStore(p, 2) // capacity 2
	ts := httptest.NewServer(NewServer(store))
	defer ts.Close()

	reqs := []SegmentRequest{
		{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}},
		{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v2"])}},
		{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["report"])}},
	}
	for _, r := range reqs {
		doJSON(t, http.MethodPost, ts.URL+"/segment", r, nil)
	}
	var stats StoreStats
	doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &stats)
	if stats.Cache.Entries != 2 {
		t.Fatalf("LRU did not evict: %+v", stats.Cache)
	}
	// The oldest entry (reqs[0]) was evicted; the newest is still cached.
	var r SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/segment", reqs[2], &r)
	if !r.Cached {
		t.Fatal("most recent entry should still be cached")
	}
	doJSON(t, http.MethodPost, ts.URL+"/segment", reqs[0], &r)
	if r.Cached {
		t.Fatal("evicted entry should have been re-solved")
	}
}

func TestExportFormats(t *testing.T) {
	ts, _, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/export?format=prov-json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("prov-json: %v", err)
	}
	resp.Body.Close()
	if _, ok := doc["entity"]; !ok {
		t.Fatalf("prov-json missing entity map: %v", doc)
	}

	resp, err = http.Get(ts.URL + "/export?format=dot")
	if err != nil {
		t.Fatal(err)
	}
	dot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(dot), "digraph provenance") {
		t.Fatal("dot export missing header")
	}

	resp, err = http.Get(ts.URL + "/export?format=pg")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	g, err := graph.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("pg export does not round-trip: %v", err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("pg export empty")
	}

	resp, err = http.Get(ts.URL + "/export?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown format: want 400, got %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/segment")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /segment: want 405, got %d", resp.StatusCode)
	}
}

// TestReadsDontBlockOnWriteLock is the epoch-snapshot architecture's key
// property: queries never acquire the store's write lock — they load a
// snapshot pointer. The test holds the write lock for the whole duration of
// a segmentation, a summarization and a Cypher query and requires all three
// to complete while it is held.
func TestReadsDontBlockOnWriteLock(t *testing.T) {
	p, ids := testLifecycle()
	store := NewStore(p, 16)
	q := core.Query{
		Src: []graph.VertexID{ids["dataset"]},
		Dst: []graph.VertexID{ids["model-v2"]},
	}

	err := store.Update(func(rec *prov.Recorder) error {
		// The write lock is held right now. Run the read path to completion
		// on another goroutine; if it ever needed the lock this would
		// deadlock, so a timeout converts that into a test failure.
		done := make(chan error, 1)
		go func() {
			if _, _, err := store.Segment(q, core.Options{}, true); err != nil {
				done <- err
				return
			}
			if _, err := store.Summarize([]core.Query{q}, core.Options{}, core.SumOptions{}); err != nil {
				done <- err
				return
			}
			_, err := store.Cypher("match (e:E) where id(e) in [0] return e", cypher.Options{})
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("query blocked behind the held write lock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEpochRevalidation checks the incremental cache revalidation path: an
// ingest batch disconnected from a cached query's support set must carry
// the entry to the new epoch (the repeat is a cache hit, not a re-solve),
// while a batch touching the support must purge it.
func TestEpochRevalidation(t *testing.T) {
	ts, _, ids := newTestServer(t)
	seg := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["model-v2"])},
	}
	var r SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &r)
	if r.Cached {
		t.Fatal("first query cached")
	}

	// A side project by a new agent: every new edge connects only new
	// vertices, so the delta cannot touch the cached query's support set.
	side := IngestRequest{Ops: []IngestOp{
		{Op: "agent", Agent: "zoe"},
		{Op: "run", Agent: "zoe", Command: "side-work", Outputs: []string{"side-artifact"}},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", side, nil); code != 200 {
		t.Fatal("side ingest failed")
	}
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &r)
	if !r.Cached {
		t.Fatal("disconnected ingest forced a re-solve instead of revalidating")
	}
	var m MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.Cache.Revalidations != 1 || m.Cache.Invalidations != 0 {
		t.Fatalf("revalidation counters: %+v", m.Cache)
	}
	if m.Epoch != 1 {
		t.Fatalf("epoch: want 1, got %d", m.Epoch)
	}

	// A run consuming model-v2 attaches to the cached segment's support:
	// the entry must be purged and the repeat re-solved against the new
	// snapshot (here the answer happens to be unchanged — new provenance is
	// downstream of the query — but the cache must not assume that).
	nBefore := r.NumVertices
	touch := IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "alice", Command: "train -v3", Inputs: []uint32{uint32(ids["model-v2"])}, Outputs: []string{"model"}},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", touch, nil); code != 200 {
		t.Fatal("touching ingest failed")
	}
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &r)
	if r.Cached {
		t.Fatal("attached ingest did not purge the cached entry")
	}
	if r.NumVertices != nBefore {
		t.Fatalf("re-solve changed a query whose ancestry is fixed: %d vs %d", r.NumVertices, nBefore)
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.Cache.Invalidations != 1 {
		t.Fatalf("invalidation counter: %+v", m.Cache)
	}
	if m.Epoch != 2 {
		t.Fatalf("epoch: want 2, got %d", m.Epoch)
	}
}

func TestAdjustEndpoint(t *testing.T) {
	ts, _, ids := newTestServer(t)
	base := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["report"])},
	}

	// Excluding the agent vertex kind must drop every agent the base
	// segment contains, and their incident S/A edges with them.
	var baseResp SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/segment", base, &baseResp)
	agents, agentEdges := 0, 0
	for _, v := range baseResp.Vertices {
		if v.Kind == "U" {
			agents++
		}
	}
	for _, e := range baseResp.Edges {
		if e.Rel == "S" || e.Rel == "A" {
			agentEdges++
		}
	}
	if agents == 0 || agentEdges == 0 {
		t.Fatal("base segment has no agents; test premise broken")
	}
	var adj SegmentResponse
	req := AdjustRequest{Segment: base, ExcludeKinds: []string{"U"}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/adjust", req, &adj); code != 200 {
		t.Fatalf("adjust: status %d", code)
	}
	if !adj.Cached {
		t.Fatal("adjust base should have hit the entry cached by /segment")
	}
	if adj.NumVertices != baseResp.NumVertices-agents {
		t.Fatalf("exclude did not drop the %d agents: %d -> %d", agents, baseResp.NumVertices, adj.NumVertices)
	}
	for _, v := range adj.Vertices {
		if v.Kind == "U" {
			t.Fatalf("agent %d survived the exclusion", v.ID)
		}
	}

	// Excluding the S/A relationship types drops the edges but keeps the
	// (now isolated) agent vertices — the edge-level adjust.
	var relAdj SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/adjust", AdjustRequest{Segment: base, ExcludeRels: []string{"S", "A"}}, &relAdj)
	if relAdj.NumEdges != baseResp.NumEdges-agentEdges {
		t.Fatalf("rel exclude did not drop the %d agent edges: %d -> %d", agentEdges, baseResp.NumEdges, relAdj.NumEdges)
	}
	for _, e := range relAdj.Edges {
		if e.Rel == "S" || e.Rel == "A" {
			t.Fatalf("edge %d (%s) survived the exclusion", e.ID, e.Rel)
		}
	}

	// Expanding a narrower segment around the report entity must grow it.
	narrow := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["model-v1"])},
	}
	var narrowResp SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/segment", narrow, &narrowResp)
	grow := AdjustRequest{
		Segment:    narrow,
		Expansions: []ExpansionSpec{{Within: []uint32{uint32(ids["report"])}, K: 2}},
	}
	var grown SegmentResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/adjust", grow, &grown); code != 200 {
		t.Fatalf("adjust expand: status %d", code)
	}
	if grown.NumVertices <= narrowResp.NumVertices {
		t.Fatalf("expansion did not grow the segment: %d <= %d", grown.NumVertices, narrowResp.NumVertices)
	}

	// Bad requests.
	cases := []struct {
		name string
		req  any
	}{
		{"no adjustment", AdjustRequest{Segment: base}},
		{"bad rel", AdjustRequest{Segment: base, ExcludeRels: []string{"Z"}}},
		{"expansion out of range", AdjustRequest{Segment: base,
			Expansions: []ExpansionSpec{{Within: []uint32{4_000_000_000}, K: 1}}}},
		{"bad base", AdjustRequest{Segment: SegmentRequest{Dst: base.Dst}, ExcludeRels: []string{"S"}}},
	}
	for _, tc := range cases {
		var errResp ErrorResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/adjust", tc.req, &errResp); code != 400 {
			t.Errorf("%s: want 400, got %d", tc.name, code)
		}
	}

	// DOT format.
	dotReq := AdjustRequest{Segment: base, ExcludeRels: []string{"S"}, Format: "dot"}
	var dotResp SegmentResponse
	doJSON(t, http.MethodPost, ts.URL+"/adjust", dotReq, &dotResp)
	if !strings.Contains(dotResp.DOT, "digraph provenance") {
		t.Fatalf("no DOT payload: %+v", dotResp)
	}
}

// TestAdjustRepeatedKinds: a kind or relation list parses to each value at
// most once, in first-seen order, so /adjust's per-vertex kind filter costs
// at most three probes however long the list in the body; a list repeating
// "U" 100k times gets the reply ["U"] gets, byte for byte.
func TestAdjustRepeatedKinds(t *testing.T) {
	kinds, err := parseKinds([]string{"U", "u", " U ", "E", "U", "A", "E"})
	if err != nil || !slices.Equal(kinds, []prov.Kind{prov.KindAgent, prov.KindEntity, prov.KindActivity}) {
		t.Fatalf("parseKinds: %v, %v", kinds, err)
	}
	rels, err := parseRels([]string{"D", "d", "U", "G", "D", "S", "U", "A", "G"})
	if err != nil || !slices.Equal(rels, []prov.Rel{prov.RelDeriv, prov.RelUsed, prov.RelGen, prov.RelAssoc, prov.RelAttr}) {
		t.Fatalf("parseRels: %v, %v", rels, err)
	}
	if _, err := parseKinds([]string{"U", "U", "X"}); err == nil {
		t.Fatal("parseKinds accepted an unknown kind after repeats")
	}

	ts, _, ids := newTestServer(t)
	base := SegmentRequest{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["report"])}}
	many := make([]string, 100_000)
	for i := range many {
		many[i] = "U"
	}
	adjust := func(kinds []string) []byte {
		return postRaw(t, ts.URL+"/adjust", stdJSON(t, AdjustRequest{Segment: base, ExcludeKinds: kinds}))
	}
	adjust([]string{"U"}) // caches the base, so both replies below say "cached"
	want := adjust([]string{"U"})
	if got := adjust(many); !bytes.Equal(got, want) {
		t.Fatalf("exclude_kinds of 100k \"U\": %d-byte reply, want the %d bytes of [\"U\"]", len(got), len(want))
	}
}

// TestExcludedRelBlocksNeverRead pins the block-skip contract at the HTTP
// surface: when a /segment or /adjust boundary excludes relationship types,
// the excluded relations' CSR blocks are never read — core's adjacency
// returns before touching a row of an excluded relation, rather than edges
// being read and filtered after the fact. The replies are checked over HTTP,
// the rows each solve fetched on its request record (core.Work) through the
// store's segment and adjust paths on the same parsed requests.
func TestExcludedRelBlocksNeverRead(t *testing.T) {
	ts, store, ids := newTestServer(t)
	checkReads := func(what string, rows core.RowCounts, wantU bool, excluded ...string) {
		t.Helper()
		if wantU && rows[prov.RelUsed] == [2]int{} {
			t.Fatalf("%s: no U-block reads counted; the traversal never ran", what)
		}
		rels, err := parseRels(excluded)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rels {
			if rows[r] != [2]int{} {
				t.Fatalf("excluded %v block was read during %s: %v", r, what, rows)
			}
		}
	}
	noEdge := func(what string, edges []EdgeInfo, excluded ...string) {
		t.Helper()
		for _, e := range edges {
			if slices.Contains(excluded, e.Rel) {
				t.Fatalf("excluded relation %s survived %s", e.Rel, what)
			}
		}
	}

	// A fresh (uncached) /segment under an S/A/D exclusion: the traversal
	// must read U blocks but never the excluded blocks (the closures would
	// read D rows, the agent relations have no reader left at all).
	seg := SegmentRequest{
		Src:         []uint32{uint32(ids["dataset"])},
		Dst:         []uint32{uint32(ids["report"])},
		ExcludeRels: []string{"S", "A", "D"},
		NoCache:     true,
	}
	var segResp SegmentResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &segResp); code != 200 {
		t.Fatalf("segment: status %d", code)
	}
	for _, v := range segResp.Vertices {
		if v.Kind == "U" {
			t.Fatalf("agent %d in an agent-excluded segment", v.ID)
		}
	}
	noEdge("/segment", segResp.Edges, seg.ExcludeRels...)
	q, opts, err := seg.toQuery()
	if err != nil {
		t.Fatal(err)
	}
	w := new(core.Work)
	if _, _, err := store.segmentAt(w, store.Epoch(), q, opts, false); err != nil {
		t.Fatal(err)
	}
	checkReads("/segment", w.Rows, true, seg.ExcludeRels...)

	// The same contract through /adjust: the (uncached) base resolves under
	// its own A/D exclusion, then the edge-level refinement filters S out of
	// the result — no excluded block read end to end.
	adj := AdjustRequest{
		Segment: SegmentRequest{
			Src:         []uint32{uint32(ids["dataset"])},
			Dst:         []uint32{uint32(ids["model-v2"])},
			ExcludeRels: []string{"A", "D"},
		},
		ExcludeRels: []string{"S"},
	}
	var adjResp SegmentResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/adjust", adj, &adjResp); code != 200 {
		t.Fatalf("adjust: status %d", code)
	}
	noEdge("/adjust", adjResp.Edges, "S", "A", "D")
	if q, opts, err = adj.Segment.toQuery(); err != nil {
		t.Fatal(err)
	}
	rels, err := parseRels(adj.ExcludeRels)
	if err != nil {
		t.Fatal(err)
	}
	w = new(core.Work)
	if _, _, err := store.segmentAt(w, store.Epoch(), q, opts, false); err != nil {
		t.Fatal(err)
	}
	checkReads("the /adjust base", w.Rows, true, adj.Segment.ExcludeRels...)
	w = new(core.Work)
	if _, _, err := store.adjustAt(w, store.Epoch(), q, opts, core.Boundary{ExcludeRels: rels}, nil); err != nil {
		t.Fatal(err)
	}
	checkReads("/adjust", w.Rows, false, "S", "A", "D")
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, ids := newTestServer(t)
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	seg := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["model-v1"])},
	}
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, nil)
	doJSON(t, http.MethodPost, ts.URL+"/segment", seg, nil)

	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Epoch != 0 {
		t.Fatalf("epoch: %d", m.Epoch)
	}
	if m.Vertices == 0 || m.Edges == 0 {
		t.Fatalf("watermark empty: %+v", m)
	}
	if m.Requests["segment"] != 2 || m.Requests["healthz"] != 1 || m.Requests["metrics"] != 1 {
		t.Fatalf("request counters: %+v", m.Requests)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache counters: %+v", m.Cache)
	}
	if m.UptimeMillis < 0 {
		t.Fatalf("uptime: %d", m.UptimeMillis)
	}
}

// TestConcurrentMixedTraffic hammers the service with concurrent readers and
// writers; run with -race this is the subsystem's data-race proof, and it
// checks reads stay consistent (a segment response never references a vertex
// the graph doesn't have).
func TestConcurrentMixedTraffic(t *testing.T) {
	ts, store, ids := newTestServer(t)
	const (
		readers  = 8
		writers  = 2
		perGoro  = 25
		segEvery = 3
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				switch i % segEvery {
				case 0:
					req := SegmentRequest{
						Src: []uint32{uint32(ids["dataset"])},
						Dst: []uint32{uint32(ids["model-v2"])},
					}
					b, _ := json.Marshal(req)
					resp, err := http.Post(ts.URL+"/segment", "application/json", bytes.NewReader(b))
					if err != nil {
						errCh <- err
						return
					}
					var seg SegmentResponse
					err = json.NewDecoder(resp.Body).Decode(&seg)
					resp.Body.Close()
					if err != nil {
						errCh <- err
						return
					}
					if resp.StatusCode != 200 {
						errCh <- fmt.Errorf("segment status %d", resp.StatusCode)
						return
					}
					n := store.Stats().Vertices
					for _, v := range seg.Vertices {
						if int(v.ID) >= n {
							errCh <- fmt.Errorf("segment vertex %d beyond graph size %d", v.ID, n)
							return
						}
					}
				case 1:
					b, _ := json.Marshal(QueryRequest{Query: "match (e:E) where id(e) in [0, 1] return e"})
					resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
					if err != nil {
						errCh <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				default:
					resp, err := http.Get(ts.URL + "/stats")
					if err != nil {
						errCh <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(r)
	}
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				req := IngestRequest{Ops: []IngestOp{
					{Op: "run", Agent: fmt.Sprintf("w%d", wr), Command: fmt.Sprintf("step-%d", i),
						Inputs: []uint32{uint32(ids["dataset"])}, Outputs: []string{fmt.Sprintf("art-%d", wr)}},
				}}
				b, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(b))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := store.Stats()
	if st.Writes != writers*perGoro {
		t.Fatalf("want %d committed writes, got %d", writers*perGoro, st.Writes)
	}
	if err := store.Epoch().P.Validate(); err != nil {
		t.Fatalf("graph invalid after concurrent traffic: %v", err)
	}
}

// TestSummarizeCaps: type_radius and the spec count are bounded before any
// solve runs (an unbounded type_radius is a non-cancellable refinement loop).
func TestSummarizeCaps(t *testing.T) {
	ts, _, ids := newTestServer(t)
	spec := SegmentSpec{Src: []uint32{uint32(ids["dataset"])}, Dst: []uint32{uint32(ids["model-v1"])}}
	specs := func(n int) []SegmentSpec {
		out := make([]SegmentSpec, n)
		for i := range out {
			out[i] = spec
		}
		return out
	}
	for _, tc := range []struct {
		name string
		req  SummarizeRequest
		want int
	}{
		{"radius at cap", SummarizeRequest{Segments: specs(2), TypeRadius: maxSumTypeRadius}, 200},
		{"radius over cap", SummarizeRequest{Segments: specs(2), TypeRadius: maxSumTypeRadius + 1}, 400},
		{"radius huge", SummarizeRequest{Segments: specs(2), TypeRadius: 1_000_000_000}, 400},
		{"radius negative", SummarizeRequest{Segments: specs(2), TypeRadius: -1}, 400},
		{"specs at cap", SummarizeRequest{Segments: specs(maxSumSegments)}, 200},
		{"specs over cap", SummarizeRequest{Segments: specs(maxSumSegments + 1)}, 400},
	} {
		var resp struct {
			ErrorResponse
			Segments int `json:"segments"`
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/summarize", tc.req, &resp); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, resp.Error)
		}
		if tc.want == 200 && resp.Segments != len(tc.req.Segments) || tc.want != 200 && resp.Error == "" {
			t.Errorf("%s: bad body: %+v", tc.name, resp)
		}
	}
}

// TestSegmentCyclicAncestry: a U/G cycle (provd -in refuses one at boot; a
// store over an unvalidated graph can hold one) has no order of being, so
// /segment is a 422 naming the cause, not a segment.
func TestSegmentCyclicAncestry(t *testing.T) {
	p := prov.New()
	a, e := p.NewActivity("a"), p.NewEntity("e")
	p.Used(a, e)
	p.WasGeneratedBy(e, a)
	ts := httptest.NewServer(NewServer(NewStore(p, 16)))
	defer ts.Close()
	var errResp ErrorResponse
	req := SegmentRequest{Src: []uint32{uint32(e)}, Dst: []uint32{uint32(e)}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/segment", req, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%q), want 422", code, errResp.Error)
	}
	if !strings.Contains(errResp.Error, "not a DAG") {
		t.Fatalf("error %q does not name the cause", errResp.Error)
	}
}

// TestSummarizeCyclicGraph: a derivation cycle (provd -in refuses one at
// boot; a store over an unvalidated graph can hold one) used to nil-dereference in the dominance phase's reach
// guard; it is a 422 with a JSON error body.
func TestSummarizeCyclicGraph(t *testing.T) {
	p := prov.New()
	var v []graph.VertexID
	for i := 0; i < 6; i++ {
		v = append(v, p.NewEntity(fmt.Sprintf("v%d", i)))
	}
	for _, arc := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 1}, {0, 5}} { // 1 -> 2 -> 3 -> 1 is the cycle
		p.WasDerivedFrom(v[arc[0]], v[arc[1]])
	}
	ts := httptest.NewServer(NewServer(NewStore(p, 16)))
	defer ts.Close()
	req := SummarizeRequest{Segments: []SegmentSpec{{Src: []uint32{uint32(v[3]), uint32(v[5])}, Dst: []uint32{uint32(v[0]), uint32(v[4])}}}}
	var errResp ErrorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/summarize", req, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%q), want 422", code, errResp.Error)
	}
	if !strings.Contains(errResp.Error, "not a DAG") {
		t.Fatalf("error %q does not name the cause", errResp.Error)
	}
}
