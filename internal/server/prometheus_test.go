package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fetchText GETs a URL with optional headers and returns status, headers and
// body.
func fetchText(t *testing.T, url string, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestPrometheusExposition is the golden test for the text exposition:
// metric names and label sets must stay stable (dashboards and scrape
// configs depend on them), and the whole body must be valid text format —
// every line is re-parsed by the tiny validator the CI scrape check uses.
func TestPrometheusExposition(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{
		DataDir:         t.TempDir(),
		CheckpointEvery: 1 << 30,
		CacheCap:        8,
	}, []string{"audit"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	defer ts.Close()

	// Traffic: ingest into both stores (exercises the commit pipeline),
	// a read, and a client error.
	dataset, model := seedShard(t, ts.URL, DefaultStore)
	seedShard(t, ts.URL, "audit")
	segReply := postRaw(t, ts.URL+"/segment", stdJSON(t, SegmentRequest{Src: []uint32{dataset}, Dst: []uint32{model}}))
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", IngestRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty ingest status %d, want 400", code)
	}
	// Completions (and their response bytes) record a beat after the client
	// has its reply; wait for the one /segment to land.
	for deadline := time.Now().Add(2 * time.Second); reg.Default().Metrics().Endpoints["segment"].OK == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the /segment completion never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, body := fetchText(t, ts.URL+"/metrics?format=prometheus", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	samples, err := obs.ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	// The stable series contract: these exact sample lines must exist.
	for _, want := range []string{
		`provd_epoch{store="default"}`,
		`provd_epoch{store="audit"}`,
		`provd_graph_vertices{store="default"}`,
		`provd_uptime_seconds{store="audit"}`,
		`provd_requests_routed_total{store="default",endpoint="ingest"}`,
		`provd_requests_total{store="default",endpoint="ingest",class="2xx"}`,
		`provd_requests_total{store="default",endpoint="ingest",class="4xx"}`,
		`provd_requests_total{store="audit",endpoint="segment",class="5xx"}`,
		`provd_http_response_bytes_total{store="default",endpoint="segment"}`,
		`provd_http_response_bytes_total{store="audit",endpoint="ingest"}`,
		`provd_request_latency_seconds_bucket{store="default",endpoint="ingest",le="+Inf"}`,
		`provd_request_latency_seconds_count{store="default",endpoint="ingest"}`,
		`provd_request_latency_quantile_seconds{store="default",endpoint="ingest",quantile="0.5"}`,
		`provd_request_latency_quantile_seconds{store="default",endpoint="ingest",quantile="0.99"}`,
		`provd_commit_stage_latency_seconds_bucket{store="default",stage="append",le="+Inf"}`,
		`provd_commit_stage_latency_seconds_count{store="default",stage="fsync"}`,
		`provd_commit_stage_latency_seconds_count{store="audit",stage="publish"}`,
		`provd_commit_stage_latency_quantile_seconds{store="default",stage="append",quantile="0.99"}`,
		`provd_cache_hits_total{store="default"}`,
		`provd_freeze_total{store="default",mode="incremental"}`,
		`provd_wal_records_total{store="default"}`,
		`provd_wal_fsyncs_total{store="audit"}`,
		`provd_checkpoints_total{store="default"}`,
		`provd_group_commit_groups_total{store="default"}`,
		`provd_group_commit_queue_wait_seconds_total{store="default"}`,
		`provd_group_commit_queue_wait_max_seconds{store="audit"}`,
		`provd_slow_queries_total`,
	} {
		if !strings.Contains(body, want+" ") {
			t.Errorf("missing series %s", want)
		}
	}

	// The ingest endpoints committed, so their quantile gauges and stage
	// histograms must carry samples; two stores must each contribute a
	// latency histogram per endpoint (11 endpoints x 2 stores).
	if got := samples["provd_request_latency_seconds_count"]; got != 22 {
		t.Errorf("latency _count series = %d, want 22", got)
	}
	if got := samples["provd_commit_stage_latency_seconds_count"]; got != 8 {
		t.Errorf("stage _count series = %d, want 8 (4 stages x 2 stores)", got)
	}

	// Accept-header negotiation selects the same exposition.
	_, hdr2, body2 := fetchText(t, ts.URL+"/metrics", map[string]string{"Accept": "text/plain"})
	if hdr2.Get("Content-Type") != obs.PromContentType {
		t.Fatalf("Accept negotiation ignored: %q", hdr2.Get("Content-Type"))
	}
	if _, err := obs.ParseExposition(strings.NewReader(body2)); err != nil {
		t.Fatalf("negotiated exposition does not parse: %v", err)
	}

	// The store-scoped spelling exposes only that store.
	_, _, scoped := fetchText(t, ts.URL+"/stores/audit/metrics?format=prometheus", nil)
	if strings.Contains(scoped, `store="default"`) {
		t.Error("store-scoped exposition leaked another store")
	}
	if !strings.Contains(scoped, `provd_epoch{store="audit"}`) {
		t.Error("store-scoped exposition missing its own store")
	}

	// And the JSON panel stays the default, now carrying the endpoint and
	// stage breakdowns.
	_, hdrJSON, bodyJSON := fetchText(t, ts.URL+"/metrics", nil)
	if ct := hdrJSON.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics Content-Type = %q", ct)
	}
	var m MetricsResponse
	if err := json.Unmarshal([]byte(bodyJSON), &m); err != nil {
		t.Fatalf("default /metrics not JSON: %v", err)
	}
	ing := m.Endpoints["ingest"]
	if ing.OK == 0 || ing.ClientErr == 0 || ing.Latency.Count == 0 {
		t.Errorf("JSON endpoint panel not populated: %+v", ing)
	}
	// Response bytes: the one /segment reply, byte for byte, in both formats;
	// error bodies count too.
	segBytes := promValue(t, body, `provd_http_response_bytes_total{store="default",endpoint="segment"}`)
	if got := m.Endpoints["segment"].ResponseBytes; got != uint64(len(segReply)) || segBytes != float64(got) {
		t.Errorf("segment response bytes: JSON %d, Prometheus %v, the reply was %d", got, segBytes, len(segReply))
	}
	if promValue(t, body, `provd_http_response_bytes_total{store="audit",endpoint="segment"}`) != 0 {
		t.Error("response bytes leaked across stores")
	}
	if ing.ResponseBytes == 0 || !strings.Contains(bodyJSON, `"response_bytes"`) {
		t.Errorf("JSON endpoint panel has no ingest response bytes: %+v", ing)
	}
	if m.Stages["append"].Count == 0 || m.Stages["publish"].Count == 0 {
		t.Errorf("JSON stage panel not populated: %+v", m.Stages)
	}
	if m.WAL == nil || !strings.Contains(bodyJSON, `"queue_wait_total_ns"`) {
		t.Error("JSON group-commit panel missing queue-wait counters")
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const promGolden = "testdata/metrics.prom"

// fillSentinels sets every numeric leaf under v (structs, and pointers to
// them, which it allocates) to the next value of *next, and every bool to
// true. Latency digests are left alone: they derive from histograms.
func fillSentinels(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillSentinels(v.Elem(), next)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(obs.LatencySummary{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillSentinels(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	}
}

// fixtureHist is a deterministic histogram: empty for seed < 0, else
// samples in three buckets chosen by seed, one of them the overflow bucket
// when seed is a multiple of 5.
func fixtureHist(seed int) obs.HistogramSnapshot {
	var h obs.HistogramSnapshot
	if seed < 0 {
		return h
	}
	lo, mid, hi := seed%obs.NumBuckets, (seed+3)%obs.NumBuckets, (seed+7)%obs.NumBuckets
	if seed%5 == 0 {
		hi = obs.NumBuckets
	}
	h.Counts[lo], h.Counts[mid], h.Counts[hi] = 5, 3, uint64(1+seed%4)
	h.Count = 8 + uint64(1+seed%4)
	h.MaxNanos = obs.BucketUpperNs(max(lo, mid, hi)) - int64(seed) - 1
	h.SumNanos = h.MaxNanos*2 + 1000003*int64(seed+1)
	return h
}

// fixtureStore is a store snapshot with every numeric leaf set from *next
// and histograms from seed; idle endpoints and stages (seed < 0) have empty
// histograms. Panels the store lacks are removed by the caller.
func fixtureStore(name string, next *int64, seed int, idle func(i int) bool) StoreMetrics {
	var m StoreMetrics
	fillSentinels(reflect.ValueOf(&m.MetricsResponse).Elem(), next)
	m.Store = name
	m.Requests = map[string]uint64{}
	m.Endpoints = map[string]EndpointStats{}
	m.Stages = map[string]obs.LatencySummary{}
	for i, ep := range endpointNames {
		var es EndpointStats
		fillSentinels(reflect.ValueOf(&es).Elem(), next)
		if idle(i) {
			es = EndpointStats{}
		} else {
			m.EndpointLatency[i] = fixtureHist(seed + 2*i)
		}
		es.Latency = m.EndpointLatency[i].Summary()
		m.Requests[ep], m.Endpoints[ep] = es.Total, es // one snapshot: they agree
	}
	for i, stage := range stageNames {
		if !idle(len(endpointNames) + i) {
			m.StageLatency[i] = fixtureHist(seed + 3*i + 1)
		}
		m.Stages[stage] = m.StageLatency[i].Summary()
	}
	return m
}

// promFixture is a fully populated registry: a durable store committing
// through the coalescer, a follower with its repl panel under a name that
// needs escaping, and a memory-only store that never committed.
func promFixture() ([]StoreMetrics, promRow) {
	next := int64(1000)
	durable := fixtureStore("default", &next, 0, func(int) bool { return false })
	durable.Repl = nil
	durable.WAL.Coalescer.Mode = "syncfs"
	follower := fixtureStore("mirror \"b\\c\"\nd", &next, 11, func(i int) bool { return i%3 == 1 })
	follower.WAL = nil
	follower.Repl.LeaderURL = "http://leader:8042"
	memory := fixtureStore("scratch", &next, 20, func(i int) bool { return i >= 4 })
	memory.WAL, memory.Repl = nil, nil
	memory.QoS.Config = QoSConfig{}
	return []StoreMetrics{durable, follower, memory}, promRow{slow: 17, coalescer: durable.WAL.Coalescer}
}

// TestPrometheusGolden pins the text exposition byte for byte on a fixed
// snapshot: family order, HELP and TYPE lines, label sets and escaping,
// value formatting, and the endpoint/stage interleaving. A change that is
// meant regenerates the golden file with
//
//	go test -run TestPrometheusGolden ./internal/server -update
//
// and says why in its description.
func TestPrometheusGolden(t *testing.T) {
	stores, reg := promFixture()
	var b strings.Builder
	if err := renderPrometheus(&b, stores, reg); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if _, err := obs.ParseExposition(strings.NewReader(got)); err != nil {
		t.Fatalf("golden exposition does not parse: %v", err)
	}
	if *update {
		if err := os.WriteFile(promGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(promGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
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
			if bad++; bad == 20 {
				t.Fatal("too many differences")
			}
		}
	}
}

// jsonOnly lists the /metrics JSON leaves (slash-separated paths, * for a
// map key or a whole digest) that have no Prometheus series.
var jsonOnly = []string{
	"wal/checkpoint_every",
	"wal/checkpoint_last_ns",
	"wal/checkpoint_total_ns",
	"wal/coalescer/sync_last_ns",
	"wal/coalescer/sync_max_ns",
	"qos/config/burst",
	"qos/config/max_queue",
	"qos/rejected",
	"endpoints/*/latency/max_ns",
	"stages/*/max_ns",
	"repl/lag/*",
}

// TestMetricCatalogueCoversPanel renders both formats from one snapshot
// whose numeric leaves all hold distinct values (requests[x] excepted: it
// is endpoints[x].total by construction) and requires every JSON leaf to
// appear as a Prometheus sample value — nanoseconds and milliseconds in
// seconds — unless jsonOnly names it. A panel field added without a series
// fails here until it gets one or is listed.
func TestMetricCatalogueCoversPanel(t *testing.T) {
	next := int64(1000)
	st := fixtureStore("default", &next, 0, func(int) bool { return false })
	st.WAL.Coalescer.Mode = "syncfs"
	var b strings.Builder
	if err := renderPrometheus(&b, []StoreMetrics{st}, promRow{slow: 17, coalescer: st.WAL.Coalescer}); err != nil {
		t.Fatal(err)
	}
	values := map[float64]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			values[v] = true
		}
	}

	raw, err := json.Marshal(st.MetricsResponse)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	listed := make([]bool, len(jsonOnly))
	var walk func(p string, v any)
	walk = func(p string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				walk(path.Join(p, k), c)
			}
		case json.Number:
			for i, pat := range jsonOnly {
				if ok, _ := path.Match(pat, p); ok {
					listed[i] = true
					return
				}
			}
			want, err := v.Float64()
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			switch {
			case strings.HasSuffix(p, "_ns"):
				want /= 1e9
			case strings.HasSuffix(p, "_ms"):
				want /= 1e3
			}
			if !values[want] {
				t.Errorf("JSON leaf %s = %s has no Prometheus sample and is not in jsonOnly", p, v)
			}
		}
	}
	walk("", doc)
	for i, pat := range jsonOnly {
		if !listed[i] {
			t.Errorf("jsonOnly entry %q matches no JSON leaf", pat)
		}
	}
}

// TestPromCatalogueDocumented requires every family of the catalogue to be
// named once in it and to appear in README.md's Metrics table.
func TestPromCatalogueDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, readme, _ = bytes.Cut(readme, []byte("**Metrics.**"))
	readme, _, _ = bytes.Cut(readme, []byte("A minimal scrape config"))
	seen := map[string]bool{}
	for _, f := range promCatalogue {
		if seen[f.name] {
			t.Errorf("family %s is in the catalogue twice", f.name)
		}
		seen[f.name] = true
		if !bytes.Contains(readme, []byte("`"+f.name+"`")) {
			t.Errorf("README.md does not list %s", f.name)
		}
	}
}
