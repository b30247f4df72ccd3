package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
	for deadline := time.Now().Add(2 * time.Second); reg.Default().EndpointStatsSnapshot()["segment"].OK == 0; {
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
