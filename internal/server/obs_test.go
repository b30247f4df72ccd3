package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSONWithID is doJSON plus request-id plumbing: it sends the given
// X-Request-ID (when non-empty) and returns the echoed one with the status.
func doJSONWithID(t *testing.T, method, url, reqID string, body, out any) (int, string) {
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
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
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
	return resp.StatusCode, resp.Header.Get("X-Request-ID")
}

// TestQoSRejectionObservability proves admission rejections are first-class
// citizens of the observability pipeline: a 429 echoes the client's request
// id, carries a delay-seconds Retry-After, lands in the endpoint's
// status-class counters AND its latency histogram (so the hammer's
// totals == class-sum == histogram-count reconciliation stays exact under
// throttling), and shows up in the /metrics qos panel — while the exempt
// metrics/healthz endpoints keep answering on the throttled store.
func TestQoSRejectionObservability(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	defer ts.Close()
	st := reg.Default()
	// One request per 10s, burst 1: the first /stats conforms, everything
	// after is a deterministic 429 for the remainder of the test.
	if err := st.SetQoS(QoSConfig{RatePerSec: 0.1, Burst: 1}); err != nil {
		t.Fatal(err)
	}

	code, echoed := doJSONWithID(t, http.MethodGet, ts.URL+"/stats", "qos-ok", nil, nil)
	if code != http.StatusOK || echoed != "qos-ok" {
		t.Fatalf("first request: status %d, id %q", code, echoed)
	}
	const rejects = 3
	for i := 0; i < rejects; i++ {
		id := fmt.Sprintf("qos-rej-%d", i)
		var errResp ErrorResponse
		code, echoed := doJSONWithID(t, http.MethodGet, ts.URL+"/stats", id, nil, &errResp)
		if code != http.StatusTooManyRequests {
			t.Fatalf("throttled request %d: status %d, want 429", i, code)
		}
		if echoed != id {
			t.Fatalf("429 %d echoed id %q, want %q", i, echoed, id)
		}
		if errResp.Error == "" {
			t.Fatalf("429 %d carried no JSON error envelope", i)
		}
	}
	// Raw request for the headers doJSONWithID does not surface: Retry-After
	// must be delay-seconds (an integer >= 1, within the 10s refill).
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "qos-rej-raw")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw throttled request: status %d", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 10 {
		t.Fatalf("Retry-After %q, want an integer in [1,10]", resp.Header.Get("Retry-After"))
	}
	if got := resp.Header.Get("X-Request-ID"); got != "qos-rej-raw" {
		t.Fatalf("raw 429 echoed id %q", got)
	}

	// The exempt endpoints answer regardless — they are how a throttled
	// store is observed.
	for _, path := range []string{"/metrics", "/healthz"} {
		if code := doJSON(t, http.MethodGet, ts.URL+path, nil, &struct{}{}); code != http.StatusOK {
			t.Fatalf("exempt %s on a throttled store: status %d", path, code)
		}
	}

	// Exact reconciliation, including the rejections: classes and latency
	// record on completion, so poll briefly as the hammer does.
	const totalStats = 1 + rejects + 1 // the OK + the loop's 429s + the raw 429
	deadline := time.Now().Add(2 * time.Second)
	for {
		ep := st.Metrics().Endpoints["stats"]
		if ep.Total == totalStats && ep.Total == ep.OK+ep.ClientErr+ep.ServerErr+ep.Canceled && ep.Latency.Count == totalStats {
			if ep.OK != 1 || ep.ClientErr != rejects+1 {
				t.Fatalf("stats classes: %+v, want 1 OK / %d client errors", ep, rejects+1)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("429s never reconciled into the endpoint counters: %+v", ep)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.QoS.Admitted != 1 || m.QoS.RejectedRate != rejects+1 || m.QoS.Rejected != rejects+1 {
		t.Fatalf("qos panel: %+v", m.QoS)
	}
	if m.QoS.Config.RatePerSec != 0.1 {
		t.Fatalf("qos panel config: %+v", m.QoS.Config)
	}
}

// TestObservabilityHammer drives mixed load — successful ingest with
// client-supplied request ids, reads, and malformed requests — at 4 durable
// stores concurrently, then asserts the counters reconcile exactly: per
// store and endpoint, the routed total equals the status-class sum equals
// the latency histogram's sample count, with the class split matching the
// load that was sent. Run under -race this is also the proof that the
// atomics-only instrumentation is race-clean.
func TestObservabilityHammer(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{
		DataDir:         t.TempDir(),
		CheckpointEvery: 1 << 30,
		CacheCap:        16,
	}, []string{"s1", "s2", "s3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// SlowThreshold 1ns: every request is "slow", so the ring and the stage
	// breakdown get exercised by the same load.
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{SlowThreshold: time.Nanosecond}))
	defer ts.Close()

	stores := []string{DefaultStore, "s1", "s2", "s3"}
	type shardIDs struct{ dataset, model uint32 }
	ids := map[string]shardIDs{}
	for _, name := range stores {
		d, m := seedShard(t, ts.URL, name)
		ids[name] = shardIDs{dataset: d, model: m}
	}
	const (
		writers   = 2
		readers   = 2
		rounds    = 8
		badRounds = 4 // malformed ingests per store (the 4xx population)
	)

	var wg sync.WaitGroup
	for _, name := range stores {
		name := name
		base := ts.URL + "/stores/" + name
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					id := fmt.Sprintf("hammer-%s-%d-%d", name, w, i)
					req := IngestRequest{Ops: []IngestOp{
						{Op: "run", Agent: "u-" + name, Command: "hammer",
							Inputs:  []uint32{ids[name].dataset},
							Outputs: []string{fmt.Sprintf("%s-a-%d-%d", name, w, i)}},
					}}
					code, echoed := doJSONWithID(t, http.MethodPost, base+"/ingest", id, req, nil)
					if code != http.StatusOK {
						t.Errorf("%s: ingest status %d", name, code)
						return
					}
					if echoed != id {
						t.Errorf("%s: request id %q echoed as %q", name, id, echoed)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < badRounds; i++ {
				// Empty op batch: a deterministic 400.
				code, echoed := doJSONWithID(t, http.MethodPost, base+"/ingest", "", IngestRequest{}, nil)
				if code != http.StatusBadRequest {
					t.Errorf("%s: bad ingest status %d, want 400", name, code)
					return
				}
				if echoed == "" {
					t.Errorf("%s: no generated request id on error response", name)
					return
				}
				// An unacceptable client id must be replaced, not echoed.
				code, echoed = doJSONWithID(t, http.MethodGet, base+"/stats", "bad id with spaces", nil, nil)
				if code != http.StatusOK || echoed == "" || echoed == "bad id with spaces" {
					t.Errorf("%s: invalid client id handling: status %d, echoed %q", name, code, echoed)
					return
				}
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					var sr SegmentResponse
					if code := doJSON(t, http.MethodPost, base+"/segment",
						SegmentRequest{Src: []uint32{ids[name].dataset}, Dst: []uint32{ids[name].model}}, &sr); code != http.StatusOK {
						t.Errorf("%s: segment status %d", name, code)
						return
					}
					var m MetricsResponse
					if code := doJSON(t, http.MethodGet, base+"/metrics", nil, &m); code != http.StatusOK {
						t.Errorf("%s: metrics status %d", name, code)
						return
					}
					// Every scrape is one snapshot: the routed totals agree
					// across the panel, and no endpoint shows more
					// completions than routed requests.
					for ep, es := range m.Endpoints {
						if m.Requests[ep] != es.Total || es.OK+es.ClientErr+es.ServerErr+es.Canceled > es.Total {
							t.Errorf("%s: /metrics %s: requests %d, endpoint panel %+v", name, ep, m.Requests[ep], es)
						}
					}
					if err := checkPromInflight(base + "/metrics?format=prometheus"); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}()
		}
	}
	wg.Wait()

	// Totals bump at routing time, classes and latency on completion — and a
	// client can read its response a beat before the server-side wrapper
	// finishes recording. Poll briefly until the counters agree.
	for _, name := range stores {
		st, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			eps := st.Metrics().Endpoints
			ok := true
			for _, ep := range eps {
				if ep.Total != ep.OK+ep.ClientErr+ep.ServerErr+ep.Canceled || ep.Total != ep.Latency.Count {
					ok = false
				}
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: counters never reconciled: %+v", name, eps)
			}
			time.Sleep(5 * time.Millisecond)
		}

		eps := st.Metrics().Endpoints
		ing := eps["ingest"]
		wantOK := uint64(2 + writers*rounds) // 2 seed batches + hammer
		if ing.OK != wantOK || ing.ClientErr != badRounds || ing.ServerErr != 0 {
			t.Errorf("%s: ingest classes = %+v, want %d/%d/0", name, ing, wantOK, badRounds)
		}
		if ing.Total != wantOK+badRounds {
			t.Errorf("%s: ingest total = %d, want %d", name, ing.Total, wantOK+badRounds)
		}
		seg := eps["segment"]
		if seg.OK != readers*rounds || seg.Latency.Count != readers*rounds {
			t.Errorf("%s: segment = %+v, want %d OK", name, seg, readers*rounds)
		}
		stats := eps["stats"]
		if stats.OK != badRounds {
			t.Errorf("%s: stats = %+v, want %d OK", name, stats, badRounds)
		}
		if ing.Latency.P50Nanos <= 0 || ing.Latency.P99Nanos < ing.Latency.P50Nanos ||
			ing.Latency.MaxNanos < ing.Latency.P99Nanos {
			t.Errorf("%s: ingest latency digest not monotone: %+v", name, ing.Latency)
		}

		// Every committed batch flowed through the whole pipeline: the stage
		// histograms must hold one sample per commit for publish (and per
		// group <= commits for append/fsync), and queue waits were recorded.
		stages := st.Metrics().Stages
		commits := uint64(2 + writers*rounds)
		if stages["publish"].Count != commits {
			t.Errorf("%s: publish samples = %d, want %d", name, stages["publish"].Count, commits)
		}
		if stages["enqueue"].Count != commits {
			t.Errorf("%s: enqueue samples = %d, want %d (every batch queue-waits under group commit)",
				name, stages["enqueue"].Count, commits)
		}
		if n := stages["append"].Count; n == 0 || n > commits {
			t.Errorf("%s: append samples = %d, want within (0, %d]", name, n, commits)
		}
		if n := stages["fsync"].Count; n == 0 || n > stages["append"].Count {
			t.Errorf("%s: fsync samples = %d, want within (0, %d]", name, n, stages["append"].Count)
		}
		ds := st.Metrics().WAL
		if ds.GroupCommit.QueueWaitTotalNanos < 0 || ds.GroupCommit.QueueWaitMaxNanos < ds.GroupCommit.QueueWaitLastNanos {
			t.Errorf("%s: queue-wait counters inconsistent: %+v", name, ds.GroupCommit)
		}
	}

	// The 1ns threshold put every request in the slow ring. The ring only
	// holds the newest slowRingCap of the hammer's requests, so park one known ingest
	// at the head before inspecting it.
	code, _ := doJSONWithID(t, http.MethodPost, ts.URL+"/ingest", "slow-probe", IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "u-default", Command: "probe",
			Inputs:  []uint32{ids[DefaultStore].dataset},
			Outputs: []string{"probe-artifact"}},
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("probe ingest status %d", code)
	}
	// The ring add runs after the handler wrote the response, so poll until
	// the probe's entry lands. (Newest-first is by insertion, which
	// interleaves freely with request start times under concurrency — the
	// deterministic ordering contract is covered by the obs ring tests.)
	deadline := time.Now().Add(2 * time.Second)
	for {
		var slow SlowResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/debug/slow", nil, &slow); code != http.StatusOK {
			t.Fatalf("/debug/slow status %d", code)
		}
		if slow.Total == 0 || len(slow.Entries) == 0 || len(slow.Entries) > slowRingCap {
			t.Fatalf("slow ring: total %d, %d entries", slow.Total, len(slow.Entries))
		}
		var sawProbe bool
		for i, e := range slow.Entries {
			if e.RequestID == "" || e.Store == "" || e.Endpoint == "" || e.Shape == "" || e.Time.IsZero() {
				t.Fatalf("slow entry %d incomplete: %+v", i, e)
			}
			if e.RequestID == "slow-probe" {
				sawProbe = true
				if e.Endpoint != "ingest" || e.Status != http.StatusOK || e.Stages == nil {
					t.Fatalf("probe entry wrong: %+v", e)
				}
				if e.Stages.PublishNanos <= 0 {
					t.Fatalf("probe entry missing stage timings: %+v", e.Stages)
				}
			}
		}
		if sawProbe {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe ingest never reached the slow ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkPromInflight scrapes a store's Prometheus exposition and checks that
// no endpoint's status-class completions sum to more than its routed total.
func checkPromInflight(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	routed, done := map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		series, val, _ := strings.Cut(line, " ")
		_, ep, _ := strings.Cut(series, `endpoint="`)
		ep, _, _ = strings.Cut(ep, `"`)
		switch {
		case strings.HasPrefix(series, "provd_requests_routed_total{"):
			routed[ep], err = strconv.ParseFloat(val, 64)
		case strings.HasPrefix(series, "provd_requests_total{"):
			var v float64
			v, err = strconv.ParseFloat(val, 64)
			done[ep] += v
		}
		if err != nil {
			return fmt.Errorf("sample %q: %v", line, err)
		}
	}
	if len(routed) != len(endpoints) {
		return fmt.Errorf("exposition has routed totals for %d endpoints, want %d", len(routed), len(endpoints))
	}
	for ep, n := range done {
		if n > routed[ep] {
			return fmt.Errorf("prometheus %s: %v completions, %v routed", ep, n, routed[ep])
		}
	}
	return nil
}
