package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/prov"
)

// Admission-control tests: the GCRA rate limiter, the concurrency cap, the
// commit-queue backpressure, and the PUT /stores/{name} configuration
// surface. The timing-sensitive cases use slow rates (emission intervals of
// hundreds of milliseconds) so scheduler jitter cannot flip an admit into a
// reject or vice versa.

func TestQoSConfigValidate(t *testing.T) {
	valid := []QoSConfig{
		{},
		{RatePerSec: 10},
		{RatePerSec: 10, Burst: 3},
		{MaxConcurrent: 4},
		{MaxQueue: commitQueueCap},
		{RatePerSec: 0.5, Burst: 1, MaxConcurrent: 2, MaxQueue: 8},
	}
	for _, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	invalid := []QoSConfig{
		{RatePerSec: -1},
		{RatePerSec: 1, Burst: -1},
		{MaxConcurrent: -2},
		{MaxQueue: -1},
		{Burst: 3}, // a burst with no rate to refill it
		{MaxQueue: commitQueueCap + 1},
	}
	for _, cfg := range invalid {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cfg)
		}
	}
	// SetQoS is the only write path for configs and must apply Validate.
	s := NewStore(prov.New(), 4)
	if err := s.SetQoS(QoSConfig{Burst: 2}); err == nil {
		t.Error("SetQoS accepted a burst without a rate")
	}
}

func TestQoSRateAdmission(t *testing.T) {
	s := NewStore(prov.New(), 4)
	// Emission interval 200ms, burst 2: two admits back-to-back from idle,
	// then rejection until the bucket refills.
	if err := s.SetQoS(QoSConfig{RatePerSec: 5, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		release, _, ok := s.Admit()
		if !ok {
			t.Fatalf("admit %d refused from idle (burst 2)", i)
		}
		release()
	}
	_, retry, ok := s.Admit()
	if ok {
		t.Fatal("third immediate request conformed past the burst")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retry hint %v, want within (0, 200ms]", retry)
	}
	time.Sleep(250 * time.Millisecond) // one emission interval refills one slot
	release, _, ok := s.Admit()
	if !ok {
		t.Fatal("request refused after the bucket refilled")
	}
	release()

	st := s.Metrics().QoS
	if st.Admitted != 3 || st.RejectedRate != 1 || st.Rejected != 1 {
		t.Fatalf("qos stats after 3 admits + 1 rate reject: %+v", st)
	}
}

func TestQoSBurstDefault(t *testing.T) {
	s := NewStore(prov.New(), 4)
	for rate, wantBurst := range map[float64]int{2.5: 2, 0.5: 1, 8: 8} {
		if err := s.SetQoS(QoSConfig{RatePerSec: rate}); err != nil {
			t.Fatal(err)
		}
		if got := s.QoSConfigSnapshot().Burst; got != wantBurst {
			t.Errorf("rate %v: derived burst %d, want %d", rate, got, wantBurst)
		}
	}
}

func TestQoSConcurrencyCap(t *testing.T) {
	s := NewStore(prov.New(), 4)
	if err := s.SetQoS(QoSConfig{MaxConcurrent: 2}); err != nil {
		t.Fatal(err)
	}
	relA, _, ok := s.Admit()
	if !ok {
		t.Fatal("first admit refused")
	}
	_, _, ok = s.Admit()
	if !ok {
		t.Fatal("second admit refused under cap 2")
	}
	_, retry, ok := s.Admit()
	if ok {
		t.Fatal("third in-flight request admitted past cap 2")
	}
	if retry != concRetryAfter {
		t.Fatalf("concurrency retry hint %v, want %v", retry, concRetryAfter)
	}
	if st := s.Metrics().QoS; st.Inflight != 2 || st.RejectedConcurrency != 1 {
		t.Fatalf("qos stats at the cap: %+v", st)
	}
	relA()
	relA() // release is idempotent: a double call must not free a phantom slot
	relD, _, ok := s.Admit()
	if !ok {
		t.Fatal("admit refused after a release freed a slot")
	}
	if _, _, ok := s.Admit(); ok {
		t.Fatal("double release leaked a concurrency slot")
	}
	relD()
}

func TestSetQoSSwap(t *testing.T) {
	s := NewStore(prov.New(), 4)
	if err := s.SetQoS(QoSConfig{RatePerSec: 5, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Admit(); !ok {
		t.Fatal("burst-1 first admit refused")
	}
	if _, _, ok := s.Admit(); ok {
		t.Fatal("burst-1 second immediate admit conformed")
	}
	// Swapping in the zero config removes admission control entirely; the
	// reject counters survive the swap (they live on the store).
	if err := s.SetQoS(QoSConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := s.QoSConfigSnapshot(); got != (QoSConfig{}) {
		t.Fatalf("config after reset: %+v", got)
	}
	for i := 0; i < 10; i++ {
		release, _, ok := s.Admit()
		if !ok {
			t.Fatalf("unlimited store refused request %d", i)
		}
		release()
	}
	if st := s.Metrics().QoS; st.RejectedRate != 1 {
		t.Fatalf("reject counters reset by config swap: %+v", st)
	}
}

// TestBackpressureRejectsBeforeMutation parks the committer with a full
// (per config) commit queue and asserts the next write is refused with
// ErrBackpressure before the update closure mutates anything, then that the
// store drains and serves normally once the committer resumes.
func TestBackpressureRejectsBeforeMutation(t *testing.T) {
	s, _, err := openDurable(t.TempDir(), "", RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	holdCommits(t, s, s.Close)

	done := make(chan error, 3)
	stageWriters(t, s, 3, done, snapshotOp) // 1 held by the committer + 2 staged
	// Configure the cap only now: a lower bound set before staging could
	// reject one of the stagers themselves and leave the queue short.
	if err := s.SetQoS(QoSConfig{MaxQueue: 2}); err != nil {
		t.Fatal(err)
	}
	mutated := false
	err = s.Update(func(rec *prov.Recorder) error {
		mutated = true
		rec.Snapshot("must-not-land")
		return nil
	})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("update against a full queue: %v, want ErrBackpressure", err)
	}
	if mutated {
		t.Fatal("backpressure rejection ran the update closure")
	}
	if st := s.Metrics().QoS; st.RejectedQueue != 1 || st.QueueDepth != 2 {
		t.Fatalf("qos stats with a saturated queue: %+v", st)
	}

	s.commitHold <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("staged writer: %v", err)
		}
	}
	go func() { s.commitHold <- struct{}{} }() // release the next group too
	if err := s.Update(func(rec *prov.Recorder) error {
		rec.Snapshot("after-drain")
		return nil
	}); err != nil {
		t.Fatalf("update after the queue drained: %v", err)
	}
	if got := s.Epoch().N; got != 4 {
		t.Fatalf("epoch %d after 3 staged + 1 post-drain commits, want 4 (the rejected batch must not publish)", got)
	}
}

// TestIngestBackpressureHTTP drives the same saturation through the HTTP
// layer: the ingest must answer 429 with Retry-After and the request id,
// then succeed after the committer drains.
func TestIngestBackpressureHTTP(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{
		DataDir:         t.TempDir(),
		CheckpointEvery: 1 << 30,
		CacheCap:        8,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := reg.Default()
	holdCommits(t, st, reg.Close)
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	defer ts.Close()

	done := make(chan error, 2)
	stageWriters(t, st, 2, done, snapshotOp)
	// Cap the queue at its current depth only after staging, so the stagers
	// themselves were never subject to it.
	if err := st.SetQoS(QoSConfig{MaxQueue: 1}); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", jsonBody(t, IngestRequest{
		Ops: []IngestOp{{Op: "snapshot", Artifact: "bp-probe"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "bp-reject")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest against a full queue: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("backpressure Retry-After %q, want \"1\"", got)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "bp-reject" {
		t.Fatalf("429 echoed request id %q, want the client's", got)
	}

	st.commitHold <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("staged writer: %v", err)
		}
	}
	go func() { st.commitHold <- struct{}{} }() // release the next group too
	var ing IngestResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", IngestRequest{
		Ops: []IngestOp{{Op: "snapshot", Artifact: "bp-after"}},
	}, &ing); code != http.StatusOK {
		t.Fatalf("ingest after drain: status %d", code)
	}
	if st.Metrics().QoS.RejectedQueue != 1 {
		t.Fatalf("qos stats: %+v", st.Metrics().QoS)
	}
}

// TestStoreCreateQoSBody covers the PUT /stores/{name} configuration
// surface: create with limits, reconfigure an existing store, an empty body
// keeping the config, and an explicit zero config removing it.
func TestStoreCreateQoSBody(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	defer ts.Close()

	cfg := QoSConfig{RatePerSec: 5, Burst: 2, MaxConcurrent: 4, MaxQueue: 8}
	var created StoreCreateResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/limited",
		StoreCreateRequest{QoS: &cfg}, &created); code != http.StatusCreated {
		t.Fatalf("create with qos: status %d", code)
	}
	if !created.Created || created.QoS != cfg {
		t.Fatalf("create reply: %+v", created)
	}
	st, err := reg.Get("limited")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.QoSConfigSnapshot(); got != cfg {
		t.Fatalf("store config %+v, want %+v", got, cfg)
	}
	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/stores/limited/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.QoS.Config != cfg {
		t.Fatalf("metrics qos panel config %+v, want %+v", m.QoS.Config, cfg)
	}

	// An empty body is "open or create", never "reset the config".
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/limited", nil, &created); code != http.StatusOK {
		t.Fatalf("bare re-PUT: status %d", code)
	}
	if created.Created || created.QoS != cfg {
		t.Fatalf("bare re-PUT reply: %+v", created)
	}

	// Reconfigure in place, then remove the limits with an explicit zero.
	cfg2 := QoSConfig{RatePerSec: 50}
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/limited",
		StoreCreateRequest{QoS: &cfg2}, &created); code != http.StatusOK {
		t.Fatalf("reconfigure: status %d", code)
	}
	if created.QoS.RatePerSec != 50 || created.QoS.Burst != 50 {
		t.Fatalf("reconfigure reply (burst should derive from rate): %+v", created.QoS)
	}
	created = StoreCreateResponse{} // the zero config omits fields; decode fresh
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/limited",
		StoreCreateRequest{QoS: &QoSConfig{}}, &created); code != http.StatusOK {
		t.Fatalf("unlimit: status %d", code)
	}
	if created.QoS != (QoSConfig{}) {
		t.Fatalf("unlimit reply: %+v", created.QoS)
	}
	if got := st.QoSConfigSnapshot(); got != (QoSConfig{}) {
		t.Fatalf("store still limited after zero config: %+v", got)
	}
}

// TestRegistryDefaultQoS: a registry-wide default policy applies to boot
// stores and runtime-created stores alike, and OpenRegistry refuses an
// invalid default outright.
func TestRegistryDefaultQoS(t *testing.T) {
	def := QoSConfig{RatePerSec: 100, Burst: 10}
	reg, _, err := OpenRegistry(RegistryOptions{CacheCap: 8, DefaultQoS: def}, []string{"boot"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, name := range []string{DefaultStore, "boot"} {
		st, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.QoSConfigSnapshot(); got != def {
			t.Errorf("store %q config %+v, want the registry default %+v", name, got, def)
		}
	}
	st, createdNow, err := reg.Create("later")
	if err != nil || !createdNow {
		t.Fatalf("create: %v", err)
	}
	if got := st.QoSConfigSnapshot(); got != def {
		t.Errorf("runtime store config %+v, want the registry default %+v", got, def)
	}

	if _, _, err := OpenRegistry(RegistryOptions{CacheCap: 8, DefaultQoS: QoSConfig{Burst: 1}}, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "burst") {
		t.Fatalf("invalid default qos accepted: %v", err)
	}
}

// jsonBody marshals v for a hand-built request (when doJSON's header
// handling is not enough).
func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// TestFollowerRegistryDefaultQoS: a follower registry's stores take the
// registry's DefaultQoS like any other store's — the one found at boot and
// the one discovery creates later — and /metrics reports it.
func TestFollowerRegistryDefaultQoS(t *testing.T) {
	leader := memLeader(t)
	def := QoSConfig{MaxConcurrent: 1}
	freg, _, err := OpenRegistry(RegistryOptions{Leader: leader, CacheCap: 8, DefaultQoS: def}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer freg.Close()
	fts := httptest.NewServer(NewMultiServerWith(freg, Options{}))
	defer fts.Close()

	if code := doJSON(t, http.MethodPut, leader+"/stores/late", nil, nil); code != http.StatusCreated {
		t.Fatalf("leader store create status %d", code)
	}
	freg.discoverOnce(context.Background())
	for _, name := range []string{DefaultStore, "late"} {
		var m MetricsResponse
		if code := doJSON(t, http.MethodGet, fts.URL+"/stores/"+name+"/metrics", nil, &m); code != http.StatusOK {
			t.Fatalf("%s: metrics status %d", name, code)
		}
		if m.QoS.Config != def {
			t.Errorf("%s: qos config %+v, want the registry default %+v", name, m.QoS.Config, def)
		}
	}
}
