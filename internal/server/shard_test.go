package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/prov"
	"repro/internal/wal"
)

// Sharding tests: the multi-store registry, the /stores/{name} routing, and
// — the heart of it — the cross-shard isolation hammer: N stores ingesting
// and serving concurrently must behave exactly like N daemons that have
// never heard of each other. The stores are deliberately seeded with
// IDENTICAL vertex-id structure but store-specific names, so every shard
// produces the same segment-cache keys: any cache entry leaking across
// stores would surface as another store's artifact names in a response.

func TestValidStoreName(t *testing.T) {
	for name, want := range map[string]bool{
		"default": true, "a": true, "A-1_b": true, strings.Repeat("x", 64): true,
		"": false, strings.Repeat("x", 65): false, "a/b": false, "..": false,
		".": false, "a.b": false, "a b": false, "ü": false, "a\x00b": false,
	} {
		if got := ValidStoreName(name); got != want {
			t.Errorf("ValidStoreName(%q) = %v, want %v", name, got, want)
		}
	}
}

// seedShard primes one store over HTTP with the shared id structure:
// vertex 0 = dataset entity, an activity, and a model output — names
// prefixed with the store name. Returns dataset and model vertex ids.
func seedShard(t *testing.T, url, store string) (dataset, model uint32) {
	t.Helper()
	req := IngestRequest{Ops: []IngestOp{
		{Op: "import", Agent: "u-" + store, Artifact: store + "-dataset", URL: "http://x/" + store},
	}}
	var resp IngestResponse
	if code := doJSON(t, http.MethodPost, url+"/stores/"+store+"/ingest", req, &resp); code != http.StatusOK {
		t.Fatalf("seed %s: status %d", store, code)
	}
	dataset = resp.Results[0].ID
	req = IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "u-" + store, Command: store + "-train",
			Inputs: []uint32{dataset}, Outputs: []string{store + "-model"}},
	}}
	if code := doJSON(t, http.MethodPost, url+"/stores/"+store+"/ingest", req, &resp); code != http.StatusOK {
		t.Fatalf("seed %s: status %d", store, code)
	}
	return dataset, resp.Results[0].Outputs[0]
}

// TestCrossShardIsolationHammer runs concurrent ingest, /segment, /adjust
// and /metrics traffic against 4 durable stores behind one server (group
// commit on, fsync=always) and asserts, per store: epochs only ever move
// forward, every response carries only that store's artifacts (no cache
// bleed despite identical cache keys across shards), and the final request
// and write counters match exactly what was sent to that store (no metrics
// bleed).
func TestCrossShardIsolationHammer(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{
		DataDir:         t.TempDir(),
		CheckpointEvery: 1 << 30,
		CacheCap:        32,
	}, []string{"s1", "s2", "s3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := NewMultiServerWith(reg, Options{})
	if srv.Registry() != reg || srv.Store() != reg.Default() {
		t.Fatal("server accessors disagree with the registry")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stores := []string{DefaultStore, "s1", "s2", "s3"}
	const (
		writers = 2
		readers = 2
		rounds  = 10
	)
	type shardIDs struct{ dataset, model uint32 }
	ids := map[string]shardIDs{}
	for _, name := range stores {
		d, m := seedShard(t, ts.URL, name)
		ids[name] = shardIDs{dataset: d, model: m}
		if d != ids[stores[0]].dataset || m != ids[stores[0]].model {
			t.Fatalf("store %s seeded different ids (%d,%d): the bleed check needs identical cache keys", name, d, m)
		}
	}

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
					req := IngestRequest{Ops: []IngestOp{
						{Op: "run", Agent: "u-" + name, Command: name + "-hammer",
							Inputs:  []uint32{ids[name].dataset},
							Outputs: []string{fmt.Sprintf("%s-art-%d-%d", name, w, i)}},
					}}
					var resp IngestResponse
					if code := doJSON(t, http.MethodPost, base+"/ingest", req, &resp); code != http.StatusOK {
						t.Errorf("%s: ingest status %d", name, code)
						return
					}
				}
			}()
		}
		seg := SegmentRequest{Src: []uint32{ids[name].dataset}, Dst: []uint32{ids[name].model}}
		adj := AdjustRequest{Segment: seg, ExcludeKinds: []string{"U"}}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				maxEpoch := uint64(0)
				for i := 0; i < rounds; i++ {
					for _, req := range []struct {
						path string
						body any
					}{{"/segment", seg}, {"/adjust", adj}} {
						var sr SegmentResponse
						if code := doJSON(t, http.MethodPost, base+req.path, req.body, &sr); code != http.StatusOK {
							t.Errorf("%s%s: status %d", name, req.path, code)
							return
						}
						checkSegmentConsistent(t, &sr)
						for _, v := range sr.Vertices {
							if v.Name != "" && !strings.HasPrefix(v.Name, name+"-") && !strings.HasPrefix(v.Name, "u-"+name) {
								t.Errorf("%s%s: response leaked foreign vertex %q", name, req.path, v.Name)
								return
							}
						}
					}
					var m MetricsResponse
					if code := doJSON(t, http.MethodGet, base+"/metrics", nil, &m); code != http.StatusOK {
						t.Errorf("%s: metrics status %d", name, code)
						return
					}
					if m.Store != name {
						t.Errorf("metrics for %s claim store %q", name, m.Store)
						return
					}
					if m.Epoch < maxEpoch {
						t.Errorf("%s: epoch went backwards: %d after %d", name, m.Epoch, maxEpoch)
						return
					}
					maxEpoch = m.Epoch
				}
			}()
		}
	}
	wg.Wait()

	// Exact post-hammer accounting, per store. Any counter bleeding between
	// shards breaks at least one equality.
	for _, name := range stores {
		var m MetricsResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/stores/"+name+"/metrics", nil, &m); code != http.StatusOK {
			t.Fatalf("%s: final metrics status %d", name, code)
		}
		wantEpoch := uint64(2 + writers*rounds) // 2 seed batches + hammer writes
		if m.Epoch != wantEpoch {
			t.Errorf("%s: final epoch %d, want %d", name, m.Epoch, wantEpoch)
		}
		want := map[string]uint64{
			"ingest":  2 + writers*rounds,
			"segment": readers * rounds,
			"adjust":  readers * rounds,
			"metrics": readers*rounds + 1, // + this snapshot itself
		}
		for ep, n := range want {
			if m.Requests[ep] != n {
				t.Errorf("%s: %s count %d, want %d", name, ep, m.Requests[ep], n)
			}
		}
		if m.WAL == nil || m.WAL.Records != wantEpoch {
			t.Errorf("%s: wal panel %+v, want %d records", name, m.WAL, wantEpoch)
		}
		// The shard's cache answered only its own lookups: hits+misses is
		// exactly the number of cacheable reads routed here.
		if lookups := m.Cache.Hits + m.Cache.Misses; lookups != uint64(2*readers*rounds) {
			t.Errorf("%s: cache saw %d lookups, want %d", name, lookups, 2*readers*rounds)
		}
	}
}

// TestStoreLifecycleHTTP covers PUT /stores/{name} (create, idempotent
// re-create) and GET /stores.
func TestStoreLifecycleHTTP(t *testing.T) {
	ts, _, _ := newTestServer(t)

	var created StoreCreateResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/audit", nil, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if !created.Created || created.Store != "audit" || created.Epoch != 0 {
		t.Fatalf("create reply: %+v", created)
	}
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/audit", nil, &created); code != http.StatusOK {
		t.Fatalf("re-create: status %d", code)
	}
	if created.Created {
		t.Fatal("re-create claimed to create")
	}

	var errResp ErrorResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/no.dots", nil, &errResp); code != http.StatusBadRequest {
		t.Fatalf("invalid name: status %d", code)
	}
	if errResp.Error == "" {
		t.Fatal("invalid-name error has no message")
	}

	// The new store serves immediately and is independent of the default.
	var ing IngestResponse
	req := IngestRequest{Ops: []IngestOp{{Op: "snapshot", Artifact: "ledger"}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/stores/audit/ingest", req, &ing); code != http.StatusOK {
		t.Fatalf("ingest into created store: status %d", code)
	}

	var list StoreListResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/stores", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Stores) != 2 || list.Stores[0].Name != DefaultStore || list.Stores[1].Name != "audit" {
		t.Fatalf("store list: %+v", list)
	}
	if list.Stores[1].Epoch != 1 || list.Stores[1].Vertices != 1 {
		t.Fatalf("created store state: %+v", list.Stores[1])
	}
	if list.Stores[0].Epoch != 0 {
		t.Fatalf("default store moved: %+v", list.Stores[0])
	}
}

// TestUnknownStore404Shape asserts every store-scoped endpoint rejects an
// unknown (or unspellable) store name with 404 and the uniform JSON error
// shape.
func TestUnknownStore404Shape(t *testing.T) {
	ts, _, _ := newTestServer(t)
	endpoints := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/segment", SegmentRequest{Src: []uint32{0}, Dst: []uint32{1}}},
		{http.MethodPost, "/summarize", SummarizeRequest{Segments: []SegmentSpec{{Src: []uint32{0}, Dst: []uint32{1}}}}},
		{http.MethodPost, "/query", QueryRequest{Query: "match (e:E) return e"}},
		{http.MethodPost, "/adjust", AdjustRequest{Segment: SegmentRequest{Src: []uint32{0}, Dst: []uint32{1}}, ExcludeKinds: []string{"U"}}},
		{http.MethodPost, "/ingest", IngestRequest{Ops: []IngestOp{{Op: "agent", Agent: "x"}}}},
		{http.MethodGet, "/stats", nil},
		{http.MethodGet, "/metrics", nil},
		{http.MethodGet, "/healthz", nil},
		{http.MethodGet, "/export", nil},
	}
	for _, name := range []string{"ghost", "UPPER-but-missing", "0"} {
		for _, ep := range endpoints {
			var errResp ErrorResponse
			code := doJSON(t, ep.method, ts.URL+"/stores/"+name+ep.path, ep.body, &errResp)
			if code != http.StatusNotFound {
				t.Errorf("%s /stores/%s%s: status %d, want 404", ep.method, name, ep.path, code)
				continue
			}
			if !strings.Contains(errResp.Error, "unknown store") || !strings.Contains(errResp.Error, name) {
				t.Errorf("%s /stores/%s%s: error %q lacks the uniform shape", ep.method, name, ep.path, errResp.Error)
			}
		}
	}
}

// TestStoreCreateValidation400Shape asserts PUT /stores/{name} rejects
// hostile or malformed input with the uniform JSON 400 envelope BEFORE
// touching the data directory: no store appears in the registry and no
// subdirectory is created, for bad names and bad bodies alike.
func TestStoreCreateValidation400Shape(t *testing.T) {
	dir := t.TempDir()
	reg, _, err := OpenRegistry(RegistryOptions{DataDir: dir, CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	defer ts.Close()

	dataDirEntries := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	before := dataDirEntries()

	// Bad names, escaped so each stays one path segment on the wire. The
	// traversal spellings ("..", "a/b") are unroutable by construction —
	// TestValidStoreName covers the validator directly — so the table holds
	// the shapes that DO reach the handler.
	badNames := []struct{ label, escaped string }{
		{"dots", "no.dots"},
		{"space", "sp%20ace"},
		{"unicode", "%C3%BC"},
		{"plus", "a+b"},
		{"overlong", strings.Repeat("x", 65)},
	}
	for _, tc := range badNames {
		var errResp ErrorResponse
		code := doJSON(t, http.MethodPut, ts.URL+"/stores/"+tc.escaped, nil, &errResp)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.label, code)
			continue
		}
		if !strings.Contains(errResp.Error, "invalid store name") {
			t.Errorf("%s: error %q lacks the uniform envelope", tc.label, errResp.Error)
		}
	}

	// Bad bodies on a VALID new name: validated before Create, so the store
	// must not exist afterward in the registry or on disk.
	badBodies := []struct {
		label string
		body  string
	}{
		{"syntax", `{`},
		{"unknown-field", `{"qoz":{}}`},
		{"negative-rate", `{"qos":{"rate_per_sec":-1}}`},
		{"burst-without-rate", `{"qos":{"burst":3}}`},
		{"queue-over-cap", `{"qos":{"max_queue":100000}}`},
		{"wrong-type", `{"qos":{"rate_per_sec":"fast"}}`},
	}
	for _, tc := range badBodies {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/stores/ghost", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var errResp ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
			t.Fatalf("%s: non-JSON error body: %v", tc.label, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.label, resp.StatusCode)
		}
		if errResp.Error == "" {
			t.Errorf("%s: empty error envelope", tc.label)
		}
		if _, err := reg.Get("ghost"); err == nil {
			t.Fatalf("%s: a rejected PUT created the store", tc.label)
		}
	}
	if after := dataDirEntries(); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected PUTs touched the data directory: %v -> %v", before, after)
	}

	// Control: the same name with a well-formed body creates exactly one
	// subdirectory.
	var created StoreCreateResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/stores/ghost",
		StoreCreateRequest{QoS: &QoSConfig{RatePerSec: 100}}, &created); code != http.StatusCreated {
		t.Fatalf("control create: status %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost")); err != nil {
		t.Fatalf("control create left no directory: %v", err)
	}
}

// TestRegistryDirectoryTreeRecovery boots a durable registry, ingests into
// three stores, closes, and reopens WITHOUT naming them: the directory scan
// must find and recover each store to its exact pre-shutdown epoch.
func TestRegistryDirectoryTreeRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := RegistryOptions{DataDir: dir, CheckpointEvery: 4, CacheCap: 8}
	reg, rcvs, err := OpenRegistry(opts, []string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcvs) != 3 || rcvs[0].Name != DefaultStore || !rcvs[0].Rcv.Fresh {
		t.Fatalf("initial open: %+v", rcvs)
	}
	epochs := map[string]uint64{DefaultStore: 2, "a": 5, "b": 3}
	for name, n := range epochs {
		s, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			if err := s.Update(func(rec *prov.Recorder) error {
				rec.Snapshot(fmt.Sprintf("%s-%d", name, i))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, rcvs2, err := OpenRegistry(opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if len(rcvs2) != 3 {
		t.Fatalf("reopen found %d stores: %+v", len(rcvs2), rcvs2)
	}
	for name, n := range epochs {
		s, err := reg2.Get(name)
		if err != nil {
			t.Fatalf("store %q not recovered: %v", name, err)
		}
		if got := s.Epoch().N; got != n {
			t.Errorf("store %q recovered epoch %d, want %d", name, got, n)
		}
		if got := s.Epoch().Vertices; got != int(n) {
			t.Errorf("store %q recovered %d vertices, want %d", name, got, n)
		}
	}
	if names := reg2.Names(); len(names) != 3 || names[0] != DefaultStore {
		t.Fatalf("names after reopen: %v", names)
	}
}

// TestRegistryAdoptsLegacyLayout points a registry at a pre-sharding data
// directory (WAL + checkpoints directly in the root) and expects the
// default store to adopt it in place.
func TestRegistryAdoptsLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	s, _, err := openDurable(dir, "", RegistryOptions{CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Update(func(rec *prov.Recorder) error {
			rec.Snapshot(fmt.Sprintf("legacy-%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reg, rcvs, err := OpenRegistry(RegistryOptions{DataDir: dir, CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if len(rcvs) != 1 || rcvs[0].Rcv.Fresh || rcvs[0].Rcv.Epoch != 3 {
		t.Fatalf("legacy adoption: %+v", rcvs)
	}
	if got := reg.Default().Epoch().N; got != 3 {
		t.Fatalf("adopted default at epoch %d, want 3", got)
	}
	// New sibling stores nest beneath the legacy root without clashing.
	if _, created, err := reg.Create("side"); err != nil || !created {
		t.Fatalf("create beside legacy state: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "side")); err != nil {
		t.Fatalf("side store directory: %v", err)
	}
	reg.Close()

	// State both directly in the root AND under <root>/default/ is
	// ambiguous: opening must refuse rather than silently shadow one graph
	// with the other.
	sub, _, err := openDurable(filepath.Join(dir, DefaultStore), "", RegistryOptions{CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Update(func(rec *prov.Recorder) error {
		rec.Snapshot("shadowed")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenRegistry(RegistryOptions{DataDir: dir, CacheCap: 8}, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "both directly") {
		t.Fatalf("ambiguous default layout accepted: %v", err)
	}
}

// TestRegistryCreateDurable creates a store at runtime on a durable
// registry and restarts: the created store must come back.
func TestRegistryCreateDurable(t *testing.T) {
	dir := t.TempDir()
	opts := RegistryOptions{DataDir: dir, Fsync: wal.SyncAlways, CacheCap: 8}
	reg, _, err := OpenRegistry(opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, created, err := reg.Create("runtime")
	if err != nil || !created {
		t.Fatalf("create: %v (created=%v)", err, created)
	}
	if err := st.Update(func(rec *prov.Recorder) error {
		rec.Snapshot("thing")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, again, err := reg.Create("runtime"); err != nil || again {
		t.Fatalf("re-create: %v (created=%v)", err, again)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, _, err := OpenRegistry(opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	s2, err := reg2.Get("runtime")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch().N != 1 || s2.Epoch().Vertices != 1 {
		t.Fatalf("runtime store after restart: epoch %d, %d vertices", s2.Epoch().N, s2.Epoch().Vertices)
	}
}

// TestRegistryCreateFollower: Create on a follower registry builds a store
// in the follower role, replicating the leader's same-named store, exactly
// as discovery would.
func TestRegistryCreateFollower(t *testing.T) {
	leader := memLeader(t, "audit")
	freg, _, err := OpenRegistry(RegistryOptions{Leader: leader, CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer freg.Close()
	if _, err := freg.Get("audit"); err != nil {
		t.Fatalf("boot poll missed the leader's audit store: %v", err)
	}
	st, created, err := freg.Create("extra")
	if err != nil || !created {
		t.Fatalf("create: created=%v err=%v", created, err)
	}
	if !st.Follower() || st.LeaderURL() != leader {
		t.Fatalf("created store: follower=%v leader=%q, want a follower of %q", st.Follower(), st.LeaderURL(), leader)
	}
	if err := st.Update(func(rec *prov.Recorder) error { return nil }); !errors.Is(err, ErrFollowerWrites) {
		t.Fatalf("write to a created follower store: %v, want ErrFollowerWrites", err)
	}

	// A follower registry owns no local state.
	for _, bad := range []struct {
		opts  RegistryOptions
		extra []string
	}{
		{RegistryOptions{Leader: leader, DataDir: t.TempDir()}, nil},
		{RegistryOptions{Leader: leader}, []string{"audit"}},
	} {
		if _, _, err := OpenRegistry(bad.opts, bad.extra, nil); err == nil {
			t.Fatalf("follower registry opened with local state: %+v %v", bad.opts, bad.extra)
		}
	}
}
