package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/repl"
)

// Replication differential harness, in the style of the kill-replay tests
// above: a deterministic ingest script runs on a leader, a follower tails
// the wal-stream endpoint, and the connection is cut at arbitrary byte
// offsets — mid-frame, mid-header, mid-meta-window. The invariant under
// every cut is the replication analogue of crash recovery's: the follower
// is always an exact epoch prefix of the leader (same graph rows, segment
// results and lifecycle indexes as an uncrashed run of that prefix), never
// poisoned by a torn stream, and converges to the leader's head after a
// clean reconnect — or takes over entirely after promotion.

// cutTransport truncates every response body after limit bytes, then fails
// the read — a byte-exact model of a connection dropped mid-stream.
type cutTransport struct {
	base  http.RoundTripper
	limit int64
}

var errStreamCut = errors.New("repl test: stream cut")

func (c *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &cutBody{rc: resp.Body, remaining: c.limit}
	return resp, nil
}

type cutBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, errStreamCut
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }

// cyclingCutTransport cuts the k-th stream after limits[k % len] bytes —
// the flaky-network model for the reconnect chaos test. A cycle that ends
// in a generous limit guarantees every connection sequence eventually makes
// progress.
type cyclingCutTransport struct {
	base   http.RoundTripper
	limits []int64
	k      atomic.Int64
}

func (c *cyclingCutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	limit := c.limits[int(c.k.Add(1)-1)%len(c.limits)]
	resp.Body = &cutBody{rc: resp.Body, remaining: limit}
	return resp, nil
}

// countingTransport counts stream body bytes delivered — used once to size
// the cut schedule.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, n: &c.n}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// tailUntil drives one followOnce stream on f until the applied epoch
// reaches target, then tears the stream down. Batches may be committed on
// the leader while this runs (the live-tail path).
func tailUntil(t *testing.T, f *Store, hc *http.Client, target uint64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.followOnce(ctx, hc) }()
	ok := f.WaitEpoch(target, 10*time.Second)
	cancel()
	<-done
	if !ok {
		t.Fatalf("follower stuck at epoch %d short of %d", f.Epoch().N, target)
	}
}

// diffFollowerAt asserts the follower is indistinguishable from the
// reference run after j batches.
func diffFollowerAt(t *testing.T, script []scriptBatch, refSnaps []*prov.Graph, f *Store, j int) {
	t.Helper()
	if err := diffStores(refSnaps[j], refRecorderAt(script, j), f, scriptArtifacts, scriptAgents); err != nil {
		t.Fatalf("follower at epoch %d diverged: %v", j, err)
	}
}

// firstToLastEntity is the segment query from ep's first entity to its
// last.
func firstToLastEntity(ep *Epoch) core.Query {
	var ents []graph.VertexID
	for v := range ep.Vertices {
		if ep.P.IsKind(graph.VertexID(v), prov.KindEntity) {
			ents = append(ents, graph.VertexID(v))
		}
	}
	return core.Query{Src: ents[:1], Dst: ents[len(ents)-1:]}
}

// cachesAt asserts that st, at epoch n, solves q once and then serves it
// from its segment cache.
func cachesAt(t *testing.T, st *Store, q core.Query, n uint64) {
	t.Helper()
	if got := st.Epoch().N; got != n {
		t.Fatalf("store at epoch %d, want %d", got, n)
	}
	for i, want := range []bool{false, true} {
		if _, cached, err := st.Segment(q, core.Options{}, true); err != nil || cached != want {
			t.Fatalf("segment %d at epoch %d: cached=%v err=%v, want cached=%v", i, n, cached, err, want)
		}
	}
}

// TestReplStreamCutEveryOffset is the partition harness: the wal stream is
// cut at sampled byte offsets (every offset through the opening meta frame
// and the first delta, then a stride over the rest), and after each cut the
// follower must sit at an exact epoch prefix of the leader — not poisoned,
// no torn state — and converge to the head on a clean reconnect.
func TestReplStreamCutEveryOffset(t *testing.T) {
	leader := NewStore(prov.New(), 16)
	leader.EnableRepl() // before ingest, so the ring serves every epoch as deltas
	ts := httptest.NewServer(NewServer(leader))
	defer ts.Close()

	script := randomScript(42, 24)
	_, refSnaps := refRun(t, script)
	for _, b := range script {
		ingestBatch(t, leader, b)
	}
	head := leader.Epoch().N
	if head != uint64(len(script)) {
		t.Fatalf("leader at epoch %d, want %d", head, len(script))
	}

	// Size the cut schedule by streaming once cleanly.
	meter := &countingTransport{base: http.DefaultTransport}
	scout := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 16})
	tailUntil(t, scout, &http.Client{Transport: meter}, head)
	diffFollowerAt(t, script, refSnaps, scout, int(head))
	total := meter.n.Load()
	if total < 64 {
		t.Fatalf("stream only %d bytes, harness needs a real tail", total)
	}

	cuts := []int64{}
	for off := int64(1); off <= 48 && off < total; off++ {
		cuts = append(cuts, off) // every byte of the opening frames
	}
	for off := int64(49); off < total; off += total / 64 {
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		f := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 16})
		hc := &http.Client{Transport: &cutTransport{base: http.DefaultTransport, limit: cut}}
		if err := f.followOnce(context.Background(), hc); err == nil {
			t.Fatalf("cut %d: stream ended without error", cut)
		}
		j := f.Epoch().N
		if j > head {
			t.Fatalf("cut %d: follower epoch %d beyond leader head %d", cut, j, head)
		}
		if fl := f.walFail.Load(); fl != nil {
			t.Fatalf("cut %d: torn stream poisoned the follower: %v", cut, fl.err)
		}
		diffFollowerAt(t, script, refSnaps, f, int(j))

		// Clean reconnect resumes from the applied epoch and converges.
		tailUntil(t, f, ts.Client(), head)
		diffFollowerAt(t, script, refSnaps, f, int(head))
	}
}

// TestReplCheckpointSeedAndReseed covers the ring-eviction paths: a
// follower whose requested epoch has left the leader's delta ring must be
// seeded from a full checkpoint — both on first contact and on a reconnect
// after falling behind — and still end up byte-identical to the reference.
func TestReplCheckpointSeedAndReseed(t *testing.T) {
	leader := NewStore(prov.New(), 16)
	leader.hub.Store(repl.NewHub(4, 0)) // tiny ring: eviction after 4 epochs
	ts := httptest.NewServer(NewServer(leader))
	defer ts.Close()

	script := randomScript(3, 30)
	_, refSnaps := refRun(t, script)
	for _, b := range script[:20] {
		ingestBatch(t, leader, b)
	}

	// First contact from epoch 0: the ring starts at 17, so the stream must
	// open with a checkpoint frame, not deltas.
	st, err := repl.Open(context.Background(), nil, ts.URL, DefaultStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("reading seed stream: %v", err)
		}
		if ev.Kind == repl.KindMeta {
			continue
		}
		if ev.Kind != repl.KindSnapshot {
			t.Fatalf("first frame kind %v, want snapshot", ev.Kind)
		}
		if ev.Epoch != 20 {
			t.Fatalf("checkpoint at epoch %d, want 20", ev.Epoch)
		}
		break
	}
	st.Close()

	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 16})
	tailUntil(t, f, ts.Client(), 20)
	diffFollowerAt(t, script, refSnaps, f, 20)
	seeded := f.Epoch()
	diffSegmentReply(t, "seeded follower, whole graph", seeded.replies, wholeSegment(seeded.P, nil), false, "")

	// What the re-seed's install does besides swapping the snapshot, set up
	// at epoch 20: a cached segment, a reader parked for epoch 26, and a
	// hub on the follower with a chained tailer waiting for epoch 21.
	q := firstToLastEntity(seeded)
	cachesAt(t, f, q, 20)
	before := f.cache.stats()
	hub := f.EnableRepl()
	tailer := make(chan repl.WaitResult, 1)
	go func() {
		_, res := hub.WaitNext(20, 10*time.Second, nil)
		tailer <- res
	}()
	parked := make(chan bool, 1)
	go func() { parked <- f.WaitEpoch(26, 10*time.Second) }()

	// Fall behind while disconnected: 6 more epochs evict 21..22 from the
	// ring, so the reconnect must re-seed the live store from a checkpoint.
	for _, b := range script[20:26] {
		ingestBatch(t, leader, b)
	}
	tailUntil(t, f, ts.Client(), 26)
	diffFollowerAt(t, script, refSnaps, f, 26)

	// The re-seed starts a new lineage: the cache is purged (every resident
	// entry an invalidation) and misses at the new epoch, the parked reader
	// wakes, and the hub rebases, so the chained tailer must re-seed too.
	after := f.cache.stats()
	if after.Entries != 0 || after.Invalidations != before.Invalidations+uint64(before.Entries) || before.Entries == 0 {
		t.Fatalf("cache across the re-seed: %+v before, %+v after; want every resident entry invalidated", before, after)
	}
	if _, cached, err := f.Segment(q, core.Options{}, true); err != nil || cached {
		t.Fatalf("segment cached at epoch 20 after the re-seed: cached=%v err=%v", cached, err)
	}
	if !<-parked {
		t.Fatal("a WaitEpoch parked across the re-seed did not see epoch 26")
	}
	if res := <-tailer; res != repl.WaitEvicted || hub.Head() != 26 || hub.Oldest() != 27 {
		t.Fatalf("follower hub after the re-seed: tailer %v, head %d, oldest %d; want evicted, 26, 27", res, hub.Head(), hub.Oldest())
	}

	// The re-seed started a new lineage with a column of its own. A reader
	// still pinned to epoch 20 renders through, and extends, the old column
	// only.
	reseeded := f.Epoch()
	if reseeded.replies == seeded.replies || extentOf(reseeded.replies) != [2]int{} {
		t.Fatalf("the re-seed at epoch %d kept the column of epoch %d or one already filled (%v)", reseeded.N, seeded.N, extentOf(reseeded.replies))
	}
	diffSegmentReply(t, "pinned before the re-seed", seeded.replies, wholeSegment(seeded.P, func(v int) bool { return v%2 == 0 }), false, "")
	if extentOf(reseeded.replies) != [2]int{} {
		t.Fatal("a reader pinned before the re-seed extended the new lineage's column")
	}
	diffSegmentReply(t, "re-seeded follower, whole graph", reseeded.replies, wholeSegment(reseeded.P, nil), false, "")
	if extentOf(reseeded.replies) != countsOf(reseeded.P) || extentOf(seeded.replies) != countsOf(seeded.P) {
		t.Fatalf("columns at %v and %v for snapshots of %v and %v", extentOf(seeded.replies), extentOf(reseeded.replies), countsOf(seeded.P), countsOf(reseeded.P))
	}

	// And the live-tail path: commits made while the stream is attached.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.followOnce(ctx, ts.Client()) }()
	for _, b := range script[26:] {
		ingestBatch(t, leader, b)
	}
	ok := f.WaitEpoch(30, 10*time.Second)
	cancel()
	<-done
	if !ok {
		t.Fatalf("live tail stuck at epoch %d", f.Epoch().N)
	}
	diffFollowerAt(t, script, refSnaps, f, 30)
}

// TestReplReconnectChaos runs the production applier loop against a
// transport that cuts every stream at a different byte count: the follower
// must converge to the leader's head anyway, counting its reconnects, and
// remain an exact replica.
func TestReplReconnectChaos(t *testing.T) {
	leader := NewStore(prov.New(), 16)
	leader.EnableRepl()
	ts := httptest.NewServer(NewServer(leader))
	defer ts.Close()

	script := randomScript(99, 40)
	_, refSnaps := refRun(t, script)
	for _, b := range script {
		ingestBatch(t, leader, b)
	}
	head := leader.Epoch().N

	flaky := &cyclingCutTransport{
		base:   http.DefaultTransport,
		limits: []int64{41, 97, 257, 1031, 1 << 20},
	}
	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 16})
	f.startApplier(&http.Client{Transport: flaky}, 2*time.Millisecond)
	if !f.WaitEpoch(head, 20*time.Second) {
		t.Fatalf("chaos follower stuck at epoch %d short of %d", f.Epoch().N, head)
	}
	f.Close()
	if rs := f.Metrics().Repl; rs == nil || rs.Reconnects == 0 {
		t.Fatalf("flaky transport produced no reconnects: %+v", rs)
	}
	if fl := f.walFail.Load(); fl != nil {
		t.Fatalf("chaos run poisoned the follower: %v", fl.err)
	}
	diffFollowerAt(t, script, refSnaps, f, int(head))
}

// TestReplFailoverPromote is the failover drill: replicate, kill the
// leader, promote the follower, keep writing. The promoted store must carry
// the exact replicated prefix forward and refuse a second promotion.
func TestReplFailoverPromote(t *testing.T) {
	leader := NewStore(prov.New(), 16)
	ts := httptest.NewServer(NewServer(leader))

	script := randomScript(7, 30)
	_, refSnaps := refRun(t, script)

	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 16})
	f.startApplier(nil, 5*time.Millisecond)
	for _, b := range script[:20] {
		ingestBatch(t, leader, b)
	}
	if !f.WaitEpoch(20, 10*time.Second) {
		t.Fatalf("follower stuck at epoch %d", f.Epoch().N)
	}

	// Writes bounce off the follower with the leader's address.
	err := f.Update(func(rec *prov.Recorder) error { rec.Agent("mallory"); return nil })
	if !errors.Is(err, ErrFollowerWrites) {
		t.Fatalf("follower write error = %v, want ErrFollowerWrites", err)
	}

	// SIGKILL-equivalent: the leader vanishes mid-conversation and the
	// applier starts redialing. Sever the live streams first — a graceful
	// Close would wait for the wal tail we are simulating the death of.
	ts.CloseClientConnections()
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for f.Metrics().Repl.Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("applier never noticed the dead leader")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := f.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("second promote error = %v, want ErrNotFollower", err)
	}
	if rs := f.Metrics().Repl; rs == nil || rs.Follower {
		t.Fatalf("promoted store still reports follower: %+v", rs)
	}

	// The write path opens on top of the replicated prefix.
	for _, b := range script[20:] {
		ingestBatch(t, f, b)
	}
	if f.Epoch().N != 30 {
		t.Fatalf("promoted store at epoch %d, want 30", f.Epoch().N)
	}
	diffFollowerAt(t, script, refSnaps, f, 30)
}

// TestReplWALEndpointErrors pins the endpoint's failure contract: a
// malformed cursor is a 400, a cursor ahead of the leader's head is a 409
// (the follower-ahead signal a failed-over follower uses to refuse an
// outdated leader).
func TestReplWALEndpointErrors(t *testing.T) {
	leader := NewStore(prov.New(), 16)
	ts := httptest.NewServer(NewServer(leader))
	defer ts.Close()

	if code, _, _ := fetchText(t, ts.URL+"/wal?from=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad cursor status %d, want 400", code)
	}
	if code, _, _ := fetchText(t, ts.URL+"/wal?from=999", nil); code != http.StatusConflict {
		t.Fatalf("ahead cursor status %d, want 409", code)
	}
	if _, err := repl.Open(context.Background(), nil, ts.URL, DefaultStore, 999); !errors.Is(err, repl.ErrFollowerAhead) {
		t.Fatalf("client ahead error = %v, want ErrFollowerAhead", err)
	}
}

// promValue extracts one sample's value from a text exposition.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition", series)
	return 0
}

// noRedirectClient surfaces 3xx responses instead of chasing them — the
// follower redirect tests assert the 307 itself (DefaultClient would
// silently re-POST to the leader and report its 200).
var noRedirectClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// doJSONHeaders is doJSON plus request headers and response header capture.
func doJSONHeaders(t *testing.T, method, url string, hdr map[string]string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		rd = &buf
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := noRedirectClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header
}

// TestReplFollowerEndToEnd exercises the whole HTTP surface across a
// leader and a follower daemon pair: store discovery, the read-your-writes
// token, write redirects, the metrics panel in both formats (reconciled
// exactly), and promotion over HTTP.
func TestReplFollowerEndToEnd(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryOptions{
		DataDir:         t.TempDir(),
		CheckpointEvery: 1 << 30,
		CacheCap:        16,
	}, []string{"audit"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	lts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	defer lts.Close()

	freg, _, err := OpenRegistry(RegistryOptions{Leader: lts.URL + "/", CacheCap: 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer freg.Close()
	// The boot poll mirrored the leader's stores.
	if names := strings.Join(freg.Names(), ","); names != "default,audit" {
		t.Fatalf("follower booted with stores %s, want default,audit", names)
	}
	if got := freg.Default().LeaderURL(); got != lts.URL {
		t.Fatalf("follower store leader = %q, want %q", got, lts.URL)
	}
	fts := httptest.NewServer(NewMultiServerWith(freg, Options{}))
	defer fts.Close()

	// Ingest on the leader; the response's epoch is the read-your-writes
	// token.
	dataset, model := seedShard(t, lts.URL, DefaultStore)
	var ir IngestResponse
	if code := doJSON(t, http.MethodPost, lts.URL+"/ingest", IngestRequest{Ops: []IngestOp{
		{Op: "run", Agent: "u-default", Command: "rw-probe",
			Inputs: []uint32{dataset}, Outputs: []string{"rw-artifact"}},
	}}, &ir); code != http.StatusOK {
		t.Fatalf("leader ingest status %d", code)
	}
	if ir.Epoch == 0 {
		t.Fatal("ingest response carries no commit epoch")
	}

	// A follower read holding the token blocks until the applier catches up,
	// then reflects the write.
	token := strconv.FormatUint(ir.Epoch, 10)
	var sr SegmentResponse
	code, _ := doJSONHeaders(t, http.MethodPost, fts.URL+"/segment",
		map[string]string{repl.HeaderMinEpoch: token},
		SegmentRequest{Src: []uint32{dataset}, Dst: []uint32{model}}, &sr)
	if code != http.StatusOK {
		t.Fatalf("follower read with token status %d", code)
	}
	if got := freg.Default().Epoch().N; got < ir.Epoch {
		t.Fatalf("follower served epoch %d below token %d", got, ir.Epoch)
	}

	// An unreachable token fails fast with the leader's address.
	code, hdr := doJSONHeaders(t, http.MethodPost, fts.URL+"/segment",
		map[string]string{repl.HeaderMinEpoch: "100000", repl.HeaderMinEpochWait: "50"},
		SegmentRequest{Src: []uint32{dataset}, Dst: []uint32{model}}, nil)
	if code != http.StatusPreconditionFailed {
		t.Fatalf("unreachable token status %d, want 412", code)
	}
	if hdr.Get(repl.HeaderLeader) != lts.URL {
		t.Fatalf("412 leader header = %q, want %q", hdr.Get(repl.HeaderLeader), lts.URL)
	}
	// And a malformed token is a 400, not a hang.
	code, _ = doJSONHeaders(t, http.MethodPost, fts.URL+"/segment",
		map[string]string{repl.HeaderMinEpoch: "not-a-number"},
		SegmentRequest{Src: []uint32{dataset}, Dst: []uint32{model}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed token status %d, want 400", code)
	}

	// Writes redirect to the leader, with Location preserving the path.
	code, hdr = doJSONHeaders(t, http.MethodPost, fts.URL+"/ingest", nil,
		IngestRequest{Ops: []IngestOp{{Op: "agent", Agent: "x"}}}, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("follower ingest status %d, want 307", code)
	}
	if hdr.Get("Location") != lts.URL+"/ingest" || hdr.Get(repl.HeaderLeader) != lts.URL {
		t.Fatalf("redirect headers: Location=%q X-Repl-Leader=%q", hdr.Get("Location"), hdr.Get(repl.HeaderLeader))
	}
	code, _ = doJSONHeaders(t, http.MethodPut, fts.URL+"/stores/fresh", nil, nil, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("follower store create status %d, want 307", code)
	}

	// Discovery mirrors the leader's store set, including ones created after
	// the follower booted: the running loop picks "late" up within a few
	// discoveryPoll ticks.
	code, _ = doJSONHeaders(t, http.MethodPut, lts.URL+"/stores/late", nil, nil, nil)
	if code != http.StatusCreated {
		t.Fatalf("leader store create status %d", code)
	}
	deadline := time.Now().Add(3*discoveryPoll + time.Second)
	for {
		var list StoreListResponse
		if code := doJSON(t, http.MethodGet, fts.URL+"/stores", nil, &list); code != http.StatusOK {
			t.Fatalf("follower store list status %d", code)
		}
		names := map[string]bool{}
		for _, s := range list.Stores {
			names[s.Name] = true
		}
		if names[DefaultStore] && names["audit"] && names["late"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("discovery never mirrored the leader: %v", names)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if late, err := freg.Get("late"); err != nil || !late.Follower() {
		t.Fatalf("discovered store: %v", err)
	}

	// Concurrent writers on the leader while the follower tails it live:
	// once WaitEpoch returns no record lag remains, and the apply-lag
	// digest has observed the streamed records.
	const writers, perWriter = 2, 15
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := reg.Default().Update(func(rec *prov.Recorder) error {
					rec.Snapshot(fmt.Sprintf("w%d-%d", w, i))
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent leader commit: %v", err)
	}
	if !freg.Default().WaitEpoch(reg.Default().Epoch().N, 5*time.Second) {
		t.Fatal("follower never caught up with the concurrent writers")
	}
	rs := freg.Default().Metrics().Repl
	if rs == nil {
		t.Fatal("follower store has no repl stats")
	}
	if rs.LagRecords != 0 {
		t.Fatalf("follower left %d records behind after WaitEpoch", rs.LagRecords)
	}
	if rs.Lag.Count == 0 {
		t.Fatal("apply-lag histogram empty")
	}

	// Metrics: the JSON panel and the Prometheus exposition must agree
	// exactly on the repl gauges (the store is quiescent between the two
	// fetches — nothing applies, so the counters are stable).
	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, fts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("follower metrics status %d", code)
	}
	if m.Repl == nil || !m.Repl.Follower || m.Repl.LeaderURL != lts.URL {
		t.Fatalf("follower repl panel: %+v", m.Repl)
	}
	if m.Repl.AppliedEpoch != m.Epoch {
		t.Fatalf("applied epoch %d != store epoch %d", m.Repl.AppliedEpoch, m.Epoch)
	}
	_, _, prom := fetchText(t, fts.URL+"/stores/default/metrics?format=prometheus", nil)
	if _, err := obs.ParseExposition(strings.NewReader(prom)); err != nil {
		t.Fatalf("follower exposition does not parse: %v", err)
	}
	series := func(name string) string { return name + `{store="default"}` }
	for _, chk := range []struct {
		series string
		want   float64
	}{
		{series("provd_repl_follower"), 1},
		{series("provd_repl_applied_epoch"), float64(m.Repl.AppliedEpoch)},
		{series("provd_repl_leader_epoch"), float64(m.Repl.LeaderEpoch)},
		{series("provd_repl_lag_records"), float64(m.Repl.LagRecords)},
		{series("provd_repl_lag_seconds"), float64(m.Repl.LagNanos) / 1e9},
		{series("provd_repl_reconnects_total"), float64(m.Repl.Reconnects)},
	} {
		if got := promValue(t, prom, chk.series); got != chk.want {
			t.Errorf("%s = %v, JSON panel says %v", chk.series, got, chk.want)
		}
	}
	// Leader stores never followed anyone: no repl series, no JSON panel.
	_, _, leaderProm := fetchText(t, lts.URL+"/stores/default/metrics?format=prometheus", nil)
	if strings.Contains(leaderProm, "provd_repl_") {
		t.Error("leader exposition grew repl series without ever following")
	}
	var lm MetricsResponse
	if code := doJSON(t, http.MethodGet, lts.URL+"/metrics", nil, &lm); code != http.StatusOK || lm.Repl != nil {
		t.Fatalf("leader metrics: status %d repl %+v", code, lm.Repl)
	}

	// Promotion over HTTP: first wins, second conflicts, writes then land.
	var pr PromoteResponse
	code, _ = doJSONHeaders(t, http.MethodPost, fts.URL+"/promote", nil, nil, &pr)
	if code != http.StatusOK || pr.Store != DefaultStore {
		t.Fatalf("promote: status %d resp %+v", code, pr)
	}
	code, _ = doJSONHeaders(t, http.MethodPost, fts.URL+"/promote", nil, nil, nil)
	if code != http.StatusConflict {
		t.Fatalf("second promote status %d, want 409", code)
	}
	var pir IngestResponse
	if code := doJSON(t, http.MethodPost, fts.URL+"/ingest", IngestRequest{Ops: []IngestOp{
		{Op: "agent", Agent: "post-failover"},
	}}, &pir); code != http.StatusOK {
		t.Fatalf("post-promotion ingest status %d", code)
	}
	if pir.Epoch != pr.Epoch+1 {
		t.Fatalf("post-promotion epoch %d, want %d", pir.Epoch, pr.Epoch+1)
	}
	_, _, prom2 := fetchText(t, fts.URL+"/stores/default/metrics?format=prometheus", nil)
	if got := promValue(t, prom2, series("provd_repl_follower")); got != 0 {
		t.Fatalf("promoted store still exports follower=%v", got)
	}
}

// TestReplNonEmptyBaseSeedsCheckpoint pins the boot-time-graph hole: a
// leader whose epoch-0 graph was already populated (-gen / -in, or a
// recovered checkpoint) has state no ring delta reproduces, so a fresh
// from=0 follower must be seeded with a checkpoint frame even though the
// hub still covers epoch 1. Without ForceSnapshot the stream is delta-only
// and the follower silently converges to the leader's epoch with none of
// the base graph.
func TestReplNonEmptyBaseSeedsCheckpoint(t *testing.T) {
	p := prov.New()
	rec := prov.WrapRecorder(p)
	rec.Snapshot("base-artifact")
	leader := NewStore(p, 8)
	leader.EnableRepl() // hub based at 0: the ring covers every delta
	ts := httptest.NewServer(NewServer(leader))
	defer ts.Close()
	if v := leader.Epoch().Vertices; v == 0 {
		t.Fatal("test needs a non-empty epoch-0 base")
	}

	ingestBatch(t, leader, scriptBatch{{Op: "agent", Agent: "post-base"}})

	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 8})
	defer f.Close()
	tailUntil(t, f, ts.Client(), leader.Epoch().N)

	le, fe := leader.Epoch(), f.Epoch()
	if fe.N != le.N {
		t.Fatalf("follower epoch %d, leader %d", fe.N, le.N)
	}
	if fe.Vertices != le.Vertices || fe.Edges != le.Edges {
		t.Fatalf("follower %d vertices / %d edges, leader %d / %d — epoch-0 base not shipped",
			fe.Vertices, fe.Edges, le.Vertices, le.Edges)
	}

	// Chained replication: a second follower tailing the first must get the
	// same checkpoint seeding (resetReplicated propagates nonEmptyBase).
	fs := httptest.NewServer(NewServer(f))
	defer fs.Close()
	f2 := newFollowerStore(DefaultStore, RegistryOptions{Leader: fs.URL, CacheCap: 8})
	defer f2.Close()
	tailUntil(t, f2, fs.Client(), fe.N)
	if e2 := f2.Epoch(); e2.Vertices != le.Vertices || e2.Edges != le.Edges {
		t.Fatalf("chained follower %d vertices / %d edges, leader %d / %d",
			e2.Vertices, e2.Edges, le.Vertices, le.Edges)
	}
}

// memLeader serves a memory-only leader registry holding the default store
// plus extra; the server closes at cleanup, after the test's deferred
// follower Close has ended its streams.
func memLeader(t *testing.T, extra ...string) string {
	t.Helper()
	reg, _, err := OpenRegistry(RegistryOptions{CacheCap: 8}, extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts.URL
}

// TestReplPromoteClosedFollower: Close moves a follower to the closed role,
// from which Promote cannot reach the leader role — directly or over
// POST /promote.
func TestReplPromoteClosedFollower(t *testing.T) {
	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: memLeader(t), CacheCap: 4})
	ts := httptest.NewServer(NewServer(f))
	defer ts.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("promote of a closed follower: %v, want ErrNotFollower", err)
	}
	if code, _ := doJSONHeaders(t, http.MethodPost, ts.URL+"/promote", nil, nil, nil); code != http.StatusConflict {
		t.Fatalf("POST /promote on a closed follower: status %d, want 409", code)
	}
	err := f.Update(func(rec *prov.Recorder) error { rec.Agent("late"); return nil })
	if !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("write to a closed follower: %v, want ErrStoreClosed", err)
	}

	// Promote racing Close on a replicating store: whichever lands first,
	// the store ends closed with its applier stopped.
	leader := memLeader(t)
	for i := 0; i < 20; i++ {
		f := newFollowerStore(DefaultStore, RegistryOptions{Leader: leader, CacheCap: 4})
		f.startApplier(nil, time.Millisecond)
		promoted := make(chan error, 1)
		go func() { promoted <- f.Promote() }()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-promoted; err != nil && !errors.Is(err, ErrNotFollower) {
			t.Fatalf("promote racing close: %v", err)
		}
		if err := f.Update(func(rec *prov.Recorder) error { return nil }); !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("write after promote/close race: %v, want ErrStoreClosed", err)
		}
	}
}

// TestReplRefusedResetRecordsNoFreeze: the freeze panel counts only the
// checkpoints a follower publishes. A checkpoint behind the applied epoch,
// or one reaching a closed store, is refused and leaves the panel as it was.
func TestReplRefusedResetRecordsNoFreeze(t *testing.T) {
	src := NewStore(prov.New(), 4)
	if err := src.Update(func(rec *prov.Recorder) error { rec.Agent("a"); return nil }); err != nil {
		t.Fatal(err)
	}
	_, data, err := src.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: "http://leader.invalid", CacheCap: 4})
	defer f.Close()
	full := func() uint64 { return f.Metrics().Freeze.Full }
	base := full()
	if err := f.resetReplicated(5, data, 0); err != nil {
		t.Fatal(err)
	}
	if got := full(); got != base+1 {
		t.Fatalf("accepted checkpoint: full freezes %d, want %d", got, base+1)
	}
	if err := f.resetReplicated(3, data, 0); err == nil {
		t.Fatal("checkpoint behind the applied epoch accepted")
	}
	if got := full(); got != base+1 {
		t.Fatalf("refused stale checkpoint counted a freeze: full %d, want %d", got, base+1)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.resetReplicated(6, data, 0); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("checkpoint on a closed store: %v, want ErrStoreClosed", err)
	}
	if got := full(); got != base+1 {
		t.Fatalf("refused closed-store checkpoint counted a freeze: full %d, want %d", got, base+1)
	}
	if n := f.Epoch().N; n != 5 {
		t.Fatalf("epoch %d after refused checkpoints, want 5", n)
	}
}

// TestReplApplyChecksSchema: a follower appends each leader delta without
// prov.AddRel, so it checks the delta's PROV typing. A delta carrying an
// entity->entity U edge is refused and poisons the store, as an ApplyDelta
// failure does: the epoch stays unpublished and no later delta applies.
func TestReplApplyChecksSchema(t *testing.T) {
	delta := func(mistyped bool) []byte {
		p := prov.New()
		base := p.PG().Dict().Len()
		a, b := p.NewEntity("a"), p.NewEntity("b")
		if mistyped {
			p.PG().AddEdge(a, b, p.RelLabel(prov.RelUsed))
		} else {
			p.WasDerivedFrom(b, a)
		}
		var buf bytes.Buffer
		if err := p.PG().EncodeDelta(&buf, base, 0, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ok := newFollowerStore(DefaultStore, RegistryOptions{Leader: "http://leader.invalid", CacheCap: 4})
	defer ok.Close()
	if err := ok.applyReplicated(1, delta(false), 0); err != nil {
		t.Fatalf("well-typed delta refused: %v", err)
	}

	f := newFollowerStore(DefaultStore, RegistryOptions{Leader: "http://leader.invalid", CacheCap: 4})
	defer f.Close()
	err := f.applyReplicated(1, delta(true), 0)
	if err == nil || !strings.Contains(err.Error(), "used requires A -> E") {
		t.Fatalf("mistyped delta: %v, want the U edge's typing error", err)
	}
	if n := f.Epoch().N; n != 0 {
		t.Fatalf("refused delta published epoch %d", n)
	}
	if err := f.applyReplicated(1, delta(false), 0); err == nil {
		t.Fatal("a follower that refused a delta applied the next one")
	}
}
