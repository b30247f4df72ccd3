package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/prov"
)

// TestQueryStopsWhenClientHangsUp: a client hangs up in the middle of the
// paper's Query 1 (the Cypher baseline Fig. 5a times) on Pd-40, which the
// naive evaluator runs for seconds. The handler hands the request's context
// to the evaluator, which must return within 100 ms of the hang-up, and the
// goroutine count must fall back to what it was before the request.
func TestQueryStopsWhenClientHangsUp(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 40, Seed: 1})
	src, dst := gen.DefaultQuery(p)
	st := NewStore(p, 0)
	hangUpMidRequest(t, NewServer(st), "/query",
		QueryRequest{Query: cypher.Query1(src, dst)},
		func() { time.Sleep(150 * time.Millisecond) })
	hangUpCounted(t, st, "/query")
}

// TestSegmentStopsWhenClientHangsUp: a client hangs up in the middle of an
// uncached /segment on Pd-20000 from two early entities to 256 late ones, a
// solve of up to 256 destination classes that runs for hundreds of ms. The
// handler hands the request's record (core.Work) to PgSeg, whose fork-join
// and walks poll it.
func TestSegmentStopsWhenClientHangsUp(t *testing.T) {
	p, spec := manyClassQuery()
	st := NewStore(p, 0)
	hangUpMidRequest(t, NewServer(st), "/segment", spec, untilSolving(st))
	hangUpLeftNoTrace(t, p, st, "/segment", spec)
}

// TestAdjustStopsWhenClientHangsUp: the same, through /adjust, whose base is
// solved in the request.
func TestAdjustStopsWhenClientHangsUp(t *testing.T) {
	p, spec := manyClassQuery()
	req := AdjustRequest{Segment: spec, ExcludeRels: []string{"D"},
		Expansions: []ExpansionSpec{{Within: spec.Dst[:4], K: 3}}}
	st := NewStore(p, 0)
	hangUpMidRequest(t, NewServer(st), "/adjust", req, untilSolving(st))
	hangUpLeftNoTrace(t, p, st, "/adjust", req)
}

// manyClassQuery is Pd-20000 with a query from two early entities to 256
// drawn from the later half.
func manyClassQuery() (*prov.Graph, SegmentRequest) {
	p := gen.Pd(gen.PdConfig{N: 20000, Seed: 1})
	ents := p.Entities()
	rng := rand.New(rand.NewSource(1))
	spec := SegmentRequest{Src: []uint32{uint32(ents[10]), uint32(ents[11])}}
	for range 256 {
		spec.Dst = append(spec.Dst, uint32(ents[len(ents)/2+rng.Intn(len(ents)/2)]))
	}
	return p, spec
}

// untilSolving waits until a request on st has missed the cache, so a solve
// has started, and then 20 ms more.
func untilSolving(st *Store) func() {
	return func() {
		for st.Metrics().Cache.Misses == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSummarizeStopsWhenClientHangsUp: a client hangs up on /summarize,
// once while it solves the segments and once inside PgSum.
//
//   - Among the solves: 64 distinct, uncached segments of Pd-20000 (the
//     seg_cold pool shape, several hundred ms of PgSeg), right after the
//     first solve starts. The last spec names an activity as a destination,
//     which the solver refuses: a handler that ignores the hang-up solves
//     the other 63 and then fails, instead of starting PgSum over their
//     ~850k vertex occurrences (whose ~49 GB simulation slab PgSum's byte
//     budget would refuse; see TestSummarizeByteBudget).
//   - Inside PgSum: two seg_cold pool segments of Pd-3000 at type_radius 0,
//     whose simulations run for over half a second, 100 ms after the second
//     solve starts.
//
// Either way the segments solved before the hang-up are not cached.
func TestSummarizeStopsWhenClientHangsUp(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, specs     int
		misses       uint64
		settle       time.Duration
		lastActivity bool
	}{
		{"solves", 20000, maxSumSegments - 1, 1, 0, true},
		{"pgsum", 3000, 2, 2, 100 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := gen.Pd(gen.PdConfig{N: tc.n, Seed: 1})
			ents := p.Entities()
			half := len(ents)/2 - 1
			rng := rand.New(rand.NewSource(20190001)) // benchmark/workload.go poolSeed
			seen := map[[2]int]bool{}
			var req SummarizeRequest
			for len(req.Segments) < tc.specs {
				a, b := rng.Intn(half), len(ents)-2-rng.Intn(half)
				if seen[[2]int{a, b}] {
					continue
				}
				seen[[2]int{a, b}] = true
				req.Segments = append(req.Segments, SegmentSpec{
					Src: []uint32{uint32(ents[a]), uint32(ents[a+1])},
					Dst: []uint32{uint32(ents[b]), uint32(ents[b+1])},
				})
			}
			if tc.lastActivity {
				req.Segments = append(req.Segments, SegmentSpec{
					Src: []uint32{uint32(ents[0])},
					Dst: []uint32{uint32(p.Activities()[0])},
				})
			}
			st := NewStore(p, 0)
			hangUpMidRequest(t, NewServer(st), "/summarize", req, func() {
				for st.Metrics().Cache.Misses < tc.misses {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(tc.settle)
			})
			hangUpLeftNoTrace(t, p, st, "/summarize", req)
		})
	}
}

// TestSummarizeByteBudget: a default /summarize (type_radius 0) of eight
// seg_cold-shaped Pd-20000 segments would have PgSum ask for a simulation
// slab far past its byte budget, and two such calls took the daemon's host
// down. The request gets a 422 naming the bytes asked for, within 2 s.
func TestSummarizeByteBudget(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 20000, Seed: 1})
	ents := p.Entities()
	half := len(ents)/2 - 1
	rng := rand.New(rand.NewSource(20190001)) // benchmark/workload.go poolSeed
	var req SummarizeRequest
	for range 8 {
		a, b := rng.Intn(half), len(ents)-2-rng.Intn(half)
		req.Segments = append(req.Segments, SegmentSpec{
			Src: []uint32{uint32(ents[a]), uint32(ents[a+1])},
			Dst: []uint32{uint32(ents[b]), uint32(ents[b+1])},
		})
	}
	ts := httptest.NewServer(NewServer(NewStore(p, 0)))
	defer ts.Close()
	start := time.Now()
	var errResp ErrorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/summarize", req, &errResp)
	took := time.Since(start)
	if code != http.StatusUnprocessableEntity || !strings.Contains(errResp.Error, "MiB") {
		t.Fatalf("status %d (%q), want 422 naming the bytes asked for", code, errResp.Error)
	}
	if took > 2*time.Second {
		t.Fatalf("the refusal took %v, want at most 2 s", took)
	}
}

// hangUpLeftNoTrace checks what a hung-up request on st, a store over p,
// left behind: the segment cache holds no entry, and the next identical
// request gets the reply, byte for byte, that a fresh store over p gives.
func hangUpLeftNoTrace(t *testing.T, p *prov.Graph, st *Store, path string, body any) {
	t.Helper()
	hangUpCounted(t, st, path)
	if n := st.Metrics().Cache.Entries; n != 0 {
		t.Errorf("%s: the cache holds %d entries after the hang-up, want none", path, n)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(st *Store) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		NewServer(st).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		return rec
	}
	got, want := reply(st), reply(NewStore(p, 0))
	t.Logf("%s after the hang-up: status %d, %d bytes", path, got.Code, got.Body.Len())
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s after the hang-up: status %d, %d bytes; a fresh store: status %d, %d bytes", path, got.Code, got.Body.Len(), want.Code, want.Body.Len())
	}
}

// hangUpCounted checks the /metrics panel of path's endpoint after one
// request its client hung up on: it counts as canceled (status 499), not as
// a client error, and wrote no body to the closed connection.
func hangUpCounted(t *testing.T, st *Store, path string) {
	t.Helper()
	es := st.Metrics().Endpoints[strings.TrimPrefix(path, "/")]
	if es.Canceled != 1 || es.ClientErr != 0 || es.ResponseBytes != 0 {
		t.Errorf("%s: the hang-up counts %d canceled and %d client errors and wrote %d body bytes; want 1, 0 and 0",
			path, es.Canceled, es.ClientErr, es.ResponseBytes)
	}
}

// hangUpMidRequest posts body to path and hangs up once the handler is
// running and wait has returned. It checks that the handler returns within
// 100 ms of the hang-up, that the client got no reply, and that the
// goroutine count falls back to what it was before the request.
func hangUpMidRequest(t *testing.T, srv http.Handler, path string, body any, wait func()) {
	t.Helper()
	started := make(chan struct{}, 1)
	handled := make(chan time.Time, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		srv.ServeHTTP(w, r)
		handled <- time.Now()
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-started
	wait()
	select {
	case <-handled:
		t.Fatalf("%s finished before the client hung up: nothing to stop", path)
	default:
	}
	hungUp := time.Now()
	cancel()
	select {
	case at := <-handled:
		d := at.Sub(hungUp)
		if d > 100*time.Millisecond {
			t.Errorf("%s ran on %v after the client hung up", path, d)
		}
		t.Logf("%s returned %v after the hang-up", path, d)
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still runs 5 s after the client hung up", path)
	}
	if err := <-done; err == nil {
		t.Fatal("the cancelled request got a reply")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines 2 s after the hang-up, %d before the request", n, baseline)
	}
}
