package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/gen"
)

// TestQueryStopsWhenClientHangsUp: a client hangs up in the middle of the
// paper's Query 1 (the Cypher baseline Fig. 5a times) on Pd-40, which the
// naive evaluator runs for seconds. The handler hands the request's context
// to the evaluator, which must return within 100 ms of the hang-up, and the
// goroutine count must fall back to what it was before the request.
func TestQueryStopsWhenClientHangsUp(t *testing.T) {
	p := gen.Pd(gen.PdConfig{N: 40, Seed: 1})
	src, dst := gen.DefaultQuery(p)
	srv := NewServer(NewStore(p, 0))
	started := make(chan struct{}, 1)
	handled := make(chan time.Time, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		srv.ServeHTTP(w, r)
		handled <- time.Now()
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	body, err := json.Marshal(QueryRequest{Query: cypher.Query1(src, dst)})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
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
	time.Sleep(150 * time.Millisecond)
	select {
	case <-handled:
		t.Fatal("the query finished before the client hung up: nothing to stop")
	default:
	}
	hungUp := time.Now()
	cancel()
	select {
	case at := <-handled:
		if d := at.Sub(hungUp); d > 100*time.Millisecond {
			t.Errorf("the evaluation ran on %v after the client hung up", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the evaluation still runs 5 s after the client hung up")
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
