package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// Follower/failover end-to-end: two real provd binaries — a durable leader
// and a -follow replica — exercised the way an operator would run them:
// replicate live ingest across stores, read-your-writes against the
// replica, SIGKILL the leader, promote the replica, keep writing.

// noFollow surfaces 3xx instead of chasing them (the default client would
// transparently re-POST to the leader and hide the 307).
var noFollow = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// httpJSONHdr is httpJSON with request headers, response header capture,
// and no redirect-following.
func httpJSONHdr(t *testing.T, method, url string, hdr map[string]string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitStoreEpoch polls a store's metrics until its epoch reaches want.
func waitStoreEpoch(t *testing.T, base, store string, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ep, _ := storeEpoch(t, base, store)
		if ep >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store %s stuck at epoch %d short of %d", store, ep, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestProvdFollowerFailover(t *testing.T) {
	bin := buildProvd(t)
	leader := startProvd(t, bin, "-data", t.TempDir(), "-stores", "audit", "-checkpoint-every", "4")
	follower := startProvd(t, bin, "-follow", leader.base)

	// Live replication across both stores.
	ingestN(t, leader.base, "default", 12)
	ingestN(t, leader.base, "audit", 5)
	leadDef, leadDefVerts := storeEpoch(t, leader.base, "default")
	leadAud, _ := storeEpoch(t, leader.base, "audit")
	waitStoreEpoch(t, follower.base, "default", leadDef, 10*time.Second)
	waitStoreEpoch(t, follower.base, "audit", leadAud, 10*time.Second)
	if _, verts := storeEpoch(t, follower.base, "default"); verts != leadDefVerts {
		t.Fatalf("follower default store has %d vertices, leader %d", verts, leadDefVerts)
	}

	// Read-your-writes: the ingest epoch is a token any follower read can
	// present to wait for (or fail fast on).
	var ir server.IngestResponse
	if code := httpJSON(t, http.MethodPost, leader.base+"/ingest", server.IngestRequest{Ops: []server.IngestOp{
		{Op: "import", Agent: "op", Artifact: "rw-file", URL: "http://x"},
	}}, &ir); code != http.StatusOK || ir.Epoch == 0 {
		t.Fatalf("leader ingest: status %d epoch %d", code, ir.Epoch)
	}
	code, _ := httpJSONHdr(t, http.MethodGet, follower.base+"/stats",
		map[string]string{"X-Min-Epoch": strconv.FormatUint(ir.Epoch, 10)}, nil, nil)
	if code != http.StatusOK {
		t.Fatalf("follower read with token: status %d", code)
	}
	code, hdr := httpJSONHdr(t, http.MethodGet, follower.base+"/stats",
		map[string]string{"X-Min-Epoch": "100000", "X-Min-Epoch-Wait-Ms": "50"}, nil, nil)
	if code != http.StatusPreconditionFailed || hdr.Get("X-Repl-Leader") != leader.base {
		t.Fatalf("unreachable token: status %d leader header %q (want 412, %q)", code, hdr.Get("X-Repl-Leader"), leader.base)
	}

	// Writes bounce to the leader.
	code, hdr = httpJSONHdr(t, http.MethodPost, follower.base+"/ingest", nil, server.IngestRequest{Ops: []server.IngestOp{
		{Op: "agent", Agent: "x"},
	}}, nil)
	if code != http.StatusTemporaryRedirect || hdr.Get("Location") != leader.base+"/ingest" {
		t.Fatalf("follower write: status %d location %q", code, hdr.Get("Location"))
	}

	// The replica exports its lag panel.
	var m server.MetricsResponse
	if code := httpJSON(t, http.MethodGet, follower.base+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("follower metrics: status %d", code)
	}
	if m.Repl == nil || !m.Repl.Follower || m.Repl.LeaderURL != leader.base {
		t.Fatalf("follower repl panel: %+v", m.Repl)
	}

	// SIGKILL the leader: no goodbye, no final checkpoint. The replica's
	// applied prefix is now the surviving copy.
	folDef, _ := storeEpoch(t, follower.base, "default")
	if err := leader.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = leader.cmd.Process.Wait()

	// Promote both stores and verify the prefix carried over exactly.
	for _, store := range []string{"default", "audit"} {
		var pr server.PromoteResponse
		if code, _ := httpJSONHdr(t, http.MethodPost, follower.base+"/stores/"+store+"/promote", nil, nil, &pr); code != http.StatusOK {
			t.Fatalf("promote %s: status %d", store, code)
		}
		if code, _ := httpJSONHdr(t, http.MethodPost, follower.base+"/stores/"+store+"/promote", nil, nil, nil); code != http.StatusConflict {
			t.Fatalf("second promote %s: status %d, want 409", store, code)
		}
	}
	if ep, _ := storeEpoch(t, follower.base, "default"); ep != folDef {
		t.Fatalf("promotion moved the epoch: %d -> %d", folDef, ep)
	}

	// The promoted daemon takes writes and keeps counting epochs from the
	// replicated prefix.
	ingestN(t, follower.base, "default", 3)
	if ep, _ := storeEpoch(t, follower.base, "default"); ep != folDef+3 {
		t.Fatalf("post-failover epoch %d, want %d", ep, folDef+3)
	}
	if code := httpJSON(t, http.MethodGet, follower.base+"/metrics", nil, &m); code != http.StatusOK || m.Repl == nil || m.Repl.Follower {
		t.Fatalf("promoted store metrics: status %d repl %+v", code, m.Repl)
	}

	follower.stop(t)
}

// TestProvdFollowRefusesLocalState pins the flag contract: -follow with
// -data, -in, -gen or -stores must refuse to boot rather than serve two
// sources of truth (a follower's store set is the leader's too).
func TestProvdFollowRefusesLocalState(t *testing.T) {
	bin := buildProvd(t)
	for _, local := range [][]string{
		{"-data", t.TempDir()},
		{"-gen", "100"},
		{"-stores", "audit"},
	} {
		cmd := exec.Command(bin, append([]string{"-follow", "http://127.0.0.1:1"}, local...)...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("provd booted with -follow and %s; output:\n%s", local[0], out)
		}
		if !strings.Contains(string(out), "incompatible") {
			t.Fatalf("%s: unexpected refusal message:\n%s", local[0], out)
		}
	}
}
