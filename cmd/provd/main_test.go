package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// End-to-end daemon test: build the real provd binary, boot it with -data,
// create two stores over HTTP, ingest into both, SIGTERM it, boot again
// over the same directory, and require both stores back at their exact
// pre-shutdown epochs with their data intact. This is the full
// flags → registry → directory tree → recovery path, as an operator runs it.

// buildProvd compiles the daemon once per test binary.
func buildProvd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "provd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// provdProc is one running daemon.
type provdProc struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu   sync.Mutex // guards logs: the scanner goroutine appends while failure paths read
	logs bytes.Buffer
}

func (p *provdProc) appendLog(line string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.logs.WriteString(line + "\n")
}

func (p *provdProc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logs.String()
}

// startProvd boots the daemon on an OS-assigned port and waits until it
// serves /healthz. The resolved address is parsed from the startup log.
func startProvd(t *testing.T, bin string, args ...string) *provdProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &provdProc{cmd: cmd}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.appendLog(line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(20 * time.Second):
		t.Fatalf("provd never reported its address; logs:\n%s", p.logText())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("provd never became healthy; logs:\n%s", p.logText())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop SIGTERMs the daemon (the graceful path that seals WALs and writes
// final checkpoints) and waits for exit.
func (p *provdProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("provd exit: %v; logs:\n%s", err, p.logText())
		}
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("provd did not shut down; logs:\n%s", p.logText())
	}
}

// httpJSON issues one request and decodes the JSON reply.
func httpJSON(t *testing.T, method, url string, body, out any) int {
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
			t.Fatalf("bad response %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func ingestN(t *testing.T, base, store string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := server.IngestRequest{Ops: []server.IngestOp{
			{Op: "import", Agent: "op-" + store, Artifact: fmt.Sprintf("%s-file-%d", store, i), URL: "http://x"},
		}}
		var resp server.IngestResponse
		if code := httpJSON(t, http.MethodPost, base+"/stores/"+store+"/ingest", req, &resp); code != http.StatusOK {
			t.Fatalf("ingest %s #%d: status %d", store, i, code)
		}
	}
}

func storeEpoch(t *testing.T, base, store string) (uint64, int) {
	t.Helper()
	var m server.MetricsResponse
	if code := httpJSON(t, http.MethodGet, base+"/stores/"+store+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics %s: status %d", store, code)
	}
	return m.Epoch, m.Vertices
}

func TestProvdRestartRecoversStores(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon; skipped in -short")
	}
	bin := buildProvd(t)
	dataDir := t.TempDir()

	p := startProvd(t, bin, "-data", dataDir, "-checkpoint-every", "3")
	var created server.StoreCreateResponse
	for _, name := range []string{"alpha", "beta"} {
		if code := httpJSON(t, http.MethodPut, p.base+"/stores/"+name, nil, &created); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
	}
	ingestN(t, p.base, "alpha", 2)
	ingestN(t, p.base, "beta", 5)
	ingestN(t, p.base, server.DefaultStore, 1)
	wantAlphaE, wantAlphaV := storeEpoch(t, p.base, "alpha")
	wantBetaE, wantBetaV := storeEpoch(t, p.base, "beta")
	if wantAlphaE != 2 || wantBetaE != 5 {
		t.Fatalf("pre-shutdown epochs: alpha %d, beta %d", wantAlphaE, wantBetaE)
	}
	p.stop(t)

	// Second boot: no -stores flag — the directory scan must find both.
	p2 := startProvd(t, bin, "-data", dataDir, "-checkpoint-every", "3")
	var list server.StoreListResponse
	if code := httpJSON(t, http.MethodGet, p2.base+"/stores", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	names := make([]string, 0, len(list.Stores))
	for _, s := range list.Stores {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != "default,alpha,beta" {
		t.Fatalf("recovered stores %v, want [default alpha beta]", names)
	}
	if e, v := storeEpoch(t, p2.base, "alpha"); e != wantAlphaE || v != wantAlphaV {
		t.Errorf("alpha recovered to epoch %d (%d vertices), want %d (%d)", e, v, wantAlphaE, wantAlphaV)
	}
	if e, v := storeEpoch(t, p2.base, "beta"); e != wantBetaE || v != wantBetaV {
		t.Errorf("beta recovered to epoch %d (%d vertices), want %d (%d)", e, v, wantBetaE, wantBetaV)
	}
	if e, _ := storeEpoch(t, p2.base, server.DefaultStore); e != 1 {
		t.Errorf("default recovered to epoch %d, want 1", e)
	}
	// The recovered stores still serve queries and accept writes.
	var qr server.QueryResponse
	if code := httpJSON(t, http.MethodPost, p2.base+"/stores/beta/query",
		server.QueryRequest{Query: "match (e:E) return e"}, &qr); code != http.StatusOK {
		t.Fatalf("query on recovered store: status %d", code)
	}
	// beta holds 5 imports: 5 entities plus the one importing agent vertex.
	if len(qr.Rows) != 5 {
		t.Errorf("beta query returned %d entities, want 5 (vertices %d)", len(qr.Rows), wantBetaV)
	}
	ingestN(t, p2.base, "alpha", 1)
	if e, _ := storeEpoch(t, p2.base, "alpha"); e != wantAlphaE+1 {
		t.Errorf("alpha post-restart ingest landed at epoch %d, want %d", e, wantAlphaE+1)
	}
	p2.stop(t)
}

// TestProvdRefusesSeedOverState re-checks the -in/-gen guard against both
// layouts the default store's state can have: a restart over it must refuse
// the seed flags, whether it sits under <data>/default (sharded) or directly
// in <data> (pre-sharding, which a plain restart adopts).
func TestProvdRefusesSeedOverState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon; skipped in -short")
	}
	bin := buildProvd(t)
	dataDir := t.TempDir()
	p := startProvd(t, bin, "-data", dataDir)
	ingestN(t, p.base, server.DefaultStore, 1)
	p.stop(t)

	refuses := func(layout string) {
		t.Helper()
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-gen", "100")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s layout: provd accepted -gen over existing state:\n%s", layout, out)
		}
		if !strings.Contains(string(out), "already holds state") {
			t.Fatalf("%s layout: unexpected failure mode: %v\n%s", layout, err, out)
		}
	}
	refuses("sharded")

	// Move the default store's files up into <data>: the legacy layout.
	sub := filepath.Join(dataDir, server.DefaultStore)
	entries, err := os.ReadDir(sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Rename(filepath.Join(sub, e.Name()), filepath.Join(dataDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(sub); err != nil {
		t.Fatal(err)
	}
	refuses("legacy")
	p = startProvd(t, bin, "-data", dataDir)
	if epoch, _ := storeEpoch(t, p.base, server.DefaultStore); epoch != 1 {
		t.Fatalf("legacy layout: default store booted at epoch %d, want the adopted 1", epoch)
	}
	p.stop(t)
}

// TestProvdObservability boots the daemon with the observability surfaces
// wide open (-slow-ms 0 captures everything, -log-level debug, -log-json)
// and drives the full acceptance path: X-Request-ID echo, the id appearing
// in the structured logs, the slow-query ring, and a /metrics scrape in
// Prometheus text format validated line by line. CI runs this test as its
// scrape check.
func TestProvdObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon; skipped in -short")
	}
	bin := buildProvd(t)
	p := startProvd(t, bin,
		"-data", t.TempDir(),
		"-slow-ms", "0",
		"-log-level", "debug",
		"-log-json",
	)

	// Ingest with a client-supplied request id; the response must echo it.
	const reqID = "e2e-observability-1"
	body, _ := json.Marshal(server.IngestRequest{Ops: []server.IngestOp{
		{Op: "import", Agent: "op", Artifact: "file-0", URL: "http://x"},
	}})
	req, err := http.NewRequest(http.MethodPost, p.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("request id echoed as %q, want %q", got, reqID)
	}

	// The id must surface in the structured request and commit logs.
	logDeadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(p.logText(), reqID) {
		if time.Now().After(logDeadline) {
			t.Fatalf("request id %q never appeared in logs:\n%s", reqID, p.logText())
		}
		time.Sleep(50 * time.Millisecond)
	}
	logged := p.logText()
	if !strings.Contains(logged, `"msg":"request"`) {
		t.Errorf("no JSON request log line:\n%s", logged)
	}
	if !strings.Contains(logged, `"msg":"commit published"`) {
		t.Errorf("no JSON commit log line:\n%s", logged)
	}

	// -slow-ms 0: the ingest must be in the slow ring, with its id and the
	// commit-stage breakdown.
	var slow server.SlowResponse
	slowDeadline := time.Now().Add(5 * time.Second)
	for {
		if code := httpJSON(t, http.MethodGet, p.base+"/debug/slow", nil, &slow); code != http.StatusOK {
			t.Fatalf("/debug/slow status %d", code)
		}
		found := false
		for _, e := range slow.Entries {
			if e.RequestID == reqID {
				found = true
				if e.Endpoint != "ingest" || e.Stages == nil || e.Stages.PublishNanos <= 0 {
					t.Fatalf("slow entry incomplete: %+v", e)
				}
			}
		}
		if found {
			break
		}
		if time.Now().After(slowDeadline) {
			t.Fatalf("ingest never reached /debug/slow: %+v", slow)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The Prometheus scrape must be valid text exposition carrying the
	// request and commit-stage series.
	scrape, err := http.Get(p.base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if scrape.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", scrape.StatusCode)
	}
	if ct := scrape.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape Content-Type %q", ct)
	}
	samples, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("scrape is not valid exposition: %v", err)
	}
	for _, want := range []string{
		"provd_epoch",
		"provd_requests_total",
		"provd_request_latency_seconds_bucket",
		"provd_request_latency_quantile_seconds",
		"provd_commit_stage_latency_seconds_bucket",
		"provd_group_commit_queue_wait_seconds_total",
		"provd_slow_queries_total",
	} {
		if samples[want] == 0 {
			t.Errorf("scrape missing %s", want)
		}
	}
	p.stop(t)
}

// TestProvdDebugAddr boots with -debug-addr and requires the pprof index on
// the debug listener while the API listener stays pprof-free.
func TestProvdDebugAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon; skipped in -short")
	}
	bin := buildProvd(t)
	p := startProvd(t, bin, "-debug-addr", "127.0.0.1:0")

	// The debug listener's resolved address is in the startup log.
	var dbgAddr string
	deadline := time.Now().Add(5 * time.Second)
	for dbgAddr == "" {
		for _, line := range strings.Split(p.logText(), "\n") {
			if i := strings.Index(line, "pprof debug server on "); i >= 0 {
				dbgAddr = strings.TrimSpace(line[i+len("pprof debug server on "):])
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug server never announced; logs:\n%s", p.logText())
		}
	}
	resp, err := http.Get("http://" + dbgAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	// The API mux must not expose pprof.
	apiResp, err := http.Get(p.base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, apiResp.Body)
	apiResp.Body.Close()
	if apiResp.StatusCode == http.StatusOK {
		t.Fatal("API listener serves pprof; it must only live on -debug-addr")
	}
	p.stop(t)
}
