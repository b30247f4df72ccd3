package server

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/prov"
)

const (
	replyScript = "testdata/replies.script"
	replyGolden = "testdata/replies.golden"
)

// goldenHeaders are the response headers a golden line records; the rest
// (Date, X-Request-ID) vary between runs.
var goldenHeaders = []string{"Content-Type", "Retry-After", "Location", "X-Repl-Leader"}

// variesByName names the script requests whose bodies hold timings or
// uptime: their status and headers are compared, their bodies are not.
var variesByName = map[string]bool{"stats": true, "metrics": true, "metrics.prom": true}

// scriptRequest is one line of testdata/replies.script.
type scriptRequest struct {
	name, method, path, body string
	header                   http.Header
}

func readReplyScript(t *testing.T) []scriptRequest {
	t.Helper()
	f, err := os.Open(replyScript)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reqs []scriptRequest
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " | ", 4)
		method, path, ok := strings.Cut(fields[min(1, len(fields)-1)], " ")
		if len(fields) != 4 || !ok {
			t.Fatalf("%s:%d: want name | METHOD path | headers | body", replyScript, n)
		}
		r := scriptRequest{name: fields[0], method: method, path: path, header: http.Header{}}
		if fields[2] != "-" {
			for _, h := range strings.Split(fields[2], "; ") {
				k, v, ok := strings.Cut(h, ": ")
				if !ok {
					t.Fatalf("%s:%d: bad header %q", replyScript, n, h)
				}
				r.header.Set(k, v)
			}
		}
		if fields[3] != "-" {
			r.body = fields[3]
		}
		reqs = append(reqs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

// playReplyScript sends every request in order and returns one golden line
// per reply: target, name, status, body length and sha256, and the
// selected headers.
func playReplyScript(t *testing.T, target, url string, reqs []scriptRequest) []string {
	t.Helper()
	lines := make([]string, 0, len(reqs))
	for _, sr := range reqs {
		req, err := http.NewRequest(sr.method, url+sr.path, strings.NewReader(sr.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header = sr.header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", target, sr.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: %v", target, sr.name, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s %d", target, sr.name, resp.StatusCode)
		if variesByName[sr.name] {
			b.WriteString(" - -")
		} else {
			fmt.Fprintf(&b, " %d %x", len(body), sha256.Sum256(body))
		}
		for _, h := range goldenHeaders {
			if v := resp.Header.Get(h); v != "" {
				fmt.Fprintf(&b, " %s=%q", h, v)
			}
		}
		lines = append(lines, b.String())
	}
	return lines
}

// TestReplyGolden plays testdata/replies.script against a memory-only and
// a durable registry, each seeded with Pd-2000, and holds every reply's
// status, length, body sha256 and selected headers to
// testdata/replies.golden: the segment, adjust and summarize shapes, the
// Cypher replies, every ingest refusal, the three export formats, store
// creation, a 429 and the read-your-writes token. Regenerate with
// `go test -run TestReplyGolden -update ./internal/server` and explain the
// diff.
func TestReplyGolden(t *testing.T) {
	reqs := readReplyScript(t)
	seed := func() (*prov.Graph, error) { return gen.Pd(gen.PdConfig{N: 2000, Seed: 1}), nil }
	var got []string
	for _, target := range []struct {
		name string
		opts RegistryOptions
	}{
		{"mem", RegistryOptions{}},
		{"dur", RegistryOptions{DataDir: t.TempDir()}},
	} {
		reg, _, err := OpenRegistry(target.opts, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewMultiServerWith(reg, Options{}))
		got = append(got, playReplyScript(t, target.name, ts.URL, reqs)...)
		ts.Close()
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(replyGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(replyGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("%d replies, golden has %d lines", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("reply %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
