package server

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/prov"
	"repro/internal/wal"
)

// breakLogFsync makes every later fsync of the store's active log fail with
// EINVAL while writes keep succeeding: it finds the log's descriptor in
// /proc/self/fd and replaces it (dup3, atomic — the number is never free for
// anything else in the process to be handed) with the write end of a pipe,
// which takes bytes but cannot be fsynced.
func breakLogFsync(t *testing.T, dir string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the log's descriptor in: %v", err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.Close(); pw.Close() })
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || filepath.Dir(target) != dir || !strings.HasSuffix(target, ".log") {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(pw.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no open write-ahead log under %s", dir)
}

// TestIntervalFsyncFailurePoisonsWrites: under fsync=interval the commit
// path has no barrier, so a failing background flush is the only sign that
// acknowledged batches stopped being durable. It must poison the store the
// way a failed commit-path fsync does under always — writes refused with the
// flush's error — while reads keep serving the last published epoch.
func TestIntervalFsyncFailurePoisonsWrites(t *testing.T) {
	dir := t.TempDir()
	s, _, err := openDurable(dir, RegistryOptions{
		Fsync: wal.SyncInterval, SyncInterval: time.Millisecond,
		CheckpointEvery: 1 << 30, CacheCap: 8,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	script := randomScript(6, 2)
	ingestBatch(t, s, script[0])
	epoch := s.Epoch()

	breakLogFsync(t, dir)
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().WAL.SyncFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the background flusher never noticed its fsync failing")
		}
		time.Sleep(time.Millisecond)
	}

	for i, want := range []string{"background fsync", "writes disabled after write-ahead log failure"} {
		err := s.Update(func(rec *prov.Recorder) error {
			applyScriptOps(rec, script[1])
			return nil
		})
		if !errors.Is(err, syscall.EINVAL) || !strings.Contains(err.Error(), want) {
			t.Fatalf("update %d after the failed flush: %v, want the fsync's EINVAL via %q", i, err, want)
		}
	}
	if got := s.Epoch(); got != epoch {
		t.Fatalf("a refused update published epoch %d", got.N)
	}
	if st := s.Stats(); st.Epoch != epoch.N || st.Vertices != epoch.Vertices {
		t.Fatalf("reads after the poison: %+v, want epoch %d with %d vertices", st, epoch.N, epoch.Vertices)
	}
	if _, err := s.Cypher("match (e:E) return e", cypher.Options{}); err != nil {
		t.Fatalf("query after the poison: %v", err)
	}
}
