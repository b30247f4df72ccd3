package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// openCoalesced stands up n bootstrapped managers in subdirectories of one
// data dir plus a coalescer over it, mirroring the registry layout.
func openCoalesced(t *testing.T, n int, mode CoalescerMode) (string, []*Manager, *Coalescer) {
	t.Helper()
	dir := t.TempDir()
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		m, rec, err := Open(Options{Dir: filepath.Join(dir, fmt.Sprintf("s%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Fresh {
			t.Fatalf("store %d: fresh dir not fresh: %+v", i, rec)
		}
		if err := m.Bootstrap(testGraph(2)); err != nil {
			t.Fatal(err)
		}
		mgrs[i] = m
	}
	c, err := NewCoalescer(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return dir, mgrs, c
}

// runCoalescedAppends drives rounds of batch appends + SyncWaitPrep
// from one goroutine per manager, then verifies every record is durable
// (replayable at the right epochs) and the window accounting is coherent.
func runCoalescedAppends(t *testing.T, mode CoalescerMode) {
	const stores, rounds = 4, 16
	dir, mgrs, c := openCoalesced(t, stores, mode)

	var wg sync.WaitGroup
	for i, m := range mgrs {
		wg.Add(1)
		go func(i int, m *Manager) {
			defer wg.Done()
			for ep := uint64(1); ep <= rounds; ep++ {
				payload := []byte(fmt.Sprintf("store-%d-epoch-%d", i, ep))
				if _, err := m.AppendBatch([]Record{{Epoch: ep, Payload: payload}}); err != nil {
					t.Errorf("store %d append %d: %v", i, ep, err)
					return
				}
				if err := c.SyncWaitPrep(m, nil); err != nil {
					t.Errorf("store %d sync %d: %v", i, ep, err)
					return
				}
			}
		}(i, m)
	}
	wg.Wait()
	for _, m := range mgrs {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < stores; i++ {
		var got uint64
		info, err := ReplayFile(filepath.Join(dir, fmt.Sprintf("s%d", i), logName(0)), func(epoch uint64, payload []byte) error {
			got++
			if epoch != got {
				t.Fatalf("store %d: epoch %d at position %d", i, epoch, got)
			}
			want := fmt.Sprintf("store-%d-epoch-%d", i, epoch)
			if string(payload) != want {
				t.Fatalf("store %d: payload %q, want %q", i, payload, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if info.Torn || got != rounds {
			t.Fatalf("store %d: %d records (torn=%v), want %d", i, got, info.Torn, rounds)
		}
	}

	st := c.StatsSnapshot()
	if st.Requests != stores*rounds {
		t.Fatalf("requests = %d, want %d", st.Requests, stores*rounds)
	}
	if st.Windows == 0 || st.Windows > st.Requests {
		t.Fatalf("windows = %d, want within (0, %d]", st.Windows, st.Requests)
	}
	if st.MaxWindowSize < st.LastWindowSize || st.MaxWindowSize == 0 {
		t.Fatalf("window sizes inconsistent: %+v", st)
	}
	if st.SyncTotalNanos <= 0 || st.SyncMaxNanos < st.SyncLastNanos {
		t.Fatalf("sync timings inconsistent: %+v", st)
	}
	// Under concurrency at least some windows should have coalesced more
	// than one request; guaranteed whenever windows < requests.
	if st.Windows == st.Requests && st.MaxWindowSize != 1 {
		t.Fatalf("window accounting contradicts itself: %+v", st)
	}
}

func TestCoalescerAuto(t *testing.T)          { runCoalescedAppends(t, CoalesceAuto) }
func TestCoalescerFsyncFallback(t *testing.T) { runCoalescedAppends(t, CoalesceFsync) }

// TestCoalescerSyncWaitAfterClose: a straggling committer calling
// SyncWaitPrep after Close must still come back durable via the direct-fsync
// fallback, not deadlock or error — and a nil coalescer (a store opened on
// its own) takes the same fallback.
func TestCoalescerSyncWaitAfterClose(t *testing.T) {
	_, mgrs, c := openCoalesced(t, 1, CoalesceAuto)
	m := mgrs[0]
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendBatch([]Record{{Epoch: 1, Payload: []byte("late")}}); err != nil {
		t.Fatal(err)
	}
	for name, cc := range map[string]*Coalescer{"closed": c, "nil": nil} {
		before, prepped := m.StatsSnapshot().Fsyncs, false
		if err := cc.SyncWaitPrep(m, func() { prepped = true }); err != nil {
			t.Fatalf("%s coalescer: SyncWaitPrep: %v", name, err)
		}
		if got := m.StatsSnapshot().Fsyncs - before; !prepped || got != 1 {
			t.Fatalf("%s coalescer: prep ran %v, %d direct fsyncs, want true and 1", name, prepped, got)
		}
	}
	if got := c.StatsSnapshot().Requests; got != 0 {
		t.Fatalf("post-close SyncWaitPrep counted as a coalesced request: %d", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerModeReporting: the fallback-forced coalescer must report
// "fsync"; auto mode reports whichever the probe found, and both spellings
// are the only legal ones.
func TestCoalescerModeReporting(t *testing.T) {
	_, _, auto := openCoalesced(t, 1, CoalesceAuto)
	_, _, forced := openCoalesced(t, 1, CoalesceFsync)
	if m := forced.Mode(); m != "fsync" {
		t.Fatalf("forced mode = %q, want fsync", m)
	}
	if m := auto.Mode(); m != "syncfs" && m != "fsync" {
		t.Fatalf("auto mode = %q", m)
	}
	if s := auto.StatsSnapshot(); !s.Enabled || s.Mode != auto.Mode() {
		t.Fatalf("stats disagree with mode: %+v", s)
	}
}
