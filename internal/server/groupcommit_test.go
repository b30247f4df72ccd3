package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/wal"
)

// Group-commit unit tests. commitHold makes group formation deterministic:
// with it set, the committer parks after receiving a group's first request,
// so a test can stage K concurrent writers, verify they coalesce into ONE
// group — one fsync — and that the member epochs publish in order.

// pipeline is one opened shape of the durable commit pipeline: the stores
// writing through it and whatever seals them.
type pipeline struct {
	stores []*Store
	close  func() error
}

// openPipeline opens dir in one of the two shapes a durable store comes in.
// "store" is openDurable on its own: syncLoop's barrier fsyncs the log
// directly. "registry" is a durable registry (the default store plus extra,
// or whatever dir already holds): under SyncAlways its stores borrow the
// shared coalescer's barrier. Under the other policies neither shape puts a
// barrier on the commit path.
func openPipeline(t *testing.T, shape string, policy wal.SyncPolicy, dir string, extra ...string) pipeline {
	t.Helper()
	if shape == "store" {
		s, _, err := openDurable(dir, RegistryOptions{Fsync: policy, CheckpointEvery: 1 << 30, CacheCap: 8}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline{stores: []*Store{s}, close: s.Close}
	}
	reg, _, err := OpenRegistry(RegistryOptions{DataDir: dir, Fsync: policy, CheckpointEvery: 1 << 30, CacheCap: 8}, extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Coalescer() != nil, policy == wal.SyncAlways; got != want {
		reg.Close()
		t.Fatalf("registry under fsync=%v: coalescer built = %v, want %v", policy, got, want)
	}
	return pipeline{stores: reg.List(), close: reg.Close}
}

// forEachPipeline runs fn over {store, registry} x {always, interval, never}.
func forEachPipeline(t *testing.T, fn func(t *testing.T, shape string, policy wal.SyncPolicy)) {
	for _, shape := range []string{"store", "registry"} {
		t.Run(shape, func(t *testing.T) {
			for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
				t.Run(policy.String(), func(t *testing.T) { fn(t, shape, policy) })
			}
		})
	}
}

// stageWriters launches n concurrent Update calls against s — writer w
// applies op(w, rec) — and returns once all are staged (one held by the
// committer via commitHold, n-1 queued). done receives each writer's result.
func stageWriters(t *testing.T, s *Store, n int, done chan error, op func(w int, rec *prov.Recorder)) {
	t.Helper()
	var staged sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		staged.Add(1)
		go func() {
			err := s.Update(func(rec *prov.Recorder) error {
				op(w, rec)
				staged.Done()
				return nil
			})
			done <- err
		}()
	}
	// Every writer entered fn, which runs under the write mutex, and a writer
	// queues its batch before it lets the mutex go: once the mutex is free,
	// all n batches are queued. The committer then takes exactly one and
	// holds it, so the queue settles at n-1. (Waiting for n-1 alone could
	// return with all n queued, before the committer took its one.)
	staged.Wait()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.commitCh) != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writers staged", len(s.commitCh)+1, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotOp is the default stageWriters workload: one disconnected
// snapshot per writer.
func snapshotOp(w int, rec *prov.Recorder) {
	rec.Snapshot(fmt.Sprintf("gc-%d", w))
}

func TestGroupCommitOneFsyncPerGroup(t *testing.T) {
	const k = 6
	dir := t.TempDir()
	s, _, err := openDurable(dir, RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.commitHold = make(chan struct{})

	done := make(chan error, k)
	stageWriters(t, s, k, done, snapshotOp)
	if got := s.Epoch().N; got != 0 {
		t.Fatalf("epoch published before the group fsync: %d", got)
	}
	before := s.wal.StatsSnapshot()

	s.commitHold <- struct{}{} // release exactly one group
	for i := 0; i < k; i++ {
		if err := <-done; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}

	after := s.wal.StatsSnapshot()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("group of %d paid %d fsyncs, want 1", k, got)
	}
	if got := after.Records - before.Records; got != k {
		t.Errorf("group appended %d records, want %d", got, k)
	}
	if got := s.Epoch().N; got != k {
		t.Errorf("published epoch %d, want %d", got, k)
	}
	gs := s.Metrics().WAL.GroupCommit
	if !gs.Enabled || gs.Groups != 1 || gs.Records != k || gs.Last != k || gs.Max != k {
		t.Errorf("group stats: %+v", gs)
	}

	// The log carries the group as consecutive epochs in publish order.
	var epochs []uint64
	_, err = wal.ReplayFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.log", 0)), func(epoch uint64, payload []byte) error {
		epochs = append(epochs, epoch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != k {
		t.Fatalf("log holds %d records, want %d", len(epochs), k)
	}
	for i, e := range epochs {
		if e != uint64(i+1) {
			t.Fatalf("log epoch order broken at %d: %v", i, epochs)
		}
	}
}

// TestUpdatePanicReleasesWriteMutex: a panic inside the update closure (the
// recorder has deliberate panics, e.g. the snapshot-watermark race guard)
// must propagate but release the write mutex — the store keeps serving
// instead of wedging every later ingest, the checkpointer and Close.
func TestUpdatePanicReleasesWriteMutex(t *testing.T) {
	run := func(t *testing.T, s *Store) {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("panic did not propagate out of Update")
				}
			}()
			_ = s.Update(func(rec *prov.Recorder) error { panic("recorder guard") })
		}()
		done := make(chan error, 1)
		go func() {
			done <- s.Update(func(rec *prov.Recorder) error {
				rec.Snapshot("after-panic")
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("update after panic: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("write mutex still held after a panicking Update")
		}
	}
	t.Run("memory", func(t *testing.T) {
		run(t, NewStore(prov.New(), 4))
	})
	t.Run("durable", func(t *testing.T) {
		s, _, err := openDurable(t.TempDir(), RegistryOptions{CacheCap: 4}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		run(t, s)
	})
}

// TestCloseUnderLoad races Close against a full complement of writers: Close
// must neither deadlock nor strand a staged batch — the committer drains
// into the sync stage, the sync stage into publishes, and only then does the
// final checkpoint read the tail — so every writer either commits (and the
// commit survives the restart) or is refused with ErrStoreClosed, and the
// recovered epoch equals the exact number of acknowledged commits. Run over
// a bare durable store and a two-store registry, under every fsync policy.
func TestCloseUnderLoad(t *testing.T) {
	const writersN = 4

	// spin launches writersN writers looping Updates until the store refuses
	// them; n counts acknowledged commits.
	spin := func(t *testing.T, s *Store, n *atomic.Uint64, wg *sync.WaitGroup) {
		for w := 0; w < writersN; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					err := s.Update(func(rec *prov.Recorder) error {
						rec.Snapshot(fmt.Sprintf("cul-%d-%d", w, i))
						return nil
					})
					if err != nil {
						if !errors.Is(err, ErrStoreClosed) {
							t.Errorf("store %q writer %d: %v (want ErrStoreClosed)", s.Name(), w, err)
						}
						return
					}
					n.Add(1)
				}
			}()
		}
	}
	waitFor := func(t *testing.T, n *atomic.Uint64, min uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for n.Load() < min {
			if time.Now().After(deadline) {
				t.Fatalf("writers stalled at %d commits", n.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	forEachPipeline(t, func(t *testing.T, shape string, policy wal.SyncPolicy) {
		dir := t.TempDir()
		pl := openPipeline(t, shape, policy, dir, "hot")
		counts := make([]atomic.Uint64, len(pl.stores))
		var wg sync.WaitGroup
		for i, s := range pl.stores {
			spin(t, s, &counts[i], &wg)
		}
		for i := range pl.stores {
			waitFor(t, &counts[i], 8) // close mid-flight, not before the ramp
		}
		done := make(chan error, 1)
		go func() { done <- pl.close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Close under load: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("Close deadlocked against in-flight writers")
		}
		wg.Wait() // every writer observed ErrStoreClosed (or already exited)

		for i, s := range pl.stores {
			if err := s.Update(func(rec *prov.Recorder) error { return nil }); !errors.Is(err, ErrStoreClosed) {
				t.Fatalf("store %q: update after Close: %v, want ErrStoreClosed", s.Name(), err)
			}
			ds := s.Metrics().WAL
			if gs := ds.GroupCommit; gs.Groups == 0 || gs.Records != counts[i].Load() {
				t.Errorf("store %q: group stats %+v, want %d records in > 0 groups", s.Name(), gs, counts[i].Load())
			}
			if got, want := ds.Coalescer != nil && ds.Coalescer.Requests > 0, shape == "registry" && policy == wal.SyncAlways; got != want {
				t.Errorf("store %q: commits went through a shared coalescer = %v, want %v", s.Name(), got, want)
			}
		}
		if err := pl.close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}

		// Durability is exact: the acknowledged count IS the recovered epoch
		// (no commit lost, no unacknowledged batch published).
		pl2 := openPipeline(t, shape, policy, dir)
		defer pl2.close()
		if len(pl2.stores) != len(pl.stores) {
			t.Fatalf("recovered %d stores, want %d", len(pl2.stores), len(pl.stores))
		}
		for i, s := range pl2.stores {
			if n := counts[i].Load(); s.Epoch().N != n || s.Epoch().Vertices != int(n) {
				t.Errorf("store %q recovered epoch %d (%d vertices), want %d acknowledged commits",
					s.Name(), s.Epoch().N, s.Epoch().Vertices, n)
			}
		}
	})
}

// TestGroupCommitCheckpointDrain forces a checkpoint while a multi-writer
// group is parked unpublished on the commit queue: checkpointNow must wait
// for the pipeline so the rotation never strands durable-but-unpublished
// records behind a cleanup — whatever barrier the group is waiting for.
func TestGroupCommitCheckpointDrain(t *testing.T) {
	const k = 4
	forEachPipeline(t, func(t *testing.T, shape string, policy wal.SyncPolicy) {
		pl := openPipeline(t, shape, policy, t.TempDir())
		defer pl.close()
		s := pl.stores[0]
		s.commitHold = make(chan struct{})
		done := make(chan error, k)
		stageWriters(t, s, k, done, snapshotOp)

		ckptErr := make(chan error, 1)
		go func() { ckptErr <- s.checkpointNow() }()
		select {
		case err := <-ckptErr:
			t.Fatalf("checkpoint completed past %d unpublished epochs: %v", k, err)
		case <-time.After(50 * time.Millisecond):
			// parked on the drain, as it must be
		}

		s.commitHold <- struct{}{}
		for i := 0; i < k; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if err := <-ckptErr; err != nil {
			t.Fatalf("checkpoint after drain: %v", err)
		}
		ds := s.Metrics().WAL
		if ds.LastCheckpointEpoch != k {
			t.Errorf("checkpoint landed at epoch %d, want %d (after the whole group)", ds.LastCheckpointEpoch, k)
		}
		if gs := ds.GroupCommit; gs.Groups != 1 || gs.Records != k {
			t.Errorf("group stats %+v, want one group of %d", gs, k)
		}
	})
}
