package server

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/wal"
)

// Durable stores. openDurable wraps the Store around a wal.Manager so that
// every committed ingest batch survives a crash:
//
//   - commit path: Store.Update encodes the batch as a graph delta and
//     stages it on the commit queue; a committer goroutine appends the whole
//     group of concurrent batches to the write-ahead log, one barrier (per
//     the fsync policy) covers it, and only then are the member epochs
//     published, in order — no batch is visible before it is durable;
//   - background: a checkpointer goroutine rotates the log and writes a
//     full checkpoint from the current (immutable) epoch snapshot every
//     CheckpointEvery commits, bounding both log growth and restart replay;
//   - startup: the newest checkpoint is loaded and the log tail replayed
//     back through prov.Recorder (IndexFrom per record), reconstructing the
//     exact pre-crash epoch — a torn final record, the expected artifact of
//     a crash mid-append, is discarded.

// commitQueueCap bounds the staged-batch queue. Staging blocks (under the
// write mutex) when the committer falls this far behind, which is the
// backpressure that keeps unpublished epochs from piling up without bound.
const commitQueueCap = 256

// DefaultCheckpointEvery is the checkpoint cadence when RegistryOptions
// names none: it bounds WAL replay at restart to a few hundred batch-sized
// deltas, which replays in well under a second.
const DefaultCheckpointEvery = 256

// openDurable opens (or creates) the durable store named name over dir,
// configured by opts' Fsync, SyncInterval and CheckpointEvery and its store
// settings (see newStore; DataDir is not read). coal, when non-nil, shares
// the barrier of group commits across stores: the store waits on a
// device-level sync window instead of fsyncing its own log. When dir holds
// prior state it is recovered and seed is not consulted; on a fresh
// directory seed provides the initial graph (see seedGraph) and becomes
// checkpoint zero. The returned Recovery reports what startup found.
// Callers must Close the store to seal the log.
func openDurable(dir, name string, opts RegistryOptions, coal *wal.Coalescer, seed func() (*prov.Graph, error)) (*Store, *wal.Recovery, error) {
	var rec *prov.Recorder
	var checkedEdges int // the replayed graph's edges the schema check has seen
	m, rcv, err := wal.Open(wal.Options{
		Dir:          dir,
		Policy:       opts.Fsync,
		SyncInterval: opts.SyncInterval,
		OnBase: func(g *graph.Graph, epoch uint64) error {
			// Stand the lifecycle recorder up over the checkpoint state;
			// replayed deltas below extend it incrementally.
			var err error
			if rec, err = recorderOver(g); err != nil {
				return fmt.Errorf("server: checkpoint at epoch %d: %w", epoch, err)
			}
			checkedEdges = rec.P.NumEdges()
			return nil
		},
		OnRecord: func(epoch uint64, firstNewVertex int) error {
			// A record is a graph delta, appended without prov.AddRel.
			if err := indexDelta(rec, firstNewVertex, checkedEdges); err != nil {
				return fmt.Errorf("server: WAL record at epoch %d: %w", epoch, err)
			}
			checkedEdges = rec.P.NumEdges()
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if rcv.Fresh {
		var p *prov.Graph
		if p, err = seedGraph(seed); err == nil {
			rec = prov.WrapRecorder(p)
			err = m.Bootstrap(p.PG())
		}
		if err != nil {
			m.Close()
			return nil, nil, err
		}
	}

	s := newStore(rec, rcv.Epoch, name, opts)
	s.wal = m
	s.checkpointEvery = opts.CheckpointEvery
	if s.checkpointEvery <= 0 {
		s.checkpointEvery = DefaultCheckpointEvery
	}
	// Replayed WAL records count against the next checkpoint so a restart
	// that keeps crashing short of the threshold still converges.
	s.sinceCkpt.Store(int64(rcv.Replayed))
	s.ckptCh = make(chan struct{}, 1)
	s.stopCh = make(chan struct{})
	s.ckptDone = make(chan struct{})
	s.pubCh = make(chan struct{}, 1)
	s.resolved.Store(rcv.Epoch)
	s.fsync, s.coal = opts.Fsync, coal
	s.commitCh = make(chan *commitReq, commitQueueCap)
	s.syncQ = make(chan *syncJob, commitQueueCap)
	s.syncDone = make(chan struct{})
	go s.syncLoop()
	go s.commitLoop()
	go s.checkpointLoop()
	return s, rcv, nil
}

// Durable reports whether the store persists commits to a write-ahead log.
func (s *Store) Durable() bool { return s.wal != nil }

// checkpointLoop services checkpoint signals until Close.
func (s *Store) checkpointLoop() {
	defer close(s.ckptDone)
	for {
		select {
		case <-s.ckptCh:
			if err := s.checkpointNow(); err != nil {
				s.ckptFails.Add(1)
			}
		case <-s.stopCh:
			return
		}
	}
}

// checkpointNow rotates the log at the current epoch (briefly under the
// write mutex, so the rotation point is exact) and then writes the
// checkpoint from the immutable snapshot with no lock held: ingest stalls
// for the rotation, never for the checkpoint serialization.
func (s *Store) checkpointNow() error {
	s.writeMu.Lock()
	// The write mutex freezes the staged tail but the commit pipeline may
	// still be appending or owe publishes; wait until it has RESOLVED
	// everything staged — published it, or failed it without
	// acknowledging — before choosing the rotation point. Only then is it
	// safe to rotate and let the checkpoint's cleanup delete old logs:
	// every acknowledged epoch is <= snap (covered by the checkpoint), and
	// records beyond snap, if any, belong to failed-and-unacknowledged
	// batches. Waiting on publishes alone would deadlock on a poisoned
	// committer; skipping the wait when poisoned would race a healthy group
	// still inside its append.
	for tailN := s.tail.N; s.resolved.Load() < tailN; {
		<-s.pubCh
	}
	ep := s.snap.Load()
	err := s.wal.Rotate(ep.N)
	if err == nil {
		s.sinceCkpt.Store(0)
	}
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	return s.wal.Checkpoint(ep.P.PG(), ep.N)
}

// Close stops the checkpointer, writes a final checkpoint when the log has
// grown since the last one (so the next start replays nothing), and seals
// the write-ahead log. On follower stores it also seals the applier, and
// on any store it closes the replication hub so wal-stream tailers end.
// Memory-only stores with neither do nothing beyond refusing writes.
//
// Close is safe to race with Update: it first moves the store to the closed
// role under the write mutex, so every write that had already passed the
// role check is fully staged by the time the role changes (staging happens
// under the same mutex) and every later write is refused with
// ErrStoreClosed. The commit queue is then closed — the committer drains it
// into the sync stage, which is drained in turn, so each staged batch is
// made durable, published, and acknowledged before the final checkpoint
// runs. Nothing deadlocks and no acknowledged (or even staged) batch is
// stranded.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.writeMu.Lock()
		s.role.Store(roleClosed)
		s.writeMu.Unlock()
		// The applier stops after the role turns closed so an apply in flight
		// finishes (or fails cleanly) and nothing new starts; the hub
		// closes after the applier so its last publish still reaches
		// tailers before they see the end of stream.
		s.applier.stop()
		if h := s.hub.Load(); h != nil {
			h.Close()
		}
		if s.wal == nil {
			return
		}
		close(s.stopCh)
		<-s.ckptDone
		// Stop the pipeline after the checkpointer: a checkpoint in flight
		// may be waiting on its publishes. New writes are already refused, so
		// nothing sends on the queue any more: the committer drains it into
		// the sync stage and closes that, and the last barriers and publishes
		// land before the final checkpoint reads the tail.
		close(s.commitCh)
		<-s.syncDone
		if s.sinceCkpt.Load() > 0 {
			if cerr := s.checkpointNow(); cerr != nil {
				s.ckptFails.Add(1)
			}
		}
		err = s.wal.Close()
	})
	return err
}

// DurabilityStats is the /metrics wal panel: write-ahead log volume and
// fsync latency, checkpoint counters, and the distance to the next
// checkpoint. Nil on memory-only stores.
type DurabilityStats struct {
	wal.ManagerStats
	CheckpointEvery    int              `json:"checkpoint_every"`
	SinceCheckpoint    int64            `json:"since_checkpoint"`
	CheckpointFailures uint64           `json:"checkpoint_failures"`
	GroupCommit        GroupCommitStats `json:"group_commit"`
	// Coalescer reports the shared device-level sync windows this store
	// commits through (nil when the store fsyncs its own log).
	Coalescer *wal.CoalescerStats `json:"coalescer,omitempty"`
}

// GroupCommitStats is the /metrics group-commit panel: how staged batches
// coalesced into fsync groups, and how long batches waited on the commit
// queue before their committer picked them up (the queue-wait share of
// ingest latency; the full distribution is in the "enqueue" stage
// histogram). Records/Groups is the average amortization factor; it
// approaches the writer concurrency under load.
type GroupCommitStats struct {
	// Enabled is true on every durable store: there is one commit path.
	Enabled bool   `json:"enabled"`
	Groups  uint64 `json:"groups"`
	Records uint64 `json:"records"`
	Last    int64  `json:"last_size"`
	Max     int64  `json:"max_size"`
	// CoalescedGroups counts groups retired through a shared device-level
	// sync window rather than a private fsync: every group when the
	// registry coalescer serves this store, none on a store opened alone.
	CoalescedGroups     uint64 `json:"coalesced_groups"`
	QueueWaitLastNanos  int64  `json:"queue_wait_last_ns"`
	QueueWaitMaxNanos   int64  `json:"queue_wait_max_ns"`
	QueueWaitTotalNanos int64  `json:"queue_wait_total_ns"`
}
