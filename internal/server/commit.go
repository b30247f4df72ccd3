package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/wal"
)

// The write path. A batch is validated, encoded as a delta and frozen into
// the next epoch under the write mutex; install makes it visible — at once
// on a memory-only store, once the commit pipeline has logged it and a
// barrier covers it on a durable one. Every other way an epoch appears (a
// store's first epoch, a replicated delta, a follower's re-seed) goes
// through install too, and recovery and replication read loaded graphs and
// deltas through one pair of helpers (recorderOver, indexDelta).

// commitReq is one staged batch traveling from Update to the committer:
// the built (unpublished) epoch, its predecessor, and the encoded delta,
// plus the request-tracing context it carries through the pipeline — when
// it was staged (queue-wait timing), the originating request id, and the
// request's stage record for the committer to stamp timings into.
type commitReq struct {
	ep, old  *Epoch
	payload  []byte
	done     chan error
	stagedAt time.Time
	reqID    string
	stages   *obs.Stages
}

// syncJob is one appended-but-unsynced group traveling from the committer
// to syncLoop: the group to publish once a device barrier covers it, its
// append sequence number, and the append's write cost for stage records.
type syncJob struct {
	group      []*commitReq
	seq        uint64
	writeNanos int64
}

// Commit-pipeline stage names, in pipeline order, and their indices into
// Store.stages. The metrics panel keys its series by these.
var stageNames = [...]string{"enqueue", "append", "fsync", "publish"}

const (
	stageEnqueue = iota
	stageAppend
	stageFsync
	stagePublish
)

// freezeEpoch freezes p as epoch n, records the freeze and returns its
// duration. With a base it extends base's snapshot (falling back to a full
// rebuild where it must) and hands on base's reply column; without one it
// freezes in full and starts a new lineage.
func (s *Store) freezeEpoch(p *prov.Graph, n uint64, base *Epoch) (*Epoch, time.Duration) {
	var prev *prov.Graph
	replies := newReplyColumn()
	if base != nil {
		prev, replies = base.P, base.replies
	}
	start := time.Now()
	fz, incremental := p.ExtendFrozen(prev)
	d := time.Since(start)
	s.freeze.Observe(d)
	if incremental {
		s.freezeIncr.Add(1)
	}
	return &Epoch{N: n, P: fz, Vertices: fz.NumVertices(), Edges: fz.NumEdges(), replies: replies}, d
}

// FreezeStats is the /metrics freeze panel: counts of incremental vs full
// snapshot builds on the commit path, and freeze-duration stats.
type FreezeStats struct {
	Incremental uint64 `json:"incremental"`
	Full        uint64 `json:"full"`
	LastNanos   int64  `json:"last_ns"`
	MaxNanos    int64  `json:"max_ns"`
	TotalNanos  int64  `json:"total_ns"`
}

// Update runs fn under the exclusive write lock; if fn succeeds, a new
// frozen snapshot is built and published, and the segment cache is
// revalidated against the ingest delta (entries whose support the delta
// touches are purged; the rest carry over to the new epoch). The snapshot
// is built by extending the previous epoch's CSR index with just the
// delta (prov.ExtendFrozen), so commit cost tracks the batch size, not
// the total graph size; a full rebuild happens only when the previous
// epoch is unusable as a base (see graph.ExtendFrozen).
// On durable stores the committed batch is additionally encoded as a graph
// delta and made durable in the write-ahead log — fsynced per the configured
// policy — strictly before the snapshot swap publishes the epoch, so no
// client ever observes a state a crash could lose (under fsync=always).
// The durability step is delegated: Update stages the encoded delta and the
// built snapshot on the commit queue, releases the write mutex, and blocks
// until the commit pipeline has appended its whole group, covered it with
// one barrier and published the member epochs in order — concurrent writers
// share the fsync instead of paying one each, and the write mutex is free
// for the next writer while this batch waits on disk. A WAL failure poisons
// the store: the batch stays unpublished and all further writes are
// refused, because the in-memory graph and the log can no longer be
// reconciled. So does a batch that breaks the PROV schema (fn appended an
// edge through the raw graph that prov.Graph.AddRel would have refused):
// it is checked (prov.Graph.ValidateFrom) before it is logged or published.
func (s *Store) Update(fn func(rec *prov.Recorder) error) error {
	return s.UpdateCtx(context.Background(), fn)
}

// UpdateCtx is Update carrying the request context through the commit
// pipeline: the context's request id (obs.RequestID) is attached to the
// committer's structured logs, and its stage record (obs.StagesFrom) is
// stamped with per-stage timings — encode, freeze, queue wait, append,
// fsync, publish — as the batch flows through. The context does not cancel
// the commit: once fn has mutated the graph the batch must reach the log,
// so ctx is trace metadata, not a deadline.
func (s *Store) UpdateCtx(ctx context.Context, fn func(rec *prov.Recorder) error) error {
	_, err := s.updateEpoch(ctx, fn)
	return err
}

// updateEpoch is the UpdateCtx body, additionally returning the committed
// (and, for acknowledged batches, durable and published) epoch number —
// the read-your-writes token ingest responses hand back to clients.
func (s *Store) updateEpoch(ctx context.Context, fn func(rec *prov.Recorder) error) (uint64, error) {
	stages := obs.StagesFrom(ctx)
	if stages == nil {
		stages = new(obs.Stages) // no one reads this batch's stamps
	}
	s.writeMu.Lock()
	// Deferred so a panic in fn (or in delta encoding / the freeze) releases
	// the write mutex instead of wedging the store; the durable tail clears
	// the flag when it hands off and unlocks early.
	locked := true
	defer func() {
		if locked {
			s.writeMu.Unlock()
		}
	}()
	if err := s.checkRole(roleLeader); err != nil {
		return 0, err
	}
	if f := s.walFail.Load(); f != nil {
		return 0, fmt.Errorf("store: writes disabled after write-ahead log failure: %w", f.err)
	}
	// Backpressure: a commit queue at its configured cap rejects the batch
	// here — before fn mutates the graph — so the writer gets a clean 429
	// instead of parking under the write mutex behind a saturated committer.
	// (A memory-only store has no queue: the length of its nil channel is 0.)
	if l := s.qos.Load(); l != nil && l.cfg.MaxQueue > 0 && len(s.commitCh) >= l.cfg.MaxQueue {
		s.qosRejectedQueue.Add(1)
		return 0, fmt.Errorf("store: %w (%d batches staged)", ErrBackpressure, len(s.commitCh))
	}
	if err := fn(s.rec); err != nil {
		return 0, err
	}
	// The delta and the snapshot both build against the staged tail, not the
	// published snapshot: on a durable store earlier batches may still be
	// waiting on their group's barrier, and this batch extends them.
	old := s.tail
	// fn may append through the raw graph, past prov.AddRel's typing. A
	// mistyped batch is never logged, replicated or published (PgSeg's walks
	// rely on the typing); the live graph already holds it, so the store
	// refuses further writes.
	if err := s.rec.P.ValidateFrom(old.Vertices, old.Edges); err != nil {
		s.poison(err)
		return 0, fmt.Errorf("store: batch refused: %w", err)
	}
	var payload []byte
	if s.wal != nil || s.hub.Load() != nil {
		// The delta feeds the log, the replication hub, or both.
		start := time.Now()
		var buf bytes.Buffer
		if err := s.rec.P.PG().EncodeDelta(&buf, old.P.PG().Dict().Len(), old.Vertices, old.Edges); err != nil {
			// The graph mutated but nothing can be logged or replicated:
			// unreconcilable.
			s.poison(err)
			return 0, fmt.Errorf("store: write-ahead log: %w", err)
		}
		payload = buf.Bytes()
		stages.EncodeNanos = time.Since(start).Nanoseconds()
	}
	ep, freeze := s.freezeEpoch(s.rec.P, old.N+1, old)
	stages.FreezeNanos = freeze.Nanoseconds()
	s.tail = ep

	req := &commitReq{ep: ep, old: old, payload: payload, reqID: obs.RequestID(ctx), stages: stages}
	if s.wal == nil {
		// Memory-only: nothing to make durable, publish under the write mutex.
		s.publish(ctx, req, 1)
		return ep.N, nil
	}
	// Durable: stage the built epoch (still holding writeMu, so the queue
	// receives epochs in order) and wait off-lock for the commit pipeline to
	// make it durable and publish it.
	req.done, req.stagedAt = make(chan error, 1), time.Now()
	s.commitCh <- req
	locked = false
	s.writeMu.Unlock()
	if err := <-req.done; err != nil {
		return 0, err
	}
	return ep.N, nil
}

// publish installs a committed batch's epoch, records the publication in
// the stage histogram and the request's stage record, and logs it (Debug
// level) with the request id that staged it and the size of its group.
func (s *Store) publish(ctx context.Context, req *commitReq, group int) {
	start := time.Now()
	s.install(req.ep, req.old, req.payload)
	d := time.Since(start)
	s.stages[stagePublish].Observe(d)
	req.stages.PublishNanos = d.Nanoseconds()
	if s.logger != nil {
		s.logger.LogAttrs(ctx, slog.LevelDebug, "commit published",
			slog.String("store", s.name),
			slog.Uint64("epoch", req.ep.N),
			slog.String("request_id", req.reqID),
			slog.Int("group_size", group),
			slog.Int("vertices", req.ep.Vertices),
			slog.Int("edges", req.ep.Edges),
		)
	}
}

// install makes ep the epoch every reader sees: it is the one writer of the
// published snapshot. old is the epoch ep extends, or nil where ep starts a
// new lineage (a store's first epoch, a follower's re-seed). In order: the
// segment cache is revalidated against the delta from old (or, with no old,
// purged: revalidation assumes append-only continuity), the snapshot
// pointer swaps, read-your-writes waiters wake, the replication hub takes
// payload (or, with none, rebases, ending chained followers' streams so
// they re-seed), a drain waiter wakes, and the checkpointer is signaled per
// the cadence. Callers install in epoch order: under writeMu (newStore,
// memory-only commits, the follower applier) or from the single syncLoop
// goroutine.
func (s *Store) install(ep, old *Epoch, payload []byte) {
	if old == nil {
		s.cache.reset(ep.N)
	} else {
		s.cache.advance(ep, old)
	}
	s.snap.Store(ep)
	// Wake read-your-writes waiters strictly after the snapshot swap: a
	// woken waiter re-reads the epoch and must see at least ep.
	ch := make(chan struct{})
	if prev := s.epochWait.Swap(&ch); prev != nil { // nil before the first epoch
		close(*prev)
	}
	if h := s.hub.Load(); h != nil {
		if payload != nil {
			h.Publish(ep.N, payload, time.Now().UnixNano())
		} else {
			h.Rebase(ep.N)
		}
	}
	s.signalPub()
	// checkpointEvery is positive on every durable store, 0 on the others.
	if s.checkpointEvery > 0 && s.sinceCkpt.Add(1) >= int64(s.checkpointEvery) {
		select {
		case s.ckptCh <- struct{}{}:
		default: // checkpointer already signaled
		}
	}
}

// signalPub drops a (non-blocking, buffered) wake token for a drain waiter.
func (s *Store) signalPub() {
	if s.pubCh != nil {
		select {
		case s.pubCh <- struct{}{}:
		default: // a wake token is already pending
		}
	}
}

// recorderOver wraps a loaded graph — a checkpoint read at startup or one a
// leader shipped — checks its PROV typing and stands the lifecycle recorder
// up over it.
func recorderOver(g *graph.Graph) (*prov.Recorder, error) {
	p := prov.Wrap(g)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return prov.WrapRecorder(p), nil
}

// indexDelta checks the PROV typing of a delta appended to rec's graph
// without prov.AddRel — a replayed WAL record or an applied leader delta,
// its vertices from v and edges from e — then indexes its vertices.
func indexDelta(rec *prov.Recorder, v, e int) error {
	if err := rec.P.ValidateFrom(v, e); err != nil {
		return err
	}
	rec.IndexFrom(graph.VertexID(v))
	return nil
}

// commitLoop is the group committer: it owns the order in which staged
// batches reach the log. One iteration appends one group — everything
// queued at wake-up time — and hands it to syncLoop. It runs until Close
// closes the queue, drains what is left, and closes the sync stage's.
func (s *Store) commitLoop() {
	defer close(s.syncQ)
	for req := range s.commitCh {
		s.commitGroup(req)
	}
}

// commitGroup gathers the group led by first, appends it unsynced and hands
// it to syncLoop, which publishes the members once a barrier covers them;
// the next group forms while this one's barrier is in flight. On an append
// failure every member fails, stays unpublished, and the store is poisoned.
func (s *Store) commitGroup(first *commitReq) {
	group := []*commitReq{first}
	if s.commitHold != nil {
		<-s.commitHold
	}
drain:
	for {
		select {
		case req, ok := <-s.commitCh:
			if !ok {
				break drain
			}
			group = append(group, req)
		default:
			break drain
		}
	}
	// Queue wait ends here for every member: the group is formed and the
	// committer owns it. Recorded per member — the group leader waited the
	// longest, stragglers that arrived during the drain barely at all.
	now := time.Now()
	for _, req := range group {
		wait := now.Sub(req.stagedAt)
		if wait < 0 {
			wait = 0
		}
		s.stages[stageEnqueue].Observe(wait)
		req.stages.QueueWaitNanos = wait.Nanoseconds()
	}
	if f := s.walFail.Load(); f != nil {
		s.failGroup(group, f.err)
		return
	}
	recs := make([]wal.Record, len(group))
	for i, req := range group {
		recs[i] = wal.Record{Epoch: req.ep.N, Payload: req.payload}
	}
	// The append is a group-level cost: one histogram sample, stamped on
	// every member's stage record (each paid it in wall-clock terms).
	tm, err := s.wal.AppendBatch(recs)
	s.stages[stageAppend].Observe(time.Duration(tm.WriteNanos))
	if err != nil {
		for _, req := range group {
			req.stages.AppendNanos = tm.WriteNanos
		}
		s.poison(err)
		s.failGroup(group, err)
		return
	}
	s.syncQ <- &syncJob{group: group, seq: s.appendSeq.Add(1), writeNanos: tm.WriteNanos}
}

// syncLoop is the sync/publish stage: it takes appended groups in order,
// waits for the barrier the fsync policy asks for, and publishes. A barrier
// makes every byte appended before it durable, so when several groups queue
// up behind one in-flight barrier, the single one issued for the head job
// retires all of them — the store pays one barrier per pipeline cycle, not
// per group.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	var synced uint64 // newest appended group a barrier has covered
	var lastSyncNs int64
	for job := range s.syncQ {
		if f := s.walFail.Load(); f != nil {
			s.failGroup(job.group, f.err)
			continue
		}
		// The barrier is the one step that differs between stores. Only
		// fsync=always puts one on the commit path (under interval and never
		// the log's ticker, rotation and Close flush); the registry's stores
		// share it through coal, a store opened alone (nil coal) fsyncs.
		if s.fsync == wal.SyncAlways && job.seq > synced {
			// The prep hook samples the appended tail right before the
			// barrier fires: everything the committer appended while this
			// request waited for its window is covered too, so the groups
			// queued behind this job retire without a barrier of their own.
			var covered uint64
			start := time.Now()
			err := s.coal.SyncWaitPrep(s.wal, func() { covered = s.appendSeq.Load() })
			lastSyncNs = time.Since(start).Nanoseconds()
			if err != nil {
				s.poison(err)
				s.failGroup(job.group, err)
				continue
			}
			synced = covered
			s.stages[stageFsync].Observe(time.Duration(lastSyncNs))
		}
		// Piggybacked jobs are stamped with the barrier wait that covered
		// them: in wall-clock terms that is what their writers paid.
		for _, req := range job.group {
			req.stages.AppendNanos, req.stages.FsyncNanos = job.writeNanos, lastSyncNs
		}
		s.retireGroup(job.group)
	}
}

// retireGroup counts one durably committed group and publishes its members
// in order. Only syncLoop calls it, so publishes stay single-threaded.
func (s *Store) retireGroup(group []*commitReq) {
	s.groups.Add(1)
	s.groupRecords.Add(uint64(len(group)))
	s.groupLast.Store(int64(len(group)))
	s.groupMax.Observe(int64(len(group)))
	for _, req := range group {
		s.publish(context.Background(), req, len(group))
		// Resolved moves only after the publish is visible, so a drain
		// waiter that observes resolved >= tail also observes snap at (or
		// past) every acknowledged epoch; the extra signal wakes it to
		// re-check after the store.
		s.resolved.Store(req.ep.N)
		s.signalPub()
		req.done <- nil
	}
}

// failGroup rejects every member of a group: their writers get errors, the
// epochs never become visible, and they count as resolved — a drain waiter
// must not wait on publishes that will never come (and need not: nothing
// about them was acknowledged, so a rotation that strands their records
// loses nothing).
func (s *Store) failGroup(group []*commitReq, err error) {
	for _, req := range group {
		s.resolved.Store(req.ep.N)
		req.done <- fmt.Errorf("store: write-ahead log: %w", err)
	}
	s.signalPub()
}
