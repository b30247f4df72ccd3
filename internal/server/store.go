// Package server implements provd, the long-lived HTTP query service over a
// provenance graph (the serving layer of the paper's provenance data
// manager). It has three layers:
//
//  1. Store — epoch-snapshot concurrency over the PROV graph and its
//     lifecycle recorder. Every read (segmentation, summarization, Cypher,
//     stats, exports) runs lock-free against an immutable frozen snapshot
//     (prov.Freeze) reached through one atomic pointer load; ingest
//     serializes behind a write mutex and publishes a new snapshot on
//     commit. Readers never block on writers. A store has one role —
//     leader (writable), follower (applying a leader's wal stream,
//     follower.go) or closed — and every store, memory-only, durable or
//     follower, is opened by one Registry (registry.go, OpenRegistry).
//  2. Wire codecs (codec.go) — JSON request/response types for every
//     endpoint, plus DOT and PROV-JSON output formats reusing the existing
//     renderers. The large replies (segment, adjust, summarize) are
//     streamed by the append encoder in reply.go, byte-identical to
//     encoding/json over those types.
//  3. Result cache (cache.go) — an LRU over canonicalized PgSeg queries
//     whose entries are tagged with the epoch they were solved at and
//     revalidated incrementally against each ingest delta.
package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Epoch is one immutable snapshot of the graph, published atomically on
// every committed ingest batch. N counts committed batches; P is the frozen
// CSR-indexed provenance graph; Vertices/Edges are the snapshot watermark
// (the graph is append-only, so the watermark fully identifies the state).
type Epoch struct {
	N        uint64
	P        *prov.Graph
	Vertices int
	Edges    int

	// replies is the reply column of P's lineage (reccol.go): handed on by
	// every epoch that extends this one, new where a lineage starts.
	replies *replyColumn
}

// Store is the graph wrapper the HTTP handlers talk to.
//
// The underlying property graph is append-only and single-writer-unsafe.
// The store serializes mutations behind writeMu; the read path takes no
// lock at all — it loads the current Epoch pointer and queries the frozen
// snapshot, which shares no mutable state with the live graph. A reader
// that raced with an ingest simply observes the previous epoch, which is a
// consistent point-in-time view.
type Store struct {
	// name is the store's registry name ("default" for the unprefixed
	// legacy endpoints; empty for stores built directly via NewStore).
	name string

	// writeMu serializes ingest batches, delta encoding, snapshot builds
	// and (on memory-only stores) publication. Readers never take it.
	writeMu sync.Mutex
	rec     *prov.Recorder
	// role is the store's state (roleLeader, roleFollower or roleClosed). Written only by Promote's CAS and by Close under writeMu, so a
	// writer holding writeMu sees a role that cannot turn closed under it.
	role atomic.Int32

	snap atomic.Pointer[Epoch]

	// tail is the newest staged epoch, guarded by writeMu. On a memory-only
	// store it always equals the published snapshot; on a durable store it
	// runs ahead of snap by the batches sitting in the commit pipeline (built
	// and logged-or-queued, not yet durable, therefore not yet visible).
	tail *Epoch

	cache *segCache

	// Commit-pipeline stage histograms, in stageNames order: queue wait
	// (staged → committer dequeue), WAL append write, fsync, and publication
	// (cache revalidation + epoch pointer swap).
	stages [len(stageNames)]obs.Histogram

	// queueWaitLastNs is the most recent group member's queue wait; the
	// enqueue histogram carries the distribution, its max and its sum.
	queueWaitLastNs atomic.Int64

	// logger, when non-nil, receives a Debug-level structured line per
	// published commit carrying the staging request's id.
	logger *slog.Logger

	// Freeze instrumentation: how commits build their snapshots (the
	// incremental CSR extension vs the full rebuild fallback) and what the
	// freeze step costs, surfaced via /metrics.
	freezeIncr    atomic.Uint64
	freezeFull    atomic.Uint64
	freezeTotalNs atomic.Int64
	freezeLastNs  atomic.Int64
	freezeMaxNs   atomic.Int64

	// Durability (nil/zero on memory-only stores, see openDurable). Each
	// commit appends its delta to the write-ahead log before the epoch
	// pointer swap publishes it; a background checkpointer bounds the log.
	wal             *wal.Manager
	walFail         atomic.Pointer[walFailure] // sticky append failure: the store refuses writes
	checkpointEvery int
	sinceCkpt       atomic.Int64
	ckptCh          chan struct{}
	stopCh          chan struct{}
	ckptDone        chan struct{}
	ckptFails       atomic.Uint64
	closeOnce       sync.Once

	// The durable commit pipeline (every durable store, nil on memory-only
	// ones): writers stage built epochs into commitCh and block on their
	// request's done channel; the committer goroutine drains the queue and
	// appends the whole group unsynced; syncLoop covers it with one barrier
	// and publishes the member epochs in order. Close closes commitCh and
	// each stage closes the next once it has drained.
	commitCh chan *commitReq
	// pubCh wakes a drain waiter (checkpointNow under writeMu) after each
	// publish; buffered so the committer never blocks on it.
	pubCh chan struct{}
	// resolved is the newest epoch the committer has finished with — either
	// published (durable and visible) or failed (its writer got an error, so
	// nothing was acknowledged). checkpointNow may only rotate the log once
	// resolved catches the staged tail: before that, the committer may still
	// be appending records a rotation-plus-cleanup would delete.
	resolved atomic.Uint64
	// commitHold, when non-nil (tests only), stalls the committer between
	// receiving a group's first request and draining the rest of the queue,
	// making multi-writer groups deterministic.
	commitHold chan struct{}

	groups       atomic.Uint64 // committed groups
	groupRecords atomic.Uint64 // records committed through groups
	groupLast    atomic.Int64  // size of the most recent group
	groupMax     atomic.Int64  // largest group so far

	// fsync is the log's policy and coal the registry-wide fsync coalescer
	// (nil on a store opened on its own): together they decide the barrier
	// syncLoop puts between a group's append and its publish.
	fsync wal.SyncPolicy
	coal  *wal.Coalescer
	// Sync/publish stage: the committer hands each appended group to
	// syncLoop via syncQ and goes straight back to draining, so group
	// formation overlaps the device barrier instead of lock-stepping behind
	// it. appendSeq numbers appended groups, so syncLoop can tell which of
	// them a barrier covered.
	syncQ     chan *syncJob
	syncDone  chan struct{}
	appendSeq atomic.Uint64

	// Replication (see follower.go and internal/repl). hub, once enabled,
	// receives every published (epoch, delta) pair and is what wal-stream
	// requests tail; nil until the first follower connects (EnableRepl) so
	// stores nobody replicates pay nothing. epochWait is the
	// read-your-writes wake channel: publish closes and replaces it, and
	// WaitEpoch blocks on it until the snapshot reaches a client's token.
	hub       atomic.Pointer[repl.Hub]
	epochWait atomic.Pointer[chan struct{}]
	// nonEmptyBase records that the store's epoch-0 graph already held
	// vertices (generated, loaded, or recovered from a checkpoint): that
	// state exists in no delta, so a from=0 wal stream must open with a
	// checkpoint frame even while the hub ring still covers epoch 1.
	nonEmptyBase atomic.Bool

	// Follower state (newFollowerStore): the applier goroutine (nil until
	// started) and the repl metrics counters. leaderURL is set once at
	// construction and never cleared (a promoted store keeps reporting
	// where it replicated from).
	leaderURL      string
	applier        *bgLoop
	replLeaderEp   atomic.Uint64
	replLagNs      atomic.Int64
	replLagHist    obs.Histogram
	replReconnects atomic.Uint64

	// Admission control (see qos.go): the active limiter (nil = no limits)
	// and the admit/reject counters, kept on the store so config swaps
	// don't reset them.
	qos              atomic.Pointer[qosLimiter]
	qosAdmitted      atomic.Uint64
	qosRejectedRate  atomic.Uint64
	qosRejectedConc  atomic.Uint64
	qosRejectedQueue atomic.Uint64

	started time.Time

	// requests holds per-endpoint counters in endpointNames order: totals
	// (bumped at routing time, so /metrics counts itself), the status-class
	// split and the latency histogram (both recorded on completion). Atomics,
	// last so their writes stay off the cache lines of the fields above.
	requests [len(endpointNames)]endpointMetrics
}

// The Store roles. A store starts as a leader (NewStore, durable stores)
// or a follower (newFollowerStore); Promote moves a follower to leader, and
// Close moves any role to closed.
const (
	roleLeader   int32 = iota // admits writes (the zero value)
	roleFollower              // applies a leader's stream, refuses writes
	roleClosed                // refuses writes and applies
)

// checkRole returns nil when the store is in role want, else the error
// for the role it is in.
func (s *Store) checkRole(want int32) error {
	switch r := s.role.Load(); {
	case r == want:
		return nil
	case r == roleClosed:
		return fmt.Errorf("store: %w", ErrStoreClosed)
	case r == roleFollower:
		return fmt.Errorf("store: %w (leader: %s)", ErrFollowerWrites, s.leaderURL)
	default:
		return fmt.Errorf("store: %w", ErrNotFollower)
	}
}

// walFailure is the sticky first error that leaves the live graph ahead of
// what can be logged, replicated or published — a write-ahead-log failure,
// a failed replicated delta, or a batch that breaks the PROV schema; once
// set, the in-memory graph and the log can no longer be reconciled and the
// store refuses writes.
type walFailure struct{ err error }

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

// endpointNames are the per-store request counters surfaced in /metrics.
var endpointNames = [...]string{
	"segment", "summarize", "query", "adjust", "ingest",
	"stats", "metrics", "healthz", "export", "wal", "promote",
}

// Status-class indices of endpointMetrics.classes. Informational and
// redirect statuses count as success — the split exists to make error
// rates observable. A request whose client hung up (statusClientClosed) is
// neither a client nor a server error: it is canceled.
const (
	classOK       = 0 // < 400
	class4xx      = 1
	class5xx      = 2
	classCanceled = 3
)

// endpointMetrics is one endpoint's per-store counters: total requests
// (routed), completions by status class, response body bytes of completed
// requests, and the completion latency histogram.
type endpointMetrics struct {
	total     atomic.Uint64
	classes   [4]atomic.Uint64
	respBytes atomic.Uint64
	lat       obs.Histogram
}

// statusClass maps an HTTP status to its counter index.
func statusClass(status int) int {
	switch {
	case status == statusClientClosed:
		return classCanceled
	case status >= 500:
		return class5xx
	case status >= 400:
		return class4xx
	default:
		return classOK
	}
}

// observeFreeze records one snapshot build on the commit path.
func (s *Store) observeFreeze(incremental bool, d time.Duration) {
	if incremental {
		s.freezeIncr.Add(1)
	} else {
		s.freezeFull.Add(1)
	}
	ns := d.Nanoseconds()
	s.freezeTotalNs.Add(ns)
	s.freezeLastNs.Store(ns)
	for {
		max := s.freezeMaxNs.Load()
		if ns <= max || s.freezeMaxNs.CompareAndSwap(max, ns) {
			return
		}
	}
}

// freezeEpoch freezes p as epoch n (see buildEpoch) and records the
// freeze. It also returns the freeze's duration.
func (s *Store) freezeEpoch(p *prov.Graph, n uint64, base *Epoch) (*Epoch, time.Duration) {
	ep, incremental, d := buildEpoch(p, n, base)
	s.observeFreeze(incremental, d)
	return ep, d
}

// buildEpoch freezes p as epoch n without recording the freeze. With a base
// it extends base's snapshot (falling back to a full rebuild where it must)
// and hands on base's reply column; without one it freezes in full and
// starts a new lineage. It reports whether the freeze was incremental and
// how long it took.
func buildEpoch(p *prov.Graph, n uint64, base *Epoch) (*Epoch, bool, time.Duration) {
	var prev *prov.Graph
	replies := newReplyColumn()
	if base != nil {
		prev, replies = base.P, base.replies
	}
	start := time.Now()
	fz, incremental := p.ExtendFrozen(prev)
	ep := &Epoch{N: n, P: fz, Vertices: fz.NumVertices(), Edges: fz.NumEdges(), replies: replies}
	return ep, incremental, time.Since(start)
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

// NewStore wraps an existing PROV graph in a memory-only store. cacheCap
// bounds the segment cache (entries; <=0 selects the default). For a store
// that survives restarts open a registry with a DataDir.
func NewStore(p *prov.Graph, cacheCap int) *Store {
	return newStore(p, prov.WrapRecorder(p), cacheCap, 0)
}

// newStore builds the store around an existing recorder, publishing the
// initial snapshot at the given epoch number (non-zero when recovery
// resumes a pre-crash epoch sequence).
func newStore(p *prov.Graph, rec *prov.Recorder, cacheCap int, epoch uint64) *Store {
	s := &Store{
		rec:     rec,
		cache:   newSegCache(cacheCap),
		started: time.Now(),
	}
	ch := make(chan struct{})
	s.epochWait.Store(&ch)
	ep, _ := s.freezeEpoch(p, epoch, nil)
	if ep.Vertices > 0 {
		// A non-empty initial graph (loaded, generated, or recovered from a
		// checkpoint) is state no WAL delta reproduces: from=0 replication
		// streams must open with a checkpoint frame.
		s.nonEmptyBase.Store(true)
	}
	s.snap.Store(ep)
	s.tail = ep
	return s
}

// Name returns the store's registry name ("" for bare NewStore stores).
func (s *Store) Name() string { return s.name }

// countRequest bumps the request total of an endpoint (an index into
// endpointNames). Called at routing time (before the handler runs), so a
// /metrics response includes the request that produced it.
func (s *Store) countRequest(endpoint int) { s.requests[endpoint].total.Add(1) }

// observeRequest records a completed request: its status class, the body
// bytes written to the client and its latency. Totals are bumped at routing
// time instead, so between the two a request is visibly in flight (total
// exceeds the class sum by the in-flight count).
func (s *Store) observeRequest(endpoint, status int, respBytes uint64, d time.Duration) {
	m := &s.requests[endpoint]
	m.classes[statusClass(status)].Add(1)
	m.respBytes.Add(respBytes)
	m.lat.Observe(d)
}

// EndpointStats is one endpoint's /metrics panel: the routed total, the
// status-class split of completions, the response body bytes written by
// completed requests, and the completion-latency digest.
type EndpointStats struct {
	Total         uint64             `json:"total"`
	OK            uint64             `json:"2xx"`
	ClientErr     uint64             `json:"4xx"`
	ServerErr     uint64             `json:"5xx"`
	Canceled      uint64             `json:"canceled"`
	ResponseBytes uint64             `json:"response_bytes"`
	Latency       obs.LatencySummary `json:"latency"`
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

// Epoch returns the current snapshot. The result is immutable and safe to
// query for any length of time.
func (s *Store) Epoch() *Epoch { return s.snap.Load() }

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
		s.walFail.CompareAndSwap(nil, &walFailure{err: err})
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
			s.walFail.CompareAndSwap(nil, &walFailure{err: err})
			return 0, fmt.Errorf("store: write-ahead log: %w", err)
		}
		payload = buf.Bytes()
		if stages != nil {
			stages.EncodeNanos = time.Since(start).Nanoseconds()
		}
	}
	ep, freeze := s.freezeEpoch(s.rec.P, old.N+1, old)
	if stages != nil {
		stages.FreezeNanos = freeze.Nanoseconds()
	}
	s.tail = ep

	if s.wal == nil {
		// Memory-only: nothing to make durable, publish under the write mutex.
		start := time.Now()
		s.publish(ep, old, payload)
		s.observePublish(time.Since(start), stages)
		s.logCommit(ctx, obs.RequestID(ctx), ep, 1)
		return ep.N, nil
	}
	// Durable: stage the built epoch (still holding writeMu, so the queue
	// receives epochs in order) and wait off-lock for the commit pipeline to
	// make it durable and publish it.
	req := &commitReq{
		ep: ep, old: old, payload: payload, done: make(chan error, 1),
		stagedAt: time.Now(), reqID: obs.RequestID(ctx), stages: stages,
	}
	s.commitCh <- req
	locked = false
	s.writeMu.Unlock()
	if err := <-req.done; err != nil {
		return 0, err
	}
	return ep.N, nil
}

// observePublish records one publication into the stage histograms and the
// request's stage record.
func (s *Store) observePublish(d time.Duration, stages *obs.Stages) {
	s.stages[stagePublish].Observe(d)
	if stages != nil {
		stages.PublishNanos = d.Nanoseconds()
	}
}

// logCommit emits the per-commit structured log line (Debug level) tying the
// published epoch back to the request that staged it.
func (s *Store) logCommit(ctx context.Context, reqID string, ep *Epoch, group int) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(ctx, slog.LevelDebug, "commit published",
		slog.String("store", s.name),
		slog.Uint64("epoch", ep.N),
		slog.String("request_id", reqID),
		slog.Int("group_size", group),
		slog.Int("vertices", ep.Vertices),
		slog.Int("edges", ep.Edges),
	)
}

// publish makes a durable (or memory-only) epoch visible: the cache is
// revalidated against the delta, the snapshot pointer swaps, epoch waiters
// and a drain waiter are woken, the replication hub (when enabled) takes
// the delta, and the checkpointer is signaled per the cadence. Callers
// guarantee epochs are published in order — either under writeMu (memory-
// only stores, the follower applier) or from the single syncLoop goroutine.
// payload is the epoch's encoded delta (nil only when nothing consumes
// deltas).
func (s *Store) publish(ep, old *Epoch, payload []byte) {
	s.cache.advance(ep, old)
	s.snap.Store(ep)
	// Wake read-your-writes waiters strictly after the snapshot swap: a
	// woken waiter re-reads the epoch and must see at least ep.
	ch := make(chan struct{})
	close(*s.epochWait.Swap(&ch))
	if h := s.hub.Load(); h != nil {
		if payload != nil {
			h.Publish(ep.N, payload, time.Now().UnixNano())
		} else {
			h.Rebase(ep.N)
		}
	}
	s.signalPub()
	if s.wal != nil {
		if n := s.sinceCkpt.Add(1); s.checkpointEvery > 0 && n >= int64(s.checkpointEvery) {
			select {
			case s.ckptCh <- struct{}{}:
			default: // checkpointer already signaled
			}
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
		s.queueWaitLastNs.Store(wait.Nanoseconds())
		if req.stages != nil {
			req.stages.QueueWaitNanos = wait.Nanoseconds()
		}
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
			if req.stages != nil {
				req.stages.AppendNanos = tm.WriteNanos
			}
		}
		s.walFail.CompareAndSwap(nil, &walFailure{err: err})
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
				s.walFail.CompareAndSwap(nil, &walFailure{err: err})
				s.failGroup(job.group, err)
				continue
			}
			synced = covered
			s.stages[stageFsync].Observe(time.Duration(lastSyncNs))
		}
		// Piggybacked jobs are stamped with the barrier wait that covered
		// them: in wall-clock terms that is what their writers paid.
		for _, req := range job.group {
			if req.stages != nil {
				req.stages.AppendNanos, req.stages.FsyncNanos = job.writeNanos, lastSyncNs
			}
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
	for {
		max := s.groupMax.Load()
		if int64(len(group)) <= max || s.groupMax.CompareAndSwap(max, int64(len(group))) {
			break
		}
	}
	for _, req := range group {
		start := time.Now()
		s.publish(req.ep, req.old, req.payload)
		s.observePublish(time.Since(start), req.stages)
		s.logCommit(context.Background(), req.reqID, req.ep, len(group))
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

// Segment evaluates a PgSeg query against the current snapshot, serving
// repeats from the LRU cache when the query is canonicalizable and useCache
// is true. It reports whether the result came from the cache.
func (s *Store) Segment(q core.Query, opts core.Options, useCache bool) (*core.Segment, bool, error) {
	return s.segmentAt(new(core.Work), s.snap.Load(), q, opts, useCache)
}

// segmentAt evaluates one segment query for the request w records against a
// pinned snapshot.
func (s *Store) segmentAt(w *core.Work, ep *Epoch, q core.Query, opts core.Options, useCache bool) (*core.Segment, bool, error) {
	key := ""
	if useCache {
		key, _ = segKey(q, opts)
	}
	seg, cached, err := s.lookupAt(w, ep, q, opts, key)
	if err != nil {
		return nil, false, err
	}
	if !cached {
		s.fill(w, ep, q, key, seg)
	}
	return seg, cached, nil
}

// lookupAt returns q's segment at ep from the cache entry under key ("":
// bypass the cache), or solves it for the request w records, and reports
// whether it came from the cache. Cache hits require the entry's validation
// epoch to match the snapshot's, so a reader never mixes results across
// epochs. The caller fills the cache with a solved segment once the request
// is done with it.
func (s *Store) lookupAt(w *core.Work, ep *Epoch, q core.Query, opts core.Options, key string) (*core.Segment, bool, error) {
	if key != "" {
		if seg, ok := s.cache.get(key, ep.N); ok {
			return seg, true, nil
		}
	}
	seg, err := core.NewEngine(ep.P, opts).SegmentWork(w, q)
	return seg, false, err
}

// fill caches seg, solved at ep for q, under key, unless key is empty or
// the request w records was cancelled: a cancelled request caches nothing.
func (s *Store) fill(w *core.Work, ep *Epoch, q core.Query, key string, seg *core.Segment) {
	if key != "" && w.Err() == nil {
		s.cache.add(key, seg, relMask(q.Boundary.ExcludeRels), ep.N)
	}
}

// Summarize evaluates the segment queries (through the cache) and combines
// the results with PgSum. All segments and the summary are evaluated
// against one pinned snapshot, so the result reflects a single graph state
// even with concurrent ingest.
func (s *Store) Summarize(queries []core.Query, segOpts core.Options, sumOpts core.SumOptions) (*core.Psg, error) {
	return s.summarizeAt(new(core.Work), queries, segOpts, sumOpts)
}

// summarizeAt is Summarize for the request w records. A spec repeated in
// one request reuses its first solve, and the segments it solved are cached
// once PgSum has run.
func (s *Store) summarizeAt(w *core.Work, queries []core.Query, segOpts core.Options, sumOpts core.SumOptions) (*core.Psg, error) {
	ep := s.snap.Load()
	segs, solved := make([]*core.Segment, len(queries)), make([]string, len(queries))
	first := make(map[string]int, len(queries))
	for i, q := range queries {
		key, _ := segKey(q, segOpts)
		if j, ok := first[key]; ok && key != "" {
			segs[i] = segs[j]
			continue
		}
		first[key] = i
		seg, cached, err := s.lookupAt(w, ep, q, segOpts, key)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		if segs[i] = seg; !cached {
			solved[i] = key
		}
	}
	psg, err := core.SummarizeWork(w, segs, sumOpts)
	for i, q := range queries {
		s.fill(w, ep, q, solved[i], segs[i])
	}
	return psg, err
}

// Adjust applies the paper's interactive adjust step to a (cached) segment:
// the base query is resolved through the cache, then AdjustExclude (with
// the given exclusion boundary) and/or AdjustExpand derive the adjusted
// result against the same snapshot. It reports whether the base segment
// came from the cache. Adjusted results are derived views and are not
// inserted back into the cache.
func (s *Store) Adjust(q core.Query, opts core.Options, excl core.Boundary, exps []core.Expansion) (*core.Segment, bool, error) {
	return s.adjustAt(new(core.Work), s.snap.Load(), q, opts, excl, exps)
}

// adjustAt is Adjust for the request w records against a pinned snapshot;
// a solved base is cached once the adjustments have run.
func (s *Store) adjustAt(w *core.Work, ep *Epoch, q core.Query, opts core.Options, excl core.Boundary, exps []core.Expansion) (*core.Segment, bool, error) {
	key, _ := segKey(q, opts)
	base, cached, err := s.lookupAt(w, ep, q, opts, key)
	if err != nil {
		return nil, false, err
	}
	eng, seg := core.NewEngine(ep.P, opts), base
	if len(excl.ExcludeRels) > 0 || len(excl.VertexFilters) > 0 || len(excl.EdgeFilters) > 0 {
		seg = eng.AdjustExclude(seg, excl)
	}
	for _, ex := range exps {
		if seg, err = eng.AdjustExpandWork(w, seg, ex); err != nil {
			return nil, false, err
		}
	}
	if !cached {
		s.fill(w, ep, q, key, base)
	}
	return seg, cached, nil
}

// Cypher evaluates a query in the supported Cypher subset against the
// current snapshot.
func (s *Store) Cypher(query string, opts cypher.Options) (*cypher.Result, error) {
	return s.cypherAt(context.Background(), s.snap.Load(), query, opts)
}

// cypherAt evaluates a query against a pinned snapshot (the one the caller
// goes on to render the result from), stopping once ctx is done.
func (s *Store) cypherAt(ctx context.Context, ep *Epoch, query string, opts cypher.Options) (*cypher.Result, error) {
	return cypher.NewProvEvaluator(ep.P, opts).Run(ctx, query)
}

// StoreStats is the /stats payload: graph shape, cache counters, and service
// uptime.
type StoreStats struct {
	Vertices      int            `json:"vertices"`
	Edges         int            `json:"edges"`
	VertexByLabel map[string]int `json:"vertex_by_label"`
	EdgeByLabel   map[string]int `json:"edge_by_label"`
	MaxOutDegree  int            `json:"max_out_degree"`
	MaxInDegree   int            `json:"max_in_degree"`
	Epoch         uint64         `json:"epoch"`
	Writes        uint64         `json:"writes"`
	Cache         CacheStats     `json:"cache"`
	UptimeMillis  int64          `json:"uptime_ms"`
}

// Stats snapshots the store. Lock-free: it reads the current epoch.
func (s *Store) Stats() StoreStats {
	ep := s.snap.Load()
	st := ep.P.PG().Stats()
	return StoreStats{
		Vertices:      st.Vertices,
		Edges:         st.Edges,
		VertexByLabel: st.VertexByLabel,
		EdgeByLabel:   st.EdgeByLabel,
		MaxOutDegree:  st.MaxOutDegree,
		MaxInDegree:   st.MaxInDegree,
		Epoch:         ep.N,
		Writes:        ep.N,
		Cache:         s.cache.stats(),
		UptimeMillis:  time.Since(s.started).Milliseconds(),
	}
}

// The export methods render straight from the current snapshot: it is
// immutable, so a slow client draining the response can never stall ingest
// or other readers (the old read-lock design had to buffer in memory first).

// ExportJSON writes the whole graph as PROV-JSON (prov/json.go's format).
func (s *Store) ExportJSON(w io.Writer) error {
	return s.snap.Load().P.ExportJSON(w)
}

// ExportDOT writes the whole graph in graphviz DOT (graph/dot.go).
func (s *Store) ExportDOT(w io.Writer) error {
	return s.snap.Load().P.PG().WriteDOT(w, graph.DOTOptions{
		NameProp:    prov.PropName,
		VertexShape: provShapes,
	})
}

// Save writes the graph in the binary .pg format (graph/store.go).
func (s *Store) Save(w io.Writer) error {
	return s.snap.Load().P.PG().Save(w)
}

// provShapes is the DOT shape convention shared with the CLI renderers.
var provShapes = map[string]string{
	"v:E": "ellipse",
	"v:A": "box",
	"v:U": "house",
}

// relMask converts a boundary's excluded relationship types into the
// admitted-relations mask cache entries carry for delta revalidation.
func relMask(excluded []prov.Rel) [8]bool {
	var ok [8]bool
	for i := range ok {
		ok[i] = true
	}
	for _, r := range excluded {
		ok[r] = false
	}
	return ok
}
