package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/repl"
)

// Follower mode: a store in the follower role (a follower registry's
// stores, see follow_registry.go) mirrors a leader's store by tailing its
// wal-stream endpoint (GET /stores/{name}/wal, see internal/repl) and
// feeding each delta through the same apply path crash recovery replays a
// local log through — graph.ApplyDelta, the PROV schema check over the
// delta (prov.Graph.ValidateFrom), Recorder.IndexFrom over the appended
// vertices, then an incremental freeze and the atomic epoch pointer swap. A
// follower therefore serves the entire lock-free read API at its applied
// epoch; writes are refused with a redirect to the leader until Promote
// moves the store to the leader role, which seals the applier and opens the
// write path.
//
// The applier is a retry loop around followOnce (one connection consumed
// until it breaks). Any byte cut leaves the store at an exact epoch prefix
// of the leader: the frame reader refuses torn or corrupt frames, and
// applyReplicated refuses epoch gaps, so a partial stream can only ever
// end cleanly between applied epochs. Reconnects resume from the applied
// epoch; if the leader's ring has moved past it, the stream re-seeds from
// a full checkpoint (resetReplicated).

// ErrFollowerWrites reports a write routed to a follower store.
var ErrFollowerWrites = errors.New("follower store: writes go to the leader")

// ErrNotFollower reports a Promote on a store that is not (or no longer) a
// follower.
var ErrNotFollower = errors.New("store is not a follower")

// reconnectBackoff paces applier redials after a broken stream.
const reconnectBackoff = 250 * time.Millisecond

// newFollowerStore builds a memory-only store in the follower role that
// mirrors the same-named store on the leader at opts.Leader, with opts'
// store settings (see newStore). The applier is not started;
// Registry.open starts it, tests may drive followOnce directly instead.
func newFollowerStore(name string, opts RegistryOptions) *Store {
	s := newStore(prov.NewRecorder(), 0, name, opts)
	s.leaderURL = opts.Leader
	s.role.Store(roleFollower)
	return s
}

// bgLoop is one background goroutine that runs until stopped: a follower
// store's applier or a follower registry's discovery loop.
type bgLoop struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// goLoop runs fn on its own goroutine; stop cancels fn's context.
func goLoop(fn func(ctx context.Context)) *bgLoop {
	ctx, cancel := context.WithCancel(context.Background())
	l := &bgLoop{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		fn(ctx)
	}()
	return l
}

// stop cancels the loop and waits for it to return. A nil loop (none was
// started) is a no-op; stopping twice is safe.
func (l *bgLoop) stop() {
	if l != nil {
		l.cancel()
		<-l.done
	}
}

// startApplier launches the replication loop over hc (nil selects
// http.DefaultClient), redialing backoff after each broken stream.
func (s *Store) startApplier(hc *http.Client, backoff time.Duration) {
	s.applier = goLoop(func(ctx context.Context) { s.followLoop(ctx, hc, backoff) })
}

// followLoop drives followOnce until the store is promoted or closed,
// redialing with a fixed backoff after each broken stream.
func (s *Store) followLoop(ctx context.Context, hc *http.Client, backoff time.Duration) {
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil || s.role.Load() != roleFollower {
			return
		}
		if f := s.walFail.Load(); f != nil {
			// Poisoned mid-apply: the live graph and the stream can no
			// longer be reconciled. Published snapshots stay exactly where
			// they were; redialing would only fail again.
			if s.logger != nil {
				s.logger.Error("replication stopped", "store", s.name, "err", f.err)
			}
			return
		}
		if attempt > 0 {
			s.replReconnects.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
		}
		err := s.followOnce(ctx, hc)
		if ctx.Err() != nil {
			return
		}
		if err != nil && s.logger != nil {
			s.logger.Debug("replication stream ended", "store", s.name, "epoch", s.snap.Load().N, "err", err)
		}
	}
}

// followOnce opens one replication stream at the applied epoch and
// consumes it until it breaks (or the context cancels), applying every
// snapshot and delta in order. The error is the reason the stream ended —
// io.EOF for a clean leader-side close, wal.ErrTornFrame for a cut
// connection; the store is a valid epoch prefix of the leader regardless.
func (s *Store) followOnce(ctx context.Context, hc *http.Client) error {
	st, err := repl.Open(ctx, hc, s.leaderURL, s.name, s.snap.Load().N)
	if err != nil {
		return err
	}
	defer st.Close()
	s.replLeaderEp.Observe(int64(st.LeaderEpoch()))
	for {
		ev, err := st.Next()
		if err != nil {
			return err
		}
		s.replLeaderEp.Observe(int64(ev.LeaderEpoch))
		switch ev.Kind {
		case repl.KindSnapshot:
			err = s.resetReplicated(ev.Epoch, ev.Payload, ev.PublishedNanos)
		case repl.KindDelta:
			err = s.applyReplicated(ev.Epoch, ev.Payload, ev.PublishedNanos)
		}
		if err != nil {
			return err
		}
	}
}

// noteLag records the apply lag of a record the leader published at
// publishedNanos (0: not stamped). Appliers call it before the record's
// epoch becomes visible, so a reader that waited for the epoch sees its lag.
func (s *Store) noteLag(publishedNanos int64) {
	if publishedNanos <= 0 {
		return
	}
	s.replLag.Observe(time.Duration(time.Now().UnixNano() - publishedNanos))
}

// applyReplicated applies one leader delta: exactly the recovery replay
// path (ApplyDelta, then indexDelta: the schema check over the delta and
// IndexFrom), then the standard incremental freeze and install. The epoch
// must extend the applied prefix contiguously — a gap means this delta
// belongs to a future the store hasn't seen, and applying it would corrupt
// the graph; the caller reconnects instead.
func (s *Store) applyReplicated(epoch uint64, payload []byte, publishedNanos int64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.checkRole(roleFollower); err != nil {
		return err
	}
	if f := s.walFail.Load(); f != nil {
		return fmt.Errorf("store: %w", f.err)
	}
	old := s.tail
	if epoch != old.N+1 {
		return fmt.Errorf("repl: delta for epoch %d cannot extend applied epoch %d", epoch, old.N)
	}
	firstNew, firstEdge := s.rec.P.NumVertices(), s.rec.P.NumEdges()
	err := s.rec.P.PG().ApplyDelta(bytes.NewReader(payload))
	if err == nil {
		err = indexDelta(s.rec, firstNew, firstEdge)
	}
	if err != nil {
		// The live graph may be partially mutated: poison the store so no
		// further apply (or promoted write) builds on it. Published
		// snapshots are frozen copies and remain an exact epoch prefix.
		s.poison(err)
		return fmt.Errorf("repl: apply delta for epoch %d: %w", epoch, err)
	}
	ep, _ := s.freezeEpoch(s.rec.P, epoch, old)
	s.tail = ep
	if s.hub.Load() != nil {
		// The hub retains the payload (chained followers tail it), but the
		// stream reader reuses its buffer on the next frame.
		payload = append([]byte(nil), payload...)
	}
	s.noteLag(publishedNanos)
	s.install(ep, old, payload)
	return nil
}

// resetReplicated replaces the store's state with a full leader checkpoint
// at the given epoch — the re-seed path when the leader's delta ring no
// longer covers the applied epoch. The graph is validated and indexed
// exactly as a local checkpoint is at startup (recorderOver), and installed
// as a new lineage: the segment cache is purged wholesale (delta
// revalidation assumes append-only continuity, which a snapshot jump breaks)
// and the hub is rebased, ending any chained followers' streams so they
// re-seed too.
func (s *Store) resetReplicated(epoch uint64, data []byte, publishedNanos int64) error {
	g, err := graph.Load(bytes.NewReader(data))
	var rec *prov.Recorder
	if err == nil {
		rec, err = recorderOver(g)
	}
	if err != nil {
		return fmt.Errorf("repl: checkpoint at epoch %d: %w", epoch, err)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.checkRole(roleFollower); err != nil {
		return err
	}
	if epoch < s.tail.N {
		return fmt.Errorf("repl: checkpoint at epoch %d behind applied epoch %d", epoch, s.tail.N)
	}
	// A new lineage (no base): a reader still pinned to an older epoch keeps
	// extending that epoch's reply column, never this one. Only an accepted
	// checkpoint is frozen (and counts a freeze).
	ep, _ := s.freezeEpoch(rec.P, epoch, nil)
	if epoch == 0 && ep.Vertices > 0 {
		// The leader shipped a non-empty epoch-0 base: chained followers
		// reading this store's wal stream need the same checkpoint seeding.
		s.nonEmptyBase.Store(true)
	}
	s.rec, s.tail = rec, ep
	s.noteLag(publishedNanos)
	s.install(ep, nil, nil)
	return nil
}

// Promote moves the store from the follower to the leader role, then
// seals the applier: in-flight applies finish or fail cleanly, and the next
// Update commits epoch N+1 on top of the applied prefix. Returns
// ErrNotFollower if the store is not (or no longer) a follower — a leader
// or a closed store; promotion is not idempotent so that exactly one
// caller wins a failover race.
func (s *Store) Promote() error {
	if !s.role.CompareAndSwap(roleFollower, roleLeader) {
		return fmt.Errorf("store %q: %w", s.name, ErrNotFollower)
	}
	s.applier.stop()
	if s.logger != nil {
		s.logger.Info("store promoted", "store", s.name, "epoch", s.snap.Load().N, "leader", s.leaderURL)
	}
	return nil
}

// Follower reports whether the store currently applies a leader's stream.
func (s *Store) Follower() bool { return s.role.Load() == roleFollower }

// LeaderURL returns the leader this store replicates (or replicated) from;
// empty for stores that were never followers.
func (s *Store) LeaderURL() string { return s.leaderURL }

// EnableRepl turns on the replication hub: from now on every published
// epoch's delta is retained in a bounded ring for wal-stream tailers. The
// first wal-stream request calls this lazily, so stores nobody replicates
// never pay for delta retention (or, on memory-only stores, for delta
// encoding at all). Idempotent.
func (s *Store) EnableRepl() *repl.Hub {
	if h := s.hub.Load(); h != nil {
		return h
	}
	// Under writeMu so memory-only commits start encoding deltas exactly
	// from the next epoch; the hub bases at the published snapshot, which
	// staged-but-unpublished group batches (that all carry payloads) will
	// extend contiguously as they publish.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if h := s.hub.Load(); h != nil {
		return h
	}
	h := repl.NewHub(0, s.snap.Load().N)
	s.hub.Store(h)
	return h
}

// SnapshotBytes serializes the current epoch's graph in the binary .pg
// format — the checkpoint frame a wal stream opens with when its tail ring
// no longer covers the requested epoch. Lock-free: the snapshot is
// immutable.
func (s *Store) SnapshotBytes() (uint64, []byte, error) {
	ep := s.snap.Load()
	var buf bytes.Buffer
	if err := ep.P.PG().Save(&buf); err != nil {
		return 0, nil, err
	}
	return ep.N, buf.Bytes(), nil
}

// WaitEpoch blocks until the published epoch reaches min, the timeout
// elapses, or the store closes, reporting whether the epoch was reached —
// the serving half of the read-your-writes token (X-Min-Epoch). On a
// leader this returns immediately (a client can only hold tokens for
// epochs the leader has published); on a follower it parks on the publish
// wake channel until the applier catches up.
func (s *Store) WaitEpoch(min uint64, timeout time.Duration) bool {
	if s.snap.Load().N >= min {
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		ch := *s.epochWait.Load()
		if s.snap.Load().N >= min {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			return s.snap.Load().N >= min
		}
	}
}

// ReplStats is the /metrics repl panel, present on stores that are (or
// were) followers: the applied and leader epochs, the record and
// wall-clock lag, and the reconnect count, plus the apply-lag latency
// digest.
type ReplStats struct {
	Follower     bool   `json:"follower"`
	LeaderURL    string `json:"leader_url"`
	AppliedEpoch uint64 `json:"applied_epoch"`
	LeaderEpoch  uint64 `json:"leader_epoch"`
	// LagRecords is leader epoch minus applied epoch (0 when caught up or
	// when the leader epoch is not yet known).
	LagRecords int64 `json:"lag_records"`
	// LagNanos is the publish-to-apply wall-clock lag of the most recently
	// applied record.
	LagNanos   int64  `json:"lag_ns"`
	Reconnects uint64 `json:"reconnects"`
	// Lag digests the per-record apply lag distribution.
	Lag obs.LatencySummary `json:"lag"`
}
