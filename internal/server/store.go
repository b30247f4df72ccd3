// Package server implements provd, the long-lived HTTP query service over a
// provenance graph (the serving layer of the paper's provenance data
// manager). It has three layers:
//
//  1. Store — epoch-snapshot concurrency over the PROV graph and its
//     lifecycle recorder. Every read (segmentation, summarization, Cypher,
//     stats, exports; store.go) runs lock-free against an immutable frozen
//     snapshot (prov.Freeze) reached through one atomic pointer load; ingest
//     serializes behind a write mutex and publishes a new snapshot on
//     commit (commit.go), through the one step that makes any epoch
//     visible (Store.install). Readers never block on writers. A store has
//     one role — leader (writable), follower (applying a leader's wal stream,
//     follower.go) or closed — and every store, memory-only, durable or
//     follower, is opened by one Registry (registry.go, OpenRegistry).
//  2. Wire codecs (codec.go) and the endpoint handlers (handlers.go,
//     routed by server.go) — JSON request/response types for every
//     endpoint, plus DOT and PROV-JSON output formats reusing the existing
//     renderers. The large replies (segment, adjust, summarize) are
//     streamed by the append encoder in reply.go, byte-identical to
//     encoding/json over those types.
//  3. Result cache (cache.go) — an LRU over canonicalized PgSeg queries
//     whose entries are tagged with the epoch they were solved at and
//     revalidated incrementally against each ingest delta.
package server

import (
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
	// Set by the constructor, like the logger, cache capacity and QoS.
	name string

	// writeMu serializes ingest batches, delta encoding, snapshot builds
	// and (on memory-only stores) publication. Readers never take it.
	writeMu sync.Mutex
	rec     *prov.Recorder
	// role is the store's state (roleLeader, roleFollower or roleClosed).
	// Written only by Promote's CAS and by Close under writeMu, so a writer
	// holding writeMu sees a role that cannot turn closed under it.
	role atomic.Int32

	// snap is the published epoch. install (commit.go) is its one writer.
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

	// logger, when non-nil, receives a Debug-level structured line per
	// published commit carrying the staging request's id.
	logger *slog.Logger

	// Freeze instrumentation, surfaced via /metrics: what each snapshot
	// build costs (the histogram counts every build) and how many extended
	// the previous epoch's CSR index; the rest were full rebuilds.
	freeze     obs.Histogram
	freezeIncr atomic.Uint64

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
	groupMax     obs.Max       // largest group so far

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
	// read-your-writes wake channel: install closes and replaces it, and
	// WaitEpoch blocks on it until the snapshot reaches a client's token.
	hub       atomic.Pointer[repl.Hub]
	epochWait atomic.Pointer[chan struct{}]
	// nonEmptyBase records that the store's epoch-0 graph already held
	// vertices (generated, loaded, or recovered from a checkpoint): that
	// state exists in no delta, so a from=0 wal stream must open with a
	// checkpoint frame even while the hub ring still covers epoch 1.
	nonEmptyBase atomic.Bool

	// Follower state (newFollowerStore): the applier goroutine (nil until
	// started) and the repl metrics counters (replLag's last sample is the
	// most recently applied record's lag). leaderURL is set once at
	// construction and never cleared (a promoted store keeps reporting
	// where it replicated from).
	leaderURL      string
	applier        *bgLoop
	replLeaderEp   obs.Max // the leader's head epoch as seen on the stream
	replLag        obs.Histogram
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

	// requests holds per-endpoint counters in endpoints order: totals
	// (bumped at routing time, so /metrics counts itself), the status-class
	// split and the latency histogram (both recorded on completion). Atomics,
	// last so their writes stay off the cache lines of the fields above.
	requests [numEndpoints]endpointMetrics
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

// poison makes err the store's sticky failure, unless one is set already:
// the first failure is the one every later write reports.
func (s *Store) poison(err error) { s.walFail.CompareAndSwap(nil, &walFailure{err: err}) }

// NewStore wraps an existing PROV graph in a memory-only store. cacheCap
// bounds the segment cache (entries; <=0 selects DefaultCacheCap). For a
// store that survives restarts open a registry with a DataDir.
func NewStore(p *prov.Graph, cacheCap int) *Store {
	return newStore(prov.WrapRecorder(p), 0, "", RegistryOptions{CacheCap: cacheCap})
}

// newStore builds the store named name around an existing recorder, with
// opts' cache capacity, logger and default QoS (validated by the caller),
// installing the initial snapshot at the given epoch number (non-zero when
// recovery resumes a pre-crash epoch sequence).
func newStore(rec *prov.Recorder, epoch uint64, name string, opts RegistryOptions) *Store {
	s := &Store{
		name:    name,
		rec:     rec,
		cache:   newSegCache(opts.CacheCap),
		logger:  opts.Logger,
		started: time.Now(),
	}
	_ = s.SetQoS(opts.DefaultQoS)
	ep, _ := s.freezeEpoch(rec.P, epoch, nil)
	// A non-empty initial graph (loaded, generated, or recovered from a
	// checkpoint) is state no WAL delta reproduces: from=0 replication
	// streams must open with a checkpoint frame.
	s.nonEmptyBase.Store(ep.Vertices > 0)
	s.tail = ep
	s.install(ep, nil, nil)
	return s
}

// Name returns the store's registry name ("" for bare NewStore stores).
func (s *Store) Name() string { return s.name }

// Epoch returns the current snapshot. The result is immutable and safe to
// query for any length of time.
func (s *Store) Epoch() *Epoch { return s.snap.Load() }

// Segment evaluates a PgSeg query against the current snapshot, serving
// repeats from the LRU cache when the query is canonicalizable and useCache
// is true. It reports whether the result came from the cache, and returns
// the segment unpacked (the HTTP handlers render the packed form instead).
func (s *Store) Segment(q core.Query, opts core.Options, useCache bool) (*core.Segment, bool, error) {
	seg, cached, err := s.segmentAt(new(core.Work), s.snap.Load(), q, opts, useCache)
	if err != nil {
		return nil, false, err
	}
	return seg.Unpack(), cached, nil
}

// segmentAt evaluates one segment query for the request w records against a
// pinned snapshot.
func (s *Store) segmentAt(w *core.Work, ep *Epoch, q core.Query, opts core.Options, useCache bool) (*core.PackedSegment, bool, error) {
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
// epochs. A solved segment is packed, as the cache holds it; the caller
// fills the cache with it once the request is done with it.
func (s *Store) lookupAt(w *core.Work, ep *Epoch, q core.Query, opts core.Options, key string) (*core.PackedSegment, bool, error) {
	if key != "" {
		if seg, ok := s.cache.get(key, ep.N); ok {
			return seg, true, nil
		}
	}
	seg, err := core.NewEngine(ep.P, opts).SegmentWork(w, q)
	if err != nil {
		return nil, false, err
	}
	return seg.Pack(), false, nil
}

// fill caches seg, solved at ep for q, under key, unless key is empty or
// the request w records was cancelled: a cancelled request caches nothing.
func (s *Store) fill(w *core.Work, ep *Epoch, q core.Query, key string, seg *core.PackedSegment) {
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
// one request reuses its first solve, PgSum reads each segment unpacked,
// and the segments it solved are cached once PgSum has run.
func (s *Store) summarizeAt(w *core.Work, queries []core.Query, segOpts core.Options, sumOpts core.SumOptions) (*core.Psg, error) {
	ep := s.snap.Load()
	packed, solved := make([]*core.PackedSegment, len(queries)), make([]string, len(queries))
	segs := make([]*core.Segment, len(queries))
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
		if packed[i], segs[i] = seg, seg.Unpack(); !cached {
			solved[i] = key
		}
	}
	psg, err := core.SummarizeWork(w, segs, sumOpts)
	for i, q := range queries {
		s.fill(w, ep, q, solved[i], packed[i])
	}
	return psg, err
}

// adjustAt applies the paper's interactive adjust step to a (cached)
// segment, for the request w records against a pinned snapshot: the base
// query is resolved through the cache and unpacked, then AdjustExclude
// (with the given exclusion boundary) and/or AdjustExpand derive the
// adjusted result, returned packed. It reports whether the base segment
// came from the cache. Adjusted results are derived views and are not
// cached; a solved base is, once the adjustments have run.
func (s *Store) adjustAt(w *core.Work, ep *Epoch, q core.Query, opts core.Options, excl core.Boundary, exps []core.Expansion) (*core.PackedSegment, bool, error) {
	key, _ := segKey(q, opts)
	base, cached, err := s.lookupAt(w, ep, q, opts, key)
	if err != nil {
		return nil, false, err
	}
	eng, seg := core.NewEngine(ep.P, opts), base.Unpack()
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
	return seg.Pack(), cached, nil
}

// Cypher evaluates a query in the supported Cypher subset against the
// current snapshot.
func (s *Store) Cypher(query string, opts cypher.Options) (*cypher.Result, error) {
	return cypher.NewProvEvaluator(s.snap.Load().P, opts).Run(context.Background(), query)
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
// or other readers.

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
