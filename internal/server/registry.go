package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/prov"
	"repro/internal/wal"
)

// Registry hosts N named stores behind one daemon. Each store is a fully
// independent shard: its own epoch pointer, segment cache, prov.Recorder,
// request counters and — on durable registries — its own WAL/checkpoint
// directory under DataDir/<name>/, so shards ingest concurrently without
// serializing behind each other's fsyncs. The HTTP layer routes
// /stores/{name}/... to the named store; the legacy unprefixed endpoints
// alias the default store.
//
// A durable registry's directory tree looks like
//
//	<data>/default/checkpoint-....pg  wal-....log
//	<data>/audit/checkpoint-....pg    wal-....log
//	...
//
// Opening a registry scans DataDir for subdirectories holding durable state
// and recovers every one of them; stores created later (PUT /stores/{name})
// bootstrap a fresh subdirectory. For backward compatibility with the
// single-store layout, checkpoint/WAL files sitting directly in DataDir are
// adopted as the default store's state.

// DefaultStore is the name the unprefixed legacy endpoints resolve to.
const DefaultStore = "default"

// maxStoreName bounds store name length.
const maxStoreName = 64

// ErrUnknownStore reports a routed store name with no store behind it.
var ErrUnknownStore = errors.New("unknown store")

// ValidStoreName reports whether name is usable as a store name (and thus a
// data subdirectory): 1..64 characters drawn from [a-zA-Z0-9_-]. The
// character set makes path traversal unspellable.
func ValidStoreName(name string) bool {
	if len(name) == 0 || len(name) > maxStoreName {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// RegistryOptions configures every store a registry opens or creates.
type RegistryOptions struct {
	// DataDir is the root data directory; empty builds memory-only stores.
	DataDir string
	// Fsync selects each durable store's append fsync policy (default
	// wal.SyncAlways); under SyncAlways the stores share device-level sync
	// windows — one flush per window instead of one per store (see
	// wal.Coalescer). SyncInterval is the background flush period under
	// wal.SyncInterval, and CheckpointEvery the number of committed batches
	// between checkpoints (<=0 selects DefaultCheckpointEvery).
	Fsync           wal.SyncPolicy
	SyncInterval    time.Duration
	CheckpointEvery int
	// DefaultQoS is the admission policy every opened or created store
	// starts with (zero = no limits); PUT /stores/{name} can override it
	// per store.
	DefaultQoS QoSConfig
	// CacheCap bounds each store's segment cache (entries; <=0 selects
	// DefaultCacheCap).
	CacheCap int
	// Logger, when non-nil, receives each store's per-commit Debug lines
	// and, on follower registries, its replication lines.
	Logger *slog.Logger
	// Leader, when set, is the base URL (e.g. http://host:8042) of the
	// provd this registry follows (see follow_registry.go): every store is
	// a memory-only follower of the leader's same-named store, and the
	// store set is the leader's. Excludes DataDir and extra store names.
	Leader string
}

// StoreRecovery pairs a recovered store name with what its startup found.
type StoreRecovery struct {
	Name string
	Rcv  *wal.Recovery
}

// Registry is the named-store map plus the configuration new stores adopt.
type Registry struct {
	opts RegistryOptions

	// createMu serializes store creations with each other (so two PUTs for
	// one name never bootstrap the same directory concurrently) WITHOUT
	// holding mu across the bootstrap I/O — request routing on existing
	// shards never stalls behind a slow disk.
	createMu sync.Mutex

	// coal is the registry-wide fsync coalescer durable stores commit
	// through (nil unless durable under SyncAlways, the one policy with a
	// barrier on the commit path). Closed after the stores.
	coal *wal.Coalescer
	// defaultDir is the default store's directory on a durable registry,
	// resolved once at open (DefaultStoreDir).
	defaultDir string

	// discovery is a follower registry's discovery loop
	// (follow_registry.go); nil on other registries.
	discovery *bgLoop

	mu     sync.RWMutex
	stores map[string]*Store
	closed bool
}

// OpenRegistry opens a registry: the default store always exists (seeded by
// seed on a fresh memory-only store or data directory), extra lists
// additional stores to open or create at boot, and — on durable registries
// — every DataDir subdirectory already holding state is recovered even if
// unnamed here. A follower registry (opts.Leader set) opens the stores the
// leader lists and never consults seed. Returns the per-store recovery
// reports, default store first.
func OpenRegistry(opts RegistryOptions, extra []string, seed func() (*prov.Graph, error)) (*Registry, []StoreRecovery, error) {
	if err := opts.DefaultQoS.Validate(); err != nil {
		return nil, nil, fmt.Errorf("registry: %w", err)
	}
	if opts.Leader != "" && (opts.DataDir != "" || len(extra) > 0) {
		return nil, nil, errors.New("registry: a follower mirrors the leader's stores: no data directory or extra stores")
	}
	opts.Leader = strings.TrimSuffix(opts.Leader, "/")
	r := &Registry{opts: opts, stores: make(map[string]*Store)}
	set := map[string]bool{DefaultStore: true}
	for _, name := range extra {
		if !ValidStoreName(name) {
			return nil, nil, fmt.Errorf("registry: invalid store name %q", name)
		}
		set[name] = true
	}
	switch {
	case opts.Leader != "":
		// The leader's first GET /stores names the follower's boot set; an
		// unreachable leader leaves the default store alone until discovery
		// reaches it.
		for _, name := range r.leaderStores(context.Background()) {
			set[name] = true // leaderStores lists valid names only
		}
	case opts.DataDir != "":
		var err error
		if r.defaultDir, _, err = DefaultStoreDir(opts.DataDir); err != nil {
			return nil, nil, err
		}
		entries, err := os.ReadDir(opts.DataDir)
		if err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
		for _, e := range entries {
			if !e.IsDir() || e.Name() == DefaultStore || !ValidStoreName(e.Name()) {
				continue
			}
			has, err := wal.DirHasState(filepath.Join(opts.DataDir, e.Name()))
			if err != nil {
				return nil, nil, err
			}
			if has {
				set[e.Name()] = true
			}
		}
	}

	if opts.DataDir != "" && opts.Fsync == wal.SyncAlways {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, nil, err
		}
		c, err := wal.NewCoalescer(opts.DataDir, wal.CoalesceAuto)
		if err != nil {
			return nil, nil, err
		}
		r.coal = c
	}
	var rcvs []StoreRecovery
	for _, name := range defaultFirst(set) {
		storeSeed := seed
		if name != DefaultStore {
			storeSeed = nil // -in/-gen seed the default store only
		}
		s, rcv, err := r.open(name, storeSeed)
		if err != nil {
			r.Close()
			return nil, nil, fmt.Errorf("registry: store %q: %w", name, err)
		}
		r.stores[name] = s
		rcvs = append(rcvs, StoreRecovery{Name: name, Rcv: rcv})
	}
	if opts.Leader != "" {
		r.discovery = goLoop(r.discoverLoop)
	}
	return r, rcvs, nil
}

// DefaultStoreDir resolves where the default store of a registry over
// dataDir keeps its state, and reports whether it holds any yet: dataDir
// itself when state sits directly in it (the pre-sharding single-store
// layout, adopted in place), else dataDir/default. State in both is
// ambiguous — adopting either would silently shadow the other's graph — so
// it is refused, and the operator picks one.
func DefaultStoreDir(dataDir string) (dir string, has bool, err error) {
	sub := filepath.Join(dataDir, DefaultStore)
	rootHas, err := wal.DirHasState(dataDir)
	if err != nil {
		return "", false, err
	}
	subHas, err := wal.DirHasState(sub)
	switch {
	case err != nil:
		return "", false, err
	case rootHas && subHas:
		return "", true, fmt.Errorf(
			"registry: %s holds default-store state both directly (legacy layout) and under %s; move one aside", dataDir, sub)
	case rootHas:
		return dataDir, true, nil
	}
	return sub, subHas, nil
}

// seedGraph is a fresh store's initial graph: seed's, or an empty PROV
// graph when seed is nil.
func seedGraph(seed func() (*prov.Graph, error)) (*prov.Graph, error) {
	if seed == nil {
		return prov.New(), nil
	}
	return seed()
}

// open builds one store per the registry configuration (no map insert): a
// follower of the leader's same-named store with its applier running, a
// memory-only store over seed's graph, or a durable store over its data
// subdirectory (the default store's resolved at OpenRegistry).
func (r *Registry) open(name string, seed func() (*prov.Graph, error)) (*Store, *wal.Recovery, error) {
	fresh := &wal.Recovery{Fresh: true}
	switch {
	case r.opts.Leader != "":
		s := newFollowerStore(name, r.opts)
		s.startApplier(nil, reconnectBackoff)
		return s, fresh, nil
	case r.opts.DataDir == "":
		p, err := seedGraph(seed)
		if err != nil {
			return nil, nil, err
		}
		return newStore(prov.WrapRecorder(p), 0, name, r.opts), fresh, nil
	}
	dir := filepath.Join(r.opts.DataDir, name)
	if name == DefaultStore {
		dir = r.defaultDir
	}
	return openDurable(dir, name, r.opts, r.coal, seed)
}

// Get returns the named store, or ErrUnknownStore. Lock-free on the read
// path beyond one RLock.
func (r *Registry) Get(name string) (*Store, error) {
	r.mu.RLock()
	s, ok := r.stores[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownStore, name)
	}
	return s, nil
}

// Create opens (or returns) the named store, reporting whether it was
// created by this call. New durable stores bootstrap a fresh empty
// subdirectory, and a follower registry's new stores start replicating;
// creation is idempotent so PUT /stores/{name} and discovery can retry it.
// The bootstrap runs outside the routing lock: requests to existing shards
// proceed while a store is being created.
func (r *Registry) Create(name string) (*Store, bool, error) {
	if !ValidStoreName(name) {
		return nil, false, fmt.Errorf("registry: invalid store name %q (want 1-%d chars of [a-zA-Z0-9_-])", name, maxStoreName)
	}
	r.createMu.Lock()
	defer r.createMu.Unlock()
	r.mu.RLock()
	s, ok := r.stores[name]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, false, errors.New("registry: closed")
	}
	if ok {
		return s, false, nil
	}
	// Not present, and no concurrent creation possible (createMu): bootstrap
	// with no registry lock held.
	s, _, err := r.open(name, nil)
	if err != nil {
		return nil, false, fmt.Errorf("registry: store %q: %w", name, err)
	}
	r.mu.Lock()
	if r.closed {
		// Close ran while we were bootstrapping and will not see this store;
		// seal it here instead of leaking its WAL or applier.
		r.mu.Unlock()
		_ = s.Close()
		return nil, false, errors.New("registry: closed")
	}
	r.stores[name] = s
	r.mu.Unlock()
	return s, true, nil
}

// Names lists the stores, sorted, default first.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return defaultFirst(r.stores)
}

// List returns one consistent snapshot of the stores, sorted by name with
// the default store first.
func (r *Registry) List() []*Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := defaultFirst(r.stores)
	stores := make([]*Store, len(names))
	for i, name := range names {
		stores[i] = r.stores[name]
	}
	return stores
}

// Default returns the default store.
func (r *Registry) Default() *Store {
	s, _ := r.Get(DefaultStore)
	return s
}

// Coalescer returns the registry-wide fsync coalescer (nil unless durable
// under SyncAlways).
func (r *Registry) Coalescer() *wal.Coalescer { return r.coal }

// Close closes every store (sealing WALs, writing final checkpoints) and
// refuses further creations. The first error wins; all stores are closed
// regardless. The shared coalescer closes after the stores — their
// committers are drained by then, and a straggler would still fall back to
// a direct fsync rather than fail.
func (r *Registry) Close() error {
	// Follower registries: stop discovery before the stores so no new
	// applier starts while the map is being torn down.
	r.discovery.stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	var first error
	for _, name := range defaultFirst(r.stores) {
		if err := r.stores[name].Close(); err != nil && first == nil {
			first = fmt.Errorf("store %q: %w", name, err)
		}
	}
	if r.coal != nil {
		if err := r.coal.Close(); err != nil && first == nil {
			first = fmt.Errorf("coalescer: %w", err)
		}
	}
	return first
}

// defaultFirst returns m's keys in the order a registry opens, lists and
// closes its stores: the default store first, then the rest by name.
func defaultFirst[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return names[j] != DefaultStore && (names[i] == DefaultStore || names[i] < names[j])
	})
	return names
}
