package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
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
	// Fsync, SyncInterval and CheckpointEvery configure each store's
	// durability exactly as in DurableOptions. Under SyncAlways the stores
	// share device-level sync windows — one flush per window instead of one
	// per store (see wal.Coalescer).
	Fsync           wal.SyncPolicy
	SyncInterval    time.Duration
	CheckpointEvery int
	// DefaultQoS is the admission policy every opened or created store
	// starts with (zero = no limits); PUT /stores/{name} can override it
	// per store.
	DefaultQoS QoSConfig
	// CacheCap bounds each store's segment cache (entries).
	CacheCap int
	// Logger, when non-nil, receives each store's per-commit Debug lines.
	Logger *slog.Logger
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

	// Follower mode (see follow_registry.go): the leader being mirrored,
	// the HTTP client shared by discovery polls and replication streams,
	// the applier redial pace, and the discovery loop's lifecycle. All
	// zero on ordinary registries.
	leaderURL      string
	replClient     *http.Client
	replBackoff    time.Duration
	discoverCancel context.CancelFunc
	discoverDone   chan struct{}

	mu     sync.RWMutex
	stores map[string]*Store
	closed bool
}

// OpenRegistry opens a registry: the default store always exists (seeded by
// seed on a fresh directory, exactly as OpenDurable), extra lists additional
// stores to open or create at boot, and — on durable registries — every
// DataDir subdirectory already holding state is recovered even if unnamed
// here. Returns the per-store recovery reports, default store first.
func OpenRegistry(opts RegistryOptions, extra []string, seed func() (*prov.Graph, error)) (*Registry, []StoreRecovery, error) {
	if err := opts.DefaultQoS.Validate(); err != nil {
		return nil, nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{opts: opts, stores: make(map[string]*Store)}
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
	names := []string{DefaultStore}
	seen := map[string]bool{DefaultStore: true}
	add := func(name string) error {
		if seen[name] {
			return nil
		}
		if !ValidStoreName(name) {
			return fmt.Errorf("registry: invalid store name %q", name)
		}
		seen[name] = true
		names = append(names, name)
		return nil
	}
	for _, name := range extra {
		if err := add(name); err != nil {
			return nil, nil, err
		}
	}
	if opts.DataDir != "" {
		// A tree with state both directly in DataDir (pre-sharding layout)
		// and under DataDir/default/ is ambiguous: adopting either would
		// silently shadow the other's graph. Refuse and make the operator
		// pick one.
		rootHas, err := wal.DirHasState(opts.DataDir)
		if err != nil {
			return nil, nil, err
		}
		subHas, err := wal.DirHasState(filepath.Join(opts.DataDir, DefaultStore))
		if err != nil {
			return nil, nil, err
		}
		if rootHas && subHas {
			return nil, nil, fmt.Errorf(
				"registry: %s holds default-store state both directly (legacy layout) and under %s; move one aside",
				opts.DataDir, filepath.Join(opts.DataDir, DefaultStore))
		}
		entries, err := os.ReadDir(opts.DataDir)
		if err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
		for _, e := range entries {
			if !e.IsDir() || !ValidStoreName(e.Name()) {
				continue
			}
			has, err := wal.DirHasState(filepath.Join(opts.DataDir, e.Name()))
			if err != nil {
				return nil, nil, err
			}
			if has {
				if err := add(e.Name()); err != nil {
					return nil, nil, err
				}
			}
		}
		sort.Strings(names[1:]) // deterministic boot order after the default
	}

	var rcvs []StoreRecovery
	for _, name := range names {
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
	return r, rcvs, nil
}

// NewMemRegistry builds a memory-only registry around an existing default
// store (the single-store constructors' upgrade path).
func NewMemRegistry(def *Store, cacheCap int) *Registry {
	def.name = DefaultStore
	return &Registry{
		opts:   RegistryOptions{CacheCap: cacheCap},
		stores: map[string]*Store{DefaultStore: def},
	}
}

// storeDir maps a store name to its data subdirectory. The default store
// adopts legacy single-store state sitting directly in DataDir.
func (r *Registry) storeDir(name string) string {
	dir := filepath.Join(r.opts.DataDir, name)
	if name == DefaultStore {
		if has, err := wal.DirHasState(r.opts.DataDir); err == nil && has {
			return r.opts.DataDir
		}
	}
	return dir
}

// open builds one store per the registry configuration (no map insert).
func (r *Registry) open(name string, seed func() (*prov.Graph, error)) (*Store, *wal.Recovery, error) {
	if r.opts.DataDir == "" {
		var p *prov.Graph
		var err error
		if seed != nil {
			p, err = seed()
		} else {
			p = prov.New()
		}
		if err != nil {
			return nil, nil, err
		}
		s := NewStore(p, r.opts.CacheCap)
		s.name = name
		s.logger = r.opts.Logger
		_ = s.SetQoS(r.opts.DefaultQoS) // validated at OpenRegistry
		return s, &wal.Recovery{Fresh: true}, nil
	}
	s, rcv, err := OpenDurable(DurableOptions{
		Dir:             r.storeDir(name),
		Fsync:           r.opts.Fsync,
		SyncInterval:    r.opts.SyncInterval,
		CheckpointEvery: r.opts.CheckpointEvery,
		CacheCap:        r.opts.CacheCap,
		Coalescer:       r.coal,
		Logger:          r.opts.Logger,
	}, seed)
	if err != nil {
		return nil, nil, err
	}
	s.name = name
	_ = s.SetQoS(r.opts.DefaultQoS) // validated at OpenRegistry
	return s, rcv, nil
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
// subdirectory; creation is idempotent so PUT /stores/{name} can be
// retried. The bootstrap I/O runs outside the routing lock: requests to
// existing shards proceed while a store is being created.
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
		// seal it here instead of leaking its WAL.
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
	stores := r.List()
	names := make([]string, len(stores))
	for i, s := range stores {
		names[i] = s.Name()
	}
	return names
}

// List returns one consistent snapshot of the stores, sorted by name with
// the default store first.
func (r *Registry) List() []*Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.stores))
	for name := range r.stores {
		if name != DefaultStore {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if _, ok := r.stores[DefaultStore]; ok {
		names = append([]string{DefaultStore}, names...)
	}
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
	r.CloseFollow()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	var first error
	for _, name := range sortedKeys(r.stores) {
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

func sortedKeys(m map[string]*Store) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
