// Command provd is the provenance query daemon: it hosts one or more named
// provenance stores (shards) — each a .pg graph, a generated synthetic
// lifecycle graph, or a pure-ingest empty graph — and serves the PgSeg /
// PgSum / Cypher operators plus lifecycle ingestion over an HTTP JSON API.
//
// Usage:
//
//	provd -in project.pg -addr :8042
//	provd -gen 10000 -seed 1 -addr :8042
//	provd -data /var/lib/provd -addr :8042
//	provd -data /var/lib/provd -stores audit,ml -addr :8042
//	provd -follow http://leader:8042 -addr :8043
//
// With -data the daemon is durable: every committed ingest batch is made
// durable in the store's write-ahead log (fsynced per -fsync; concurrent
// batches share one fsync via group commit) before it is published, a
// background checkpointer persists each store's graph every
// -checkpoint-every batches, and a restart recovers every store's exact
// pre-crash epoch from its checkpoint + log tail. Each store owns the
// subdirectory -data/<name>/; every subdirectory holding state is recovered
// at boot even if not named in -stores. -in/-gen seed a fresh default store
// only; restarting over existing state refuses them.
//
// When several durable stores share -data under -fsync always, their group
// commits additionally share the fsync itself: a device-level coalescer
// batches every store's staged groups into one flush per sync window
// (syncfs(2) where available, parallel per-log fsyncs elsewhere), so a
// multi-store daemon pays one device barrier per window instead of one per
// store.
//
// With -follow the daemon is a read-only replica: it mirrors the leader's
// store set (polling GET /stores), tails each store's wal stream
// (GET /stores/{name}/wal) and serves the full read API at its applied
// epoch. Writes answer 307 with the leader's address; reads presenting an
// X-Min-Epoch token (the epoch from an ingest response) wait for the
// applier to catch up or fail 412. POST /stores/{name}/promote seals a
// store's applier and opens its write path — the failover switch.
// -follow is incompatible with -data/-in/-gen/-stores: a follower's state
// and store set are the leader's, not its own.
//
// Admission control: -qos-rate/-qos-burst/-qos-concurrency/-qos-queue set
// a default per-store admission policy (token-bucket rate limit, in-flight
// cap, and a bound on staged-but-uncommitted ingest batches). Requests over
// a limit are refused with 429 and a Retry-After hint instead of queuing,
// so a hot store cannot starve its neighbors. Limits are adjustable per
// store at runtime via the PUT /stores/{name} body.
//
// Endpoints (see internal/server; every store-scoped endpoint also exists
// unprefixed against the store named "default"):
//
//	POST /stores/{name}/segment    {"src":[0,1],"dst":[9000],"exclude_rels":["A","D"]}
//	POST /stores/{name}/summarize  {"segments":[{"src":[0],"dst":[50]},{"src":[1],"dst":[60]}]}
//	POST /stores/{name}/query      {"query":"match (e:E) where id(e) in [0, 1] return e"}
//	POST /stores/{name}/adjust     {"segment":{"src":[0],"dst":[9000]},"exclude_kinds":["U"]}
//	POST /stores/{name}/ingest     {"ops":[{"op":"run","agent":"alice","command":"train",
//	                                        "inputs":[3],"outputs":["model"]}]}
//	GET  /stores/{name}/stats
//	GET  /stores/{name}/metrics
//	GET  /stores/{name}/healthz
//	GET  /stores/{name}/export?format=prov-json|dot|pg
//	GET  /stores/{name}/wal?from=N replication stream (checkpoint + live log tail)
//	POST /stores/{name}/promote    seal a follower store's applier, open writes
//	PUT  /stores/{name}            create a store at runtime
//	GET  /stores                   list stores
//
// All reads are served lock-free from the routed store's immutable epoch
// snapshot; ingest publishes a new snapshot per committed batch. Stores are
// independent shards: ingest into one never blocks, fsyncs with, or
// invalidates caches of another.
//
// Observability: every response carries an X-Request-ID (the client's, if
// acceptable, else generated) that also appears in the structured request
// and commit logs (-log-level debug shows per-request/per-commit lines;
// -log-json switches the log stream to JSON). GET /metrics serves JSON by
// default and Prometheus text exposition with ?format=prometheus. Requests
// at or over -slow-ms land in a bounded ring dumped at GET /debug/slow with
// their request id, query shape and commit-stage breakdown. -debug-addr
// serves net/http/pprof on a separate listener (opt-in; keep it private).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8042", "listen address")
	in := flag.String("in", "", "input .pg graph seeding the default store (mutually exclusive with -gen)")
	genN := flag.Int("gen", 0, "generate a synthetic Pd lifecycle graph with this many vertices as the default store")
	seed := flag.Int64("seed", 1, "generator seed (with -gen)")
	cacheCap := flag.Int("cache", server.DefaultCacheCap, "segment result cache capacity per store (entries)")
	stores := flag.String("stores", "", "comma-separated extra store names to open or create at boot (the \"default\" store always exists)")
	dataDir := flag.String("data", "", "root data directory for durable serving (per-store write-ahead log + checkpoints under <data>/<store>/); empty serves memory-only")
	follow := flag.String("follow", "", "run as a read-only follower replicating the provd leader at this base URL (e.g. http://leader:8042); incompatible with -data/-in/-gen/-stores")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always (every commit), interval (background flush), never (OS-paced)")
	fsyncInterval := flag.Duration("fsync-interval", wal.DefaultSyncInterval, "background flush period with -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", server.DefaultCheckpointEvery, "committed batches between checkpoints per store (bounds log growth and restart replay)")
	qosRate := flag.Float64("qos-rate", 0, "per-store admission rate limit in requests/second (0 disables rate limiting; applies to every store, adjustable per store via PUT /stores/{name})")
	qosBurst := flag.Int("qos-burst", 0, "per-store admission burst on top of -qos-rate (0 derives the burst from the rate)")
	qosConcurrency := flag.Int("qos-concurrency", 0, "per-store cap on concurrently served requests (0 disables)")
	qosQueue := flag.Int("qos-queue", 0, "per-store commit-queue depth at which ingest is refused with 429 instead of blocking (0 disables; max 256)")
	logLevel := flag.String("log-level", "info", "structured log level: debug (per-request and per-commit lines), info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of key=value text")
	slowMillis := flag.Int64("slow-ms", 500, "slow-query threshold in milliseconds (requests at or over it enter GET /debug/slow; 0 captures everything, negative disables)")
	debugAddr := flag.String("debug-addr", "", "listen address for the net/http/pprof debug server (empty disables; bind it to a private interface)")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logJSON)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}

	qos := server.QoSConfig{
		RatePerSec:    *qosRate,
		Burst:         *qosBurst,
		MaxConcurrent: *qosConcurrency,
		MaxQueue:      *qosQueue,
	}
	if *follow != "" && (*dataDir != "" || *in != "" || *genN > 0 || *stores != "") {
		log.Fatalf("provd: -follow is incompatible with -data/-in/-gen/-stores (a follower mirrors the leader's state)")
	}
	reg, err := openRegistry(*follow, *dataDir, *stores, *in, *genN, *seed, *cacheCap, *fsync, *fsyncInterval, *checkpointEvery, qos, logger)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	defer reg.Close()

	st := reg.Default().Stats()
	log.Printf("provd: serving %d stores (default: %d vertices, %d edges, epoch %d) on %s (cache capacity %d/store)",
		len(reg.Names()), st.Vertices, st.Edges, st.Epoch, *addr, *cacheCap)

	srv := &http.Server{
		Addr: *addr,
		Handler: server.NewMultiServerWith(reg, server.Options{
			SlowThreshold: slowThreshold(*slowMillis),
			Logger:        logger,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		if err := startDebugServer(*debugAddr); err != nil {
			log.Fatalf("provd: %v", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	// The resolved address matters when -addr asked for port 0.
	log.Printf("provd: listening on %s", ln.Addr())

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			reg.Close()
			log.Fatalf("provd: %v", err)
		}
	case <-ctx.Done():
		log.Printf("provd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Long-lived wal streams never drain on their own; sever them so
			// the process actually exits within the grace period.
			log.Printf("provd: shutdown: %v", err)
			_ = srv.Close()
		}
		// The deferred reg.Close seals every store's WAL and writes final
		// checkpoints once no more requests can commit.
	}
}

// buildLogger constructs the structured logger the request and commit logs
// write to (stderr, next to the startup log.Printf lines).
func buildLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// slowThreshold maps the -slow-ms flag to the server option: 0 means
// "capture everything" (the smallest positive threshold), negative disables
// (the option's negative spelling).
func slowThreshold(ms int64) time.Duration {
	switch {
	case ms < 0:
		return -1
	case ms == 0:
		return time.Nanosecond
	default:
		return time.Duration(ms) * time.Millisecond
	}
}

// startDebugServer serves net/http/pprof on its own listener and mux —
// never on the API mux, so profiling endpoints are only reachable where the
// operator pointed -debug-addr.
func startDebugServer(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server: %w", err)
	}
	log.Printf("provd: pprof debug server on %s", ln.Addr())
	go func() {
		dbg := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := dbg.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("provd: debug server: %v", err)
		}
	}()
	return nil
}

// openRegistry builds the follower, memory-only or durable store registry
// per the flags.
func openRegistry(follow, dataDir, stores, in string, genN int, seed int64, cacheCap int, fsync string, fsyncInterval time.Duration, checkpointEvery int, qos server.QoSConfig, logger *slog.Logger) (*server.Registry, error) {
	var extra []string
	for _, name := range strings.Split(stores, ",") {
		if name = strings.TrimSpace(name); name != "" {
			extra = append(extra, name)
		}
	}
	opts := server.RegistryOptions{
		Leader:          follow,
		DataDir:         dataDir,
		CheckpointEvery: checkpointEvery,
		CacheCap:        cacheCap,
		DefaultQoS:      qos,
		Logger:          logger,
	}
	if dataDir != "" {
		policy, err := wal.ParseSyncPolicy(fsync)
		if err != nil {
			return nil, err
		}
		opts.Fsync = policy
		opts.SyncInterval = fsyncInterval
		// -in/-gen describe a starting graph; recovered state IS the graph,
		// so combining them would silently discard one of the two. Make the
		// operator choose (a fresh directory, or dropping the seed flags).
		if in != "" || genN > 0 {
			if _, has, err := server.DefaultStoreDir(dataDir); has {
				return nil, fmt.Errorf("-data %s already holds state; restart without -in/-gen (or point -data at a fresh directory)", dataDir)
			} else if err != nil {
				return nil, err
			}
		}
	}
	reg, rcvs, err := server.OpenRegistry(opts, extra, func() (*prov.Graph, error) { return openGraph(in, genN, seed) })
	if err != nil {
		return nil, err
	}
	if follow != "" {
		log.Printf("provd: following leader %s (%d stores discovered)", follow, len(rcvs))
	}
	for _, sr := range rcvs {
		switch {
		case dataDir == "":
			// memory-only: nothing recovered, nothing durable
		case sr.Rcv.Fresh:
			log.Printf("provd: store %q: initialized %s (fsync=%s, checkpoint every %d batches)",
				sr.Name, filepath.Join(dataDir, sr.Name), fsync, checkpointEvery)
		default:
			log.Printf("provd: store %q: recovered epoch %d (checkpoint %d + %d WAL records, torn tail: %v)",
				sr.Name, sr.Rcv.Epoch, sr.Rcv.CheckpointEpoch, sr.Rcv.Replayed, sr.Rcv.TornTail)
		}
	}
	return reg, nil
}

// openGraph loads the input .pg file, or generates a Pd graph, or (with
// neither flag) starts empty for pure-ingest serving.
func openGraph(in string, genN int, seed int64) (*prov.Graph, error) {
	switch {
	case in != "" && genN > 0:
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pg, err := graph.Load(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", in, err)
		}
		p := prov.Wrap(pg)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("validate %s: %w", in, err)
		}
		return p, nil
	case genN > 0:
		return gen.Pd(gen.PdConfig{N: genN, Seed: seed}), nil
	default:
		return prov.New(), nil
	}
}
