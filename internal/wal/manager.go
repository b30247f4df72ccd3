package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Directory layout. A data directory holds
//
//	checkpoint-<epoch>.pg   full graph snapshot at <epoch> (graph.Save)
//	wal-<epoch>.log         delta records for epochs <epoch>+1, +2, ...
//
// with <epoch> zero-padded hex so lexical order is numeric order. The
// active log's base is the epoch of the newest durable checkpoint at the
// last rotation. Checkpointing is a three-step dance driven by the store:
//
//  1. Rotate(N) under the store's write mutex: seal (fsync) the active log
//     and switch appends to a fresh wal-N.log — from here on, epochs > N
//     land in the new file.
//  2. Checkpoint(g, N) with no lock held: write checkpoint-N.pg durably
//     (tmp file, fsync, atomic rename, directory fsync) from the immutable
//     epoch-N snapshot.
//  3. Obsolete files (checkpoints and logs below N) are removed only after
//     step 2 lands, so a crash anywhere leaves a recoverable chain: either
//     the old checkpoint plus the old log plus the new log, or the new
//     checkpoint plus the new log.
//
// Recovery (Open) inverts this: load the newest loadable checkpoint E,
// replay every log with base >= E in order — epochs must run E+1, E+2, ...
// with each delta's base watermark matching the graph, anything else is
// corruption — and tolerate a torn tail only in the final log, which a
// crash mid-append legitimately produces.

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".pg"
	logPrefix        = "wal-"
	logSuffix        = ".log"
	epochDigits      = 16
)

// ErrRecovery wraps unrecoverable data-directory corruption: epoch gaps,
// torn records in sealed logs, deltas whose base does not match. A torn
// final record is not an error (it is the expected crash artifact).
var ErrRecovery = errors.New("wal: unrecoverable data directory")

func checkpointName(epoch uint64) string {
	return fmt.Sprintf("%s%0*x%s", checkpointPrefix, epochDigits, epoch, checkpointSuffix)
}

func logName(epoch uint64) string {
	return fmt.Sprintf("%s%0*x%s", logPrefix, epochDigits, epoch, logSuffix)
}

func parseEpoch(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != epochDigits {
		return 0, false
	}
	e, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// Options configures a data directory manager.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Policy selects the fsync discipline for appends (default SyncAlways).
	Policy SyncPolicy
	// SyncInterval is the background flush period under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration

	// OnBase, when set, is invoked with the loaded checkpoint graph (live,
	// mutable) before WAL replay begins. The serving layer uses it to stand
	// up the lifecycle recorder over the checkpoint state.
	OnBase func(g *graph.Graph, epoch uint64) error
	// OnRecord, when set, is invoked after each replayed delta record with
	// the epoch it produced and the index of the first vertex the delta
	// appended — the prov.Recorder.IndexFrom replay hook.
	OnRecord func(epoch uint64, firstNewVertex int) error
}

// Recovery describes what Open found.
type Recovery struct {
	// Graph is the recovered live graph (nil when Fresh: the caller must
	// seed one and call Bootstrap).
	Graph *graph.Graph
	// Epoch is the last durable epoch (checkpoint + replayed records).
	Epoch uint64
	// CheckpointEpoch is the epoch of the checkpoint the replay started at.
	CheckpointEpoch uint64
	// Replayed is the number of WAL records applied on top of it.
	Replayed int
	// TornTail reports whether a torn final record was discarded.
	TornTail bool
	// Fresh reports an empty directory: no checkpoint, no logs.
	Fresh bool
}

// Manager owns one data directory: the active log, checkpoint writes and
// obsolete-file cleanup. AppendBatch and Rotate must be serialized by the
// caller (provd rotates only once its committer has nothing in flight);
// Sync, Stats and Checkpoint are safe concurrently with appends.
type Manager struct {
	dir    string
	policy SyncPolicy

	mu   sync.Mutex // guards log swaps (rotate/close vs append/sync)
	log  *Log
	base uint64 // epoch base of the active log
	// tickerErr is the first failed background flush (SyncInterval only):
	// batches acknowledged since the last good flush may not be durable, so
	// AppendBatch and Sync return it from then on.
	tickerErr error

	stats        statCounters
	syncFailures atomic.Uint64 // failed background flushes
	checkpoints  atomic.Uint64
	ckptLastNs   atomic.Int64
	ckptTotalNs  atomic.Int64
	ckptLastEp   atomic.Uint64
	tickerStop   chan struct{}
	tickerDone   chan struct{}
	syncInterval time.Duration
}

// ManagerStats extends the log counters with failed background flushes and
// checkpoint counters.
type ManagerStats struct {
	Stats
	SyncFailures         uint64 `json:"sync_failures"`
	Checkpoints          uint64 `json:"checkpoints"`
	CheckpointLastNanos  int64  `json:"checkpoint_last_ns"`
	CheckpointTotalNanos int64  `json:"checkpoint_total_ns"`
	LastCheckpointEpoch  uint64 `json:"last_checkpoint_epoch"`
}

// DirHasState reports whether dir already holds durable provd state (any
// checkpoint or log file). A missing directory has no state.
func DirHasState(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	for _, e := range entries {
		if _, ok := parseEpoch(e.Name(), checkpointPrefix, checkpointSuffix); ok {
			return true, nil
		}
		if _, ok := parseEpoch(e.Name(), logPrefix, logSuffix); ok {
			return true, nil
		}
	}
	return false, nil
}

// Open recovers the newest durable state from opts.Dir and returns the
// manager plus what it found. On a fresh directory the manager has no
// active log yet: seed a graph and call Bootstrap before appending.
func Open(opts Options) (*Manager, *Recovery, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	m := &Manager{dir: opts.Dir, policy: opts.Policy, syncInterval: opts.SyncInterval}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var ckpts, logs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Remnant of a checkpoint write that never completed.
			_ = os.Remove(filepath.Join(opts.Dir, name))
			continue
		}
		if ep, ok := parseEpoch(name, checkpointPrefix, checkpointSuffix); ok {
			ckpts = append(ckpts, ep)
		} else if ep, ok := parseEpoch(name, logPrefix, logSuffix); ok {
			logs = append(logs, ep)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })

	if len(ckpts) == 0 {
		if len(logs) > 0 {
			return nil, nil, fmt.Errorf("%w: log files with no checkpoint", ErrRecovery)
		}
		return m, &Recovery{Fresh: true}, nil
	}

	// Newest loadable checkpoint wins; an unloadable newest checkpoint
	// (which the durable write protocol should never produce) falls back to
	// the previous one as long as a log chain still covers the gap.
	var g *graph.Graph
	var base uint64
	var loadErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(opts.Dir, checkpointName(ckpts[i])))
		if err != nil {
			loadErr = err
			continue
		}
		g, err = graph.Load(f)
		f.Close()
		if err == nil {
			base = ckpts[i]
			break
		}
		g, loadErr = nil, err
	}
	if g == nil {
		return nil, nil, fmt.Errorf("%w: no loadable checkpoint: %v", ErrRecovery, loadErr)
	}
	if opts.OnBase != nil {
		if err := opts.OnBase(g, base); err != nil {
			return nil, nil, err
		}
	}

	rec := &Recovery{Graph: g, Epoch: base, CheckpointEpoch: base}
	cur := base
	var replayLogs []uint64
	for _, ep := range logs {
		if ep >= base {
			replayLogs = append(replayLogs, ep)
		}
	}
	var lastInfo ReplayInfo
	for i, lep := range replayLogs {
		path := filepath.Join(opts.Dir, logName(lep))
		info, err := ReplayFile(path, func(epoch uint64, payload []byte) error {
			if epoch != cur+1 {
				return fmt.Errorf("%w: %s: record epoch %d after epoch %d", ErrRecovery, logName(lep), epoch, cur)
			}
			firstNew := g.NumVertices()
			if err := g.ApplyDelta(bytes.NewReader(payload)); err != nil {
				return fmt.Errorf("%w: %s: epoch %d: %v", ErrRecovery, logName(lep), epoch, err)
			}
			cur = epoch
			rec.Replayed++
			if opts.OnRecord != nil {
				return opts.OnRecord(epoch, firstNew)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if info.Torn && i != len(replayLogs)-1 {
			// Sealed logs are fsynced before rotation; a torn record in one
			// means real corruption, and the chain past it cannot be trusted.
			return nil, nil, fmt.Errorf("%w: torn record in sealed log %s", ErrRecovery, logName(lep))
		}
		lastInfo = info
	}
	rec.Epoch = cur
	rec.TornTail = lastInfo.Torn

	// Reopen the newest log for appending, truncating any torn tail.
	if len(replayLogs) == 0 {
		// A checkpoint with no log at its base (cleanup removed older logs,
		// crash before Rotate created the new one — impossible under the
		// protocol, but cheap to self-heal).
		if err := m.openFreshLog(base); err != nil {
			return nil, nil, err
		}
	} else {
		last := replayLogs[len(replayLogs)-1]
		lg, err := OpenLog(filepath.Join(opts.Dir, logName(last)), lastInfo.GoodBytes, &m.stats)
		if err != nil {
			return nil, nil, err
		}
		m.log, m.base = lg, last
	}
	m.removeObsolete(base)
	// The recovered checkpoint is the newest durable one; report it (rather
	// than zero) until the first in-process checkpoint supersedes it.
	m.ckptLastEp.Store(base)
	m.startTicker()
	return m, rec, nil
}

// Bootstrap initializes a fresh directory with the seed graph: a durable
// checkpoint-0 plus an empty active log. Must be called exactly once, only
// when Open reported Fresh.
func (m *Manager) Bootstrap(g *graph.Graph) error {
	if m.log != nil {
		return errors.New("wal: Bootstrap on an initialized manager")
	}
	if err := m.Checkpoint(g, 0); err != nil {
		return err
	}
	if err := m.openFreshLog(0); err != nil {
		return err
	}
	m.startTicker()
	return nil
}

func (m *Manager) openFreshLog(epoch uint64) error {
	lg, err := OpenLog(filepath.Join(m.dir, logName(epoch)), 0, &m.stats)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.log, m.base = lg, epoch
	m.mu.Unlock()
	syncDir(m.dir)
	return nil
}

// AppendBatch logs a group of delta records with one write and no fsync:
// the caller makes them durable with Sync (or a Coalescer window) before
// publishing, as its policy requires. Records must carry consecutive epochs
// in slice order. Callers serialize AppendBatch with Rotate. After a failed
// background flush every append reports that failure.
func (m *Manager) AppendBatch(recs []Record) (AppendTimings, error) {
	m.mu.Lock()
	lg, err := m.log, m.tickerErr
	m.mu.Unlock()
	if err != nil {
		return AppendTimings{}, err
	}
	if lg == nil {
		return AppendTimings{}, errors.New("wal: append before Bootstrap")
	}
	return lg.AppendBatchTimed(recs)
}

// Rotate seals the active log and directs subsequent appends to a fresh
// wal-<epoch>.log. The caller must hold its write mutex so no append lands
// between choosing epoch and the swap, and must follow up with Checkpoint
// for the same epoch. Rotating onto the current base is a no-op.
func (m *Manager) Rotate(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return errors.New("wal: rotate before Bootstrap")
	}
	if epoch == m.base {
		return nil
	}
	if err := m.log.Close(); err != nil { // Close fsyncs: the old log is sealed
		return err
	}
	lg, err := OpenLog(filepath.Join(m.dir, logName(epoch)), 0, &m.stats)
	if err != nil {
		return err
	}
	m.log, m.base = lg, epoch
	syncDir(m.dir)
	return nil
}

// Checkpoint durably writes the frozen graph as checkpoint-<epoch>.pg (tmp
// file, fsync, atomic rename, directory fsync), then removes obsolete
// checkpoints and logs below epoch. g must be immutable for the duration
// (an epoch snapshot, or the pre-serving seed graph).
func (m *Manager) Checkpoint(g *graph.Graph, epoch uint64) error {
	start := time.Now()
	final := filepath.Join(m.dir, checkpointName(epoch))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = g.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(m.dir)
	m.removeObsolete(epoch)
	ns := time.Since(start).Nanoseconds()
	m.checkpoints.Add(1)
	m.ckptLastNs.Store(ns)
	m.ckptTotalNs.Add(ns)
	m.ckptLastEp.Store(epoch)
	return nil
}

// removeObsolete deletes checkpoints and logs strictly below keep. Safe to
// call any time after checkpoint-<keep> is durable.
func (m *Manager) removeObsolete(keep uint64) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if ep, ok := parseEpoch(name, checkpointPrefix, checkpointSuffix); ok && ep < keep {
			_ = os.Remove(filepath.Join(m.dir, name))
		} else if ep, ok := parseEpoch(name, logPrefix, logSuffix); ok && ep < keep {
			_ = os.Remove(filepath.Join(m.dir, name))
		}
	}
}

// Sync flushes the active log to stable storage. Like AppendBatch it
// reports a failed background flush instead of pretending to cover it.
func (m *Manager) Sync() error {
	m.mu.Lock()
	lg, err := m.log, m.tickerErr
	m.mu.Unlock()
	if err != nil || lg == nil {
		return err
	}
	return lg.Sync()
}

// StatsSnapshot returns cumulative log and checkpoint counters.
func (m *Manager) StatsSnapshot() ManagerStats {
	return ManagerStats{
		Stats:                m.stats.snapshot(),
		SyncFailures:         m.syncFailures.Load(),
		Checkpoints:          m.checkpoints.Load(),
		CheckpointLastNanos:  m.ckptLastNs.Load(),
		CheckpointTotalNanos: m.ckptTotalNs.Load(),
		LastCheckpointEpoch:  m.ckptLastEp.Load(),
	}
}

// Close stops the background flusher and seals the active log.
func (m *Manager) Close() error {
	m.stopTicker()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	err := m.log.Close()
	m.log = nil
	return err
}

func (m *Manager) startTicker() {
	if m.policy != SyncInterval || m.tickerStop != nil {
		return
	}
	m.tickerStop = make(chan struct{})
	m.tickerDone = make(chan struct{})
	go func() {
		defer close(m.tickerDone)
		t := time.NewTicker(m.syncInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := m.Sync(); err != nil {
					// Retrying an fsync that failed proves nothing about the
					// pages it dropped: record the failure and stop flushing.
					m.syncFailures.Add(1)
					m.mu.Lock()
					m.tickerErr = fmt.Errorf("wal: background fsync: %w", err)
					m.mu.Unlock()
					return
				}
			case <-m.tickerStop:
				return
			}
		}
	}()
}

func (m *Manager) stopTicker() {
	if m.tickerStop == nil {
		return
	}
	close(m.tickerStop)
	<-m.tickerDone
	m.tickerStop, m.tickerDone = nil, nil
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
// Best-effort: not every platform supports it.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	f.Close()
}
