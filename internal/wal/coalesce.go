// Device-level fsync coalescing across stores.
//
// Each store's group committer amortizes fsync across its own writers, but
// with N stores on one device the N committers still issue N competing
// fsyncs per window and the group-commit win collapses (the shard bench
// measured 1.78x at 1 store -> 0.97x at 4). The Coalescer restores the win
// by making the flush itself shared: committers append their group
// unsynced, then park in SyncWaitPrep; the coalescer's flusher goroutine
// drains every parked request into one sync window and retires it with a
// single device-level barrier — syncfs(2) on the data-dir fd where the
// kernel supports it, deduplicated parallel per-log fsyncs otherwise.
// Under saturation the flusher holds each window open for a short gather
// interval so every overlapping store lands in the same barrier; an idle
// period's first window flushes immediately, so a lone commit pays no
// gather latency. Durability-before-visibility is untouched: SyncWaitPrep
// returns only after the window's barrier covers the caller's bytes, and
// only then does the store publish the epochs.
package wal

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CoalescerMode selects how a sync window is retired.
type CoalescerMode int

const (
	// CoalesceAuto probes syncfs(2) at construction and falls back to
	// per-file fsync when the kernel refuses it.
	CoalesceAuto CoalescerMode = iota
	// CoalesceFsync forces the per-file fallback (one fsync per distinct
	// log in the window, issued in parallel). Used by tests and as the
	// degraded mode on kernels without syncfs.
	CoalesceFsync
)

// syncReq is one committer parked in SyncWaitPrep.
type syncReq struct {
	m    *Manager
	prep func() // runs immediately before the window's barrier
	errc chan error
}

// Coalescer merges the fsync phase of many stores' group commits into
// shared device-level sync windows. One Coalescer serves one data
// directory tree (all stores on the same filesystem).
type Coalescer struct {
	dirFD  *os.File
	syncfs bool // retire windows with syncfs(dirFD)

	mu     sync.Mutex
	closed bool

	reqCh       chan *syncReq
	stopCh      chan struct{}
	flusherDone chan struct{}

	windows    atomic.Uint64
	requests   atomic.Uint64
	lastWindow atomic.Uint64
	maxWindow  atomic.Uint64
	syncLastNs atomic.Int64
	syncMaxNs  atomic.Int64
	syncTotNs  atomic.Int64
}

// CoalescerStats is the /metrics snapshot of one coalescer.
type CoalescerStats struct {
	Enabled bool `json:"enabled"`
	// Mode is "syncfs" (one device barrier per window) or "fsync"
	// (deduplicated parallel per-log fsyncs per window).
	Mode           string `json:"mode"`
	Windows        uint64 `json:"windows"`
	Requests       uint64 `json:"requests"`
	LastWindowSize uint64 `json:"last_window_size"`
	MaxWindowSize  uint64 `json:"max_window_size"`
	SyncLastNanos  int64  `json:"sync_last_ns"`
	SyncMaxNanos   int64  `json:"sync_max_ns"`
	SyncTotalNanos int64  `json:"sync_total_ns"`
}

// NewCoalescer opens a coalescer over the data directory dir. Under
// CoalesceAuto it probes syncfs(2) once and degrades to per-file fsync if
// the kernel (or sandbox) refuses the syscall.
func NewCoalescer(dir string, mode CoalescerMode) (*Coalescer, error) {
	fd, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	c := &Coalescer{
		dirFD:       fd,
		reqCh:       make(chan *syncReq, 1024),
		stopCh:      make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	if mode == CoalesceAuto && syncfsSupported {
		c.syncfs = rawSyncfs(fd.Fd()) == nil
	}
	go c.flusher()
	return c, nil
}

// Mode reports how windows are retired: "syncfs" or "fsync".
func (c *Coalescer) Mode() string {
	if c.syncfs {
		return "syncfs"
	}
	return "fsync"
}

// SyncWaitPrep makes every byte m has appended so far durable and returns.
// The caller must have finished the writes it wants covered before calling
// (the happens-before the window barrier needs). Concurrent callers share
// windows: everyone parked when the flusher retires a window comes back with
// that barrier's result. prep (when non-nil) runs on the flusher goroutine
// immediately before the window's barrier, after every append the barrier
// will cover has happened: a caller appending concurrently from another
// goroutine uses it to observe exactly which of its writes this barrier
// makes durable (the store's sync stage samples its append sequence here to
// retire piggybacked groups). A nil Coalescer (a store opened on its own)
// and a closed one (shutdown ordering must never strand a committer) have no
// window to share: prep runs and m is fsynced directly.
func (c *Coalescer) SyncWaitPrep(m *Manager, prep func()) error {
	if c != nil {
		c.mu.Lock()
		if !c.closed {
			r := &syncReq{m: m, prep: prep, errc: make(chan error, 1)}
			c.requests.Add(1)
			c.reqCh <- r
			c.mu.Unlock()
			return <-r.errc
		}
		c.mu.Unlock()
	}
	if prep != nil {
		prep()
	}
	return m.Sync()
}

// flusher owns window formation: it blocks for the first request of a
// window, optionally holds the window open for one gather interval, then
// retires the batch with a single barrier. Running it on a dedicated
// goroutine (rather than electing a caller as leader) keeps windows open
// across the instant where every parked store has just been released and
// not yet re-parked — exactly the moment a caller-led loop would tear the
// window down and degenerate to one barrier per request.
// gatherYields bounds the cooperative gather: after scooping the queue the
// flusher yields its timeslice up to this many times, letting committers
// that are runnable right now stage into the window, and stops as soon as
// a yield brings nothing new. Unlike a timer-based gather this wastes no
// wall clock — on a loaded box a yield runs other goroutines and comes
// back, on an idle one it returns immediately and the window flushes.
const gatherYields = 8

func (c *Coalescer) flusher() {
	defer close(c.flusherDone)
	saturated := false
	for {
		var batch []*syncReq
		select {
		case r := <-c.reqCh:
			batch = append(batch, r)
		case <-c.stopCh:
			c.finalFlush(nil)
			return
		}
	scoop:
		for {
			select {
			case r := <-c.reqCh:
				batch = append(batch, r)
			default:
				break scoop
			}
		}
		if saturated {
			// Hold the window open while yields keep producing arrivals: every
			// store whose committer is runnable lands in this barrier instead
			// of paying for one of its own.
			for i := 0; i < gatherYields; i++ {
				before := len(batch)
				runtime.Gosched()
			regather:
				for {
					select {
					case r := <-c.reqCh:
						batch = append(batch, r)
					default:
						break regather
					}
				}
				if len(batch) == before {
					break
				}
			}
		}
		c.flushWindow(batch)
		// Overlapping requests (a multi-request window, or arrivals during
		// the barrier) mean the next window is worth holding open; a
		// singleton window with an empty queue means idle traffic, where the
		// next first arrival should flush immediately.
		saturated = len(batch) > 1 || len(c.reqCh) > 0
	}
}

// finalFlush retires everything still queued at shutdown in one last
// window so no committer that enqueued before Close is stranded.
func (c *Coalescer) finalFlush(batch []*syncReq) {
	for {
		select {
		case r := <-c.reqCh:
			batch = append(batch, r)
		default:
			if len(batch) > 0 {
				c.flushWindow(batch)
			}
			return
		}
	}
}

// flushWindow retires one window: a single device barrier (or deduplicated
// per-log fsyncs), then every parked committer is released with the result
// covering its log.
func (c *Coalescer) flushWindow(batch []*syncReq) {
	start := time.Now()
	// Prep hooks fire after window formation and before the barrier: every
	// append that happened up to here is about to be covered.
	for _, r := range batch {
		if r.prep != nil {
			r.prep()
		}
	}
	// Deduplicate managers: under syncfs each distinct one still gets its
	// flush latency recorded (its "fsyncs" counter counts durable barriers
	// its data crossed); under fallback each is fsynced exactly once.
	perMgr := make(map[*Manager][]*syncReq, len(batch))
	for _, r := range batch {
		perMgr[r.m] = append(perMgr[r.m], r)
	}
	errs := make(map[*Manager]error, len(perMgr))
	if c.syncfs {
		err := rawSyncfs(c.dirFD.Fd())
		d := time.Since(start)
		for m := range perMgr {
			errs[m] = err
			if err == nil {
				m.stats.observeSync(d)
			}
		}
	} else {
		var wg sync.WaitGroup
		var emu sync.Mutex
		for m := range perMgr {
			wg.Add(1)
			go func(m *Manager) {
				defer wg.Done()
				err := m.Sync()
				emu.Lock()
				errs[m] = err
				emu.Unlock()
			}(m)
		}
		wg.Wait()
	}
	ns := time.Since(start).Nanoseconds()
	c.windows.Add(1)
	c.lastWindow.Store(uint64(len(batch)))
	for {
		max := c.maxWindow.Load()
		if uint64(len(batch)) <= max || c.maxWindow.CompareAndSwap(max, uint64(len(batch))) {
			break
		}
	}
	c.syncLastNs.Store(ns)
	c.syncTotNs.Add(ns)
	for {
		max := c.syncMaxNs.Load()
		if ns <= max || c.syncMaxNs.CompareAndSwap(max, ns) {
			break
		}
	}
	for m, reqs := range perMgr {
		for _, r := range reqs {
			r.errc <- errs[m]
		}
	}
}

// StatsSnapshot returns cumulative window counters.
func (c *Coalescer) StatsSnapshot() CoalescerStats {
	return CoalescerStats{
		Enabled:        true,
		Mode:           c.Mode(),
		Windows:        c.windows.Load(),
		Requests:       c.requests.Load(),
		LastWindowSize: c.lastWindow.Load(),
		MaxWindowSize:  c.maxWindow.Load(),
		SyncLastNanos:  c.syncLastNs.Load(),
		SyncMaxNanos:   c.syncMaxNs.Load(),
		SyncTotalNanos: c.syncTotNs.Load(),
	}
}

// Close stops the flusher (retiring anything still queued in one last
// window) and releases the directory fd. Stores must be closed (committers
// drained) first; a straggling SyncWaitPrep after Close falls back to a direct
// fsync rather than erroring.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stopCh)
	<-c.flusherDone
	return c.dirFD.Close()
}
