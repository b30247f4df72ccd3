package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Per-store admission control. Sharding isolates state but not resources:
// one hot store can monopolize the device and the committer pool and starve
// its neighbors. A store can therefore carry a QoSConfig — a token-bucket
// rate limit, an in-flight concurrency cap, and a staged-commit backlog cap
// — enforced before any work is done for the request. Rejections are
// instant (HTTP 429 with a Retry-After hint), so an overloaded store sheds
// load at the door instead of queueing it into everyone else's latency.
//
// The hot path is lock-free: the rate limit is a GCRA (virtual-scheduling
// token bucket) over one atomic timestamp, the concurrency cap one atomic
// counter. Configuration updates swap the whole limiter atomically, so
// Admit never sees a half-updated config.

// Typed write-path errors the HTTP layer maps to status codes.
var (
	// ErrBackpressure reports a commit queue at its configured cap; the
	// batch was rejected before mutating the graph. Maps to 429.
	ErrBackpressure = errors.New("commit queue at capacity")
	// ErrStoreClosed reports a write landing on a store that is shutting
	// down. Maps to 503.
	ErrStoreClosed = errors.New("store is closed")
)

// QoSConfig is a store's admission policy. The zero value imposes no
// limits; each field is independent and <= 0 disables that limit.
type QoSConfig struct {
	// RatePerSec caps admitted requests per second (token bucket).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth: how many requests may be admitted
	// back-to-back from idle. Defaults to max(1, floor(RatePerSec)).
	Burst int `json:"burst,omitempty"`
	// MaxConcurrent caps requests simultaneously in flight on this store.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueue caps the staged group-commit backlog: an ingest arriving
	// with this many batches already staged is rejected (429) before it
	// mutates the graph, instead of parking on an unbounded queue. Capped
	// by the channel bound (commitQueueCap).
	MaxQueue int `json:"max_queue,omitempty"`
}

// limited reports whether any limit is active.
func (c QoSConfig) limited() bool {
	return c.RatePerSec > 0 || c.MaxConcurrent > 0 || c.MaxQueue > 0
}

// Validate rejects configurations that cannot mean anything: negative
// fields, or a burst without a rate to refill it.
func (c QoSConfig) Validate() error {
	if c.RatePerSec < 0 || c.Burst < 0 || c.MaxConcurrent < 0 || c.MaxQueue < 0 {
		return errors.New("qos: limits must be >= 0")
	}
	if c.Burst > 0 && c.RatePerSec <= 0 {
		return errors.New("qos: burst requires rate_per_sec")
	}
	if c.MaxQueue > commitQueueCap {
		return fmt.Errorf("qos: max_queue above the commit queue bound %d", commitQueueCap)
	}
	return nil
}

// qosLimiter is one immutable admission policy instance. SetQoS builds a
// fresh limiter and swaps the store's pointer; in-flight requests release
// against the limiter that admitted them.
type qosLimiter struct {
	cfg  QoSConfig
	base time.Time
	// GCRA state: emission interval T = 1e9/rate ns, tolerance
	// tau = (burst-1)*T, and the theoretical arrival time of the next
	// conforming request (ns since base). A request at now conforms iff
	// tat - tau <= now; admitting advances tat by T.
	emissionNs int64
	tauNs      int64
	tat        atomic.Int64
	inflight   atomic.Int64
}

func newQoSLimiter(cfg QoSConfig) *qosLimiter {
	l := &qosLimiter{cfg: cfg, base: time.Now()}
	if cfg.RatePerSec > 0 {
		l.emissionNs = int64(1e9 / cfg.RatePerSec)
		if l.emissionNs < 1 {
			l.emissionNs = 1
		}
		if cfg.Burst <= 0 {
			l.cfg.Burst = int(cfg.RatePerSec)
			if l.cfg.Burst < 1 {
				l.cfg.Burst = 1
			}
		}
		l.tauNs = int64(l.cfg.Burst-1) * l.emissionNs
	}
	return l
}

// admitRate runs the GCRA check-and-advance. On rejection it returns how
// long until a request would conform.
func (l *qosLimiter) admitRate() (time.Duration, bool) {
	if l.emissionNs == 0 {
		return 0, true
	}
	now := time.Since(l.base).Nanoseconds()
	for {
		tat := l.tat.Load()
		if tat-l.tauNs > now {
			return time.Duration(tat - l.tauNs - now), false
		}
		next := tat
		if next < now {
			next = now
		}
		if l.tat.CompareAndSwap(tat, next+l.emissionNs) {
			return 0, true
		}
	}
}

// concRetryAfter is the Retry-After hint on concurrency-cap rejections,
// where no refill schedule exists to compute a precise one from.
const concRetryAfter = time.Second

// Admit applies the store's admission policy to one request. When admitted
// the caller must invoke release exactly once on completion; when rejected
// it should answer 429 with the Retry-After hint. Admission is checked
// before any request work happens, so a rejection costs two atomic ops.
func (s *Store) Admit() (release func(), retryAfter time.Duration, ok bool) {
	l := s.qos.Load()
	if l == nil {
		s.qosAdmitted.Add(1)
		return func() {}, 0, true
	}
	capped := l.cfg.MaxConcurrent > 0
	if capped {
		if l.inflight.Add(1) > int64(l.cfg.MaxConcurrent) {
			l.inflight.Add(-1)
			s.qosRejectedConc.Add(1)
			return nil, concRetryAfter, false
		}
	}
	if wait, rateOK := l.admitRate(); !rateOK {
		if capped {
			l.inflight.Add(-1)
		}
		s.qosRejectedRate.Add(1)
		return nil, wait, false
	}
	s.qosAdmitted.Add(1)
	if !capped {
		return func() {}, 0, true
	}
	var once sync.Once
	return func() { once.Do(func() { l.inflight.Add(-1) }) }, 0, true
}

// SetQoS replaces the store's admission policy atomically. A config with
// no active limits removes admission control. Requests already in flight
// release against the limiter that admitted them; the new limiter starts
// with an empty in-flight count.
func (s *Store) SetQoS(cfg QoSConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.limited() {
		s.qos.Store(nil)
		return nil
	}
	s.qos.Store(newQoSLimiter(cfg))
	return nil
}

// QoSConfigSnapshot returns the active admission policy (zero when none).
func (s *Store) QoSConfigSnapshot() QoSConfig {
	if l := s.qos.Load(); l != nil {
		return l.cfg
	}
	return QoSConfig{}
}

// QoSStats is the /metrics admission panel: the active limits, the
// admit/reject split (rejections by cause), and the instantaneous
// pressure gauges.
type QoSStats struct {
	Config   QoSConfig `json:"config"`
	Admitted uint64    `json:"admitted"`
	Rejected uint64    `json:"rejected"`
	// Rejection causes: token-bucket rate, concurrency cap, commit-queue
	// backpressure (the only one charged on the write path, not at the
	// door).
	RejectedRate        uint64 `json:"rejected_rate"`
	RejectedConcurrency uint64 `json:"rejected_concurrency"`
	RejectedQueue       uint64 `json:"rejected_queue"`
	Inflight            int64  `json:"inflight"`
	QueueDepth          int    `json:"queue_depth"`
}
