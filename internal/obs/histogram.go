// Package obs is provd's observability substrate: lock-free latency
// histograms, request-id propagation through context, a bounded slow-query
// ring buffer, and Prometheus text-exposition helpers. Everything recorded
// on a hot path uses atomics only — no instrumentation introduces a lock on
// the store's lock-free read path.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets are log-spaced (factor 2) with the first upper bound at
// 1µs, so bucket i covers (1µs<<(i-1), 1µs<<i]. 28 buckets reach ~134s;
// anything beyond lands in the overflow bucket, whose quantile estimate is
// the recorded maximum. Log spacing bounds the relative error of any
// quantile estimate at 2x, which is the right resolution for latencies that
// span nanosecond cache hits to second-long fsync stalls.
const (
	// NumBuckets is the number of bounded buckets (excluding overflow).
	NumBuckets = 28
	// bucketBaseNs is the upper bound of the first bucket, in nanoseconds.
	bucketBaseNs = 1000
)

// BucketUpperNs returns the inclusive upper bound of bucket i in
// nanoseconds. Bucket NumBuckets (the overflow bucket) has no bound.
func BucketUpperNs(i int) int64 {
	return bucketBaseNs << i
}

// bucketIndex maps a latency to its bucket: the smallest i with
// ns <= bucketBaseNs<<i, or the overflow index NumBuckets.
func bucketIndex(ns int64) int {
	if ns <= bucketBaseNs {
		return 0
	}
	i := bits.Len64(uint64(ns-1) / bucketBaseNs)
	if i >= NumBuckets {
		return NumBuckets
	}
	return i
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation without locks: counts, sum, max and the last sample are all
// atomics. It is the one tally of a timed step: its count is how often the
// step ran, so no step keeps a counter beside it. The zero value is ready
// to use, so histograms embed directly into per-store metric structs.
type Histogram struct {
	counts [NumBuckets + 1]atomic.Uint64
	sumNs  atomic.Int64
	maxNs  Max
	lastNs atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
	h.lastNs.Store(ns)
	h.maxNs.Observe(ns)
}

// Max is the largest value observed so far, kept lock-free. The zero value
// holds 0 and is ready to use.
type Max struct{ v atomic.Int64 }

// Observe raises the maximum to v if v is larger.
func (m *Max) Observe(v int64) {
	for {
		cur := m.v.Load()
		if v <= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the largest value observed so far.
func (m *Max) Load() int64 { return m.v.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram's counters.
// Concurrent observers may land between bucket reads, so the snapshot is
// only approximately consistent — each individual counter is exact and
// monotone, which is all Prometheus semantics require.
type HistogramSnapshot struct {
	// Counts holds per-bucket sample counts; Counts[NumBuckets] is overflow.
	Counts [NumBuckets + 1]uint64
	// Count is the total number of samples.
	Count uint64
	// SumNanos is the sum of all samples.
	SumNanos int64
	// MaxNanos is the largest sample observed.
	MaxNanos int64
	// LastNanos is the most recent sample.
	LastNanos int64
}

// Snapshot copies the current counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNanos = h.sumNs.Load()
	s.MaxNanos = h.maxNs.Load()
	s.LastNanos = h.lastNs.Load()
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds: the upper
// bound of the bucket holding the rank-⌈q·n⌉ sample, clamped to the observed
// maximum. Returns 0 for an empty histogram.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) || rank == 0 {
		rank++ // ceil, and at least the first sample
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			if ub := BucketUpperNs(i); ub < s.MaxNanos {
				return ub
			}
			return s.MaxNanos
		}
	}
	return s.MaxNanos // rank falls in the overflow bucket
}

// LatencySummary is the JSON-friendly digest of a histogram: sample count,
// p50/p90/p99 estimates, the exact maximum, and the exact sum. All values
// are nanoseconds.
type LatencySummary struct {
	Count      uint64 `json:"count"`
	P50Nanos   int64  `json:"p50_ns"`
	P90Nanos   int64  `json:"p90_ns"`
	P99Nanos   int64  `json:"p99_ns"`
	MaxNanos   int64  `json:"max_ns"`
	TotalNanos int64  `json:"total_ns"`
}

// Summary digests the snapshot into quantile estimates.
func (s HistogramSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:      s.Count,
		P50Nanos:   s.Quantile(0.50),
		P90Nanos:   s.Quantile(0.90),
		P99Nanos:   s.Quantile(0.99),
		MaxNanos:   s.MaxNanos,
		TotalNanos: s.SumNanos,
	}
}
