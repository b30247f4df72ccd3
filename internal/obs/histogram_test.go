package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{999, 0},
		{1000, 0},             // first upper bound is inclusive
		{1001, 1},             // first value past it
		{2000, 1},             // second bound inclusive
		{2001, 2},             // and past
		{1 << 40, NumBuckets}, // ~18 minutes: overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's upper bound must index to that bucket, and the value
	// just past it to the next.
	for i := 0; i < NumBuckets; i++ {
		ub := BucketUpperNs(i)
		if got := bucketIndex(ub); got != i {
			t.Errorf("bucketIndex(upper %d) = %d, want %d", ub, got, i)
		}
		want := i + 1
		if want > NumBuckets {
			want = NumBuckets
		}
		if got := bucketIndex(ub + 1); got != want {
			t.Errorf("bucketIndex(upper+1 %d) = %d, want %d", ub+1, got, want)
		}
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.MaxNanos != 0 {
		t.Fatalf("empty histogram: %+v", s)
	}
	h.Observe(-5 * time.Second) // clamps to 0
	s = h.Snapshot()
	if s.Count != 1 || s.Counts[0] != 1 || s.SumNanos != 0 {
		t.Fatalf("negative sample: %+v", s)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// 100 samples: 1ms..100ms. Log buckets bound quantile error at 2x.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxNanos != int64(100*time.Millisecond) {
		t.Fatalf("max = %d", s.MaxNanos)
	}
	wantSum := int64(0)
	for i := 1; i <= 100; i++ {
		wantSum += int64(i) * int64(time.Millisecond)
	}
	if s.SumNanos != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, wantSum)
	}
	for _, c := range []struct {
		q     float64
		exact int64 // true quantile in ns
	}{
		{0.50, int64(50 * time.Millisecond)},
		{0.90, int64(90 * time.Millisecond)},
		{0.99, int64(99 * time.Millisecond)},
	} {
		got := s.Quantile(c.q)
		if got < c.exact || got > 2*c.exact {
			t.Errorf("q%.2f = %d, want within [%d, %d]", c.q, got, c.exact, 2*c.exact)
		}
	}
	// The estimate never exceeds the observed maximum.
	if got := s.Quantile(1.0); got != s.MaxNanos {
		t.Errorf("q1.0 = %d, want max %d", got, s.MaxNanos)
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	var h Histogram
	huge := 10 * BucketUpperNs(NumBuckets-1)
	h.Observe(time.Duration(huge))
	s := h.Snapshot()
	if s.Counts[NumBuckets] != 1 {
		t.Fatalf("overflow bucket empty: %+v", s.Counts)
	}
	// An overflow sample's quantile estimate is the recorded max, not a
	// bucket bound.
	if got := s.Quantile(0.5); got != huge {
		t.Fatalf("overflow quantile = %d, want %d", got, huge)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	sum := h.Snapshot().Summary()
	want := int64(3 * time.Millisecond)
	if sum.Count != 1 || sum.P50Nanos != want || sum.P99Nanos != want || sum.MaxNanos != want {
		t.Fatalf("single sample summary: %+v", sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		workers = 8
		per     = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(1+(w*per+i)%1000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var fromBuckets uint64
	for _, c := range s.Counts {
		fromBuckets += c
	}
	if fromBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", fromBuckets, s.Count)
	}
	if s.MaxNanos != int64(1000*time.Microsecond) {
		t.Fatalf("max = %d", s.MaxNanos)
	}
}
