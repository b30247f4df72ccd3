package main

import (
	"math/bits"
	"strconv"
	"time"
)

// The speed reference. The sandbox this benchmark runs in shares its host: the
// same binary runs the same single-threaded request 40% slower ten minutes
// later, and every workload moves together. A timing that is only ever
// compared with another timing taken minutes apart would need a bound wider
// than any change worth catching. So the benchmark carries a fixed kernel of
// its own — never the program's code, or a real speed-up would cancel itself
// — and times it between ops all through a run, while the daemon is idle.
// Timings are reported scaled by kernelNominal / (mean kernel time of the
// interval): milliseconds on a machine that runs the kernel in kernelNominal.

// kernelNominal is the kernel's mean duration on the reference machine — this
// sandbox at its usual load.
const kernelNominal = 10 * time.Millisecond

// probeEvery is the least time between two kernel runs. With a kernel of
// about 10 ms the probe costs the window about 6% of its length; a shorter
// total could not tell the host's moods apart (the run-to-run spread of the
// scaled numbers falls as the kernel time per run grows).
const probeEvery = 150 * time.Millisecond

// kernel is a fixed amount of work of the three kinds provd's request path
// is made of: dependent loads over a table larger than L2 (graph walks),
// word-parallel bitset sweeps (the closure and VC2 kernels), and integer
// formatting into a byte buffer (the JSON encode).
type kernel struct {
	table []uint32
	a, b  []uint64
	buf   []byte
	sink  uint64
}

func newKernel() *kernel {
	k := &kernel{table: make([]uint32, 1<<20), a: make([]uint64, 1<<15), b: make([]uint64, 1<<15), buf: make([]byte, 0, 1<<16)}
	// next = (i*a + c) mod 2^20 with a = 1 mod 4 and c odd is a full-period
	// LCG: following the table visits every entry before repeating.
	for i := range k.table {
		k.table[i] = uint32((i*1664525 + 1013904223) & (len(k.table) - 1))
	}
	x := uint64(88172645463325252)
	for i := range k.a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.a[i], k.b[i] = x, x*2685821657736338717
	}
	k.run() // fault the tables in
	return k
}

// run executes the kernel once and returns how long it took.
func (k *kernel) run() time.Duration {
	start := time.Now()
	var acc uint64
	// Dependent loads: 50k steps through a 4 MB table.
	p := uint32(k.sink) & uint32(len(k.table)-1)
	for i := 0; i < 50_000; i++ {
		p = k.table[p]
	}
	acc += uint64(p)
	// Bitset sweeps: 36 passes of or / and-not / popcount over 256 KB rows.
	for pass := 0; pass < 36; pass++ {
		for i := range k.a {
			v := (k.a[i] | k.b[i]) &^ (k.a[i] >> uint(pass&7))
			acc += uint64(bits.OnesCount64(v))
		}
	}
	// Integer formatting: 75k numbers into a reused buffer.
	buf := k.buf[:0]
	for i := 0; i < 75_000; i++ {
		if len(buf) > 1<<15 {
			acc += uint64(buf[len(buf)-1])
			buf = buf[:0]
		}
		buf = strconv.AppendUint(buf, uint64(i)*2654435761, 10)
		buf = append(buf, ',')
	}
	k.sink = acc + uint64(len(buf))
	return time.Since(start)
}

// probe samples the kernel between ops of one interval (a warm-up pass, a
// window) and keeps the time it took out of the interval's own clock.
type probe struct {
	k       *kernel
	last    time.Time
	samples []time.Duration
	paused  time.Duration // total spent in the kernel since reset
}

func (p *probe) reset() { p.last, p.samples, p.paused = time.Time{}, nil, 0 }

// tick runs the kernel if the last run ended probeEvery ago. The client calls
// it after every op: the daemon is idle then, so the kernel competes with
// nothing the benchmark started.
func (p *probe) tick() {
	now := time.Now()
	if now.Sub(p.last) < probeEvery {
		return
	}
	p.samples = append(p.samples, p.k.run())
	p.last = time.Now()
	p.paused += p.last.Sub(now)
}

// factor is what the interval's timings are multiplied by: the nominal kernel
// time over the mean of the samples (the mean, not the median: the host
// flips between a fast and a slow mode, and what slows a run down is the
// share of time spent in the slow one). 1 with no samples.
func (p *probe) factor() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	var sum time.Duration
	for _, s := range p.samples {
		sum += s
	}
	return float64(kernelNominal) * float64(len(p.samples)) / float64(sum)
}
