package bitmap

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the set kernels the query engine leans on. They
// isolate the word-level primitives so a kernel regression shows up in
// `go test -bench` without re-running the serving benches.

const benchBits = 1 << 20

func randomBitset(rng *rand.Rand, n, card int) *Bitset {
	b := NewBitset(n)
	for i := 0; i < card; i++ {
		b.Add(rng.Uint32() % uint32(n))
	}
	return b
}

func BenchmarkDiffAddIntoBitset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randomBitset(rng, benchBits, benchBits/8)
	dst := randomBitset(rng, benchBits, benchBits/8)
	out := make([]uint32, 0, benchBits/8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clone outside the measured kernel would skew less, but the copy is
		// word-parallel too and identical per iteration.
		d := dst.Clone()
		out = src.DiffAddInto(d, out[:0])
	}
	_ = out
}

func BenchmarkDiffAddIntoRoaring(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := NewRoaring()
	for i := 0; i < benchBits/64; i++ {
		src.Add(rng.Uint32() % benchBits)
	}
	dst := randomBitset(rng, benchBits, benchBits/64)
	out := make([]uint32, 0, benchBits/64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dst.Clone()
		out = src.DiffAddInto(d, out[:0])
	}
	_ = out
}

func BenchmarkUnionWith(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randomBitset(rng, benchBits, benchBits/8)
	y := randomBitset(rng, benchBits, benchBits/8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.UnionWith(y)
	}
}

func BenchmarkAndNotWith(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomBitset(rng, benchBits, benchBits/8)
	y := randomBitset(rng, benchBits, benchBits/8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.AndNotWith(y)
	}
}

// BenchmarkOrIntoRows scatters CSR-row-shaped slices (short, clustered)
// into a bitset — the top-down frontier step.
func BenchmarkOrIntoRows(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	rows := make([][]uint32, 4096)
	for i := range rows {
		row := make([]uint32, 2+rng.Intn(6))
		base := rng.Uint32() % (benchBits - 64)
		for j := range row {
			row[j] = base + rng.Uint32()%64
		}
		rows[i] = row
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewBitset(benchBits)
		for _, row := range rows {
			OrInto(dst, row)
		}
	}
}
