package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/prov"
)

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 2, 5} {
		sum := 0
		n := 20000
		for i := 0; i < n; i++ {
			sum += Poisson(rng, lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > 0.15*lambda+0.05 {
			t.Errorf("Poisson(%g) mean %g", lambda, mean)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive lambda must give 0")
	}
}

func TestGammaMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range []float64{0.1, 0.5, 1, 3} {
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			sum += Gamma(rng, shape)
		}
		mean := sum / float64(n)
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%g) mean %g", shape, mean)
		}
	}
}

func TestDirichlet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, alpha := range []float64{0.01, 0.1, 1, 10} {
		v := Dirichlet(rng, 6, alpha)
		if len(v) != 6 {
			t.Fatal("dimension wrong")
		}
		sum := 0.0
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative component %v", v)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("not normalized: %v", sum)
		}
	}
	// Low alpha concentrates: max component should usually dominate.
	dominant := 0
	for i := 0; i < 100; i++ {
		v := Dirichlet(rng, 5, 0.02)
		for _, x := range v {
			if x > 0.9 {
				dominant++
				break
			}
		}
	}
	if dominant < 60 {
		t.Errorf("Dirichlet(0.02) rarely concentrated: %d/100", dominant)
	}
}

func TestCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	probs := []float64{0.1, 0.6, 0.3}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, probs)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-p) > 0.03 {
			t.Errorf("Categorical[%d] = %g, want %g", i, got, p)
		}
	}
}

func TestZipfRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipfRank(1.5, 1000)
	counts := make([]int, 11)
	n := 50000
	for i := 0; i < n; i++ {
		r := z.Sample(rng, 1000)
		if r < 1 || r > 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		if r <= 10 {
			counts[r]++
		}
	}
	// Monotone decreasing frequencies for the head ranks.
	for r := 1; r < 5; r++ {
		if counts[r] < counts[r+1] {
			t.Errorf("rank %d (%d) less frequent than rank %d (%d)", r, counts[r], r+1, counts[r+1])
		}
	}
	// Rank 1 with skew 1.5 over 1000 items has probability ~0.38.
	p1 := float64(counts[1]) / float64(n)
	if p1 < 0.3 || p1 > 0.5 {
		t.Errorf("P(rank 1) = %g", p1)
	}
	// Degenerate domains.
	if z.Sample(rng, 1) != 1 || z.Sample(rng, 0) != 1 {
		t.Error("tiny domain sampling broken")
	}
}

func edgeSignature(p *prov.Graph) []uint64 {
	sig := make([]uint64, 0, p.NumEdges())
	for e := 0; e < p.NumEdges(); e++ {
		id := graph.EdgeID(e)
		sig = append(sig, uint64(p.PG().Src(id))<<32|uint64(p.PG().Dst(id)))
	}
	return sig
}

func TestPdDeterminism(t *testing.T) {
	a := Pd(PdConfig{N: 500, Seed: 9})
	b := Pd(PdConfig{N: 500, Seed: 9})
	sa, sb := edgeSignature(a), edgeSignature(b)
	if len(sa) != len(sb) {
		t.Fatal("same seed, different edge counts")
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed, different edges")
		}
	}
	c := Pd(PdConfig{N: 500, Seed: 10})
	sc := edgeSignature(c)
	same := len(sa) == len(sc)
	if same {
		for i := range sa {
			if sa[i] != sc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical edge structure")
	}
}

func TestPdStructure(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		p := Pd(PdConfig{N: n, Seed: 1})
		if err := p.Validate(); err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		p = p.Freeze()
		got := p.NumVertices()
		if got < n*8/10 || got > n*12/10 {
			t.Errorf("N=%d: vertex count %d off target", n, got)
		}
		wantAgents := int(math.Floor(math.Log(float64(n))))
		if len(p.Agents()) != wantAgents {
			t.Errorf("N=%d: agents %d, want %d", n, len(p.Agents()), wantAgents)
		}
		// Every activity uses >= 1 and generates >= 1 entity.
		var buf []graph.VertexID
		for _, a := range p.Activities() {
			if buf = p.InputsOf(a, buf[:0]); len(buf) < 1 {
				t.Fatalf("activity %d has no inputs", a)
			}
			if buf = p.GeneratedBy(a, buf[:0]); len(buf) < 1 {
				t.Fatalf("activity %d has no outputs", a)
			}
			if buf = p.AgentsOf(a, buf[:0]); len(buf) != 1 {
				t.Fatalf("activity %d has %d agents", a, len(buf))
			}
		}
		// Every non-seed entity has exactly one generator; inputs predate
		// their activity (order of being).
		for _, e := range p.Entities() {
			if buf = p.GeneratorsOf(e, buf[:0]); len(buf) > 1 {
				t.Fatalf("entity %d has %d generators", e, len(buf))
			}
		}
		for _, a := range p.Activities() {
			for _, in := range p.InputsOf(a, buf[:0]) {
				if in >= a {
					t.Fatalf("input %d not older than activity %d", in, a)
				}
			}
		}
	}
}

func TestQueryHelpers(t *testing.T) {
	p := Pd(PdConfig{N: 300, Seed: 2})
	src, dst := DefaultQuery(p)
	if len(src) != 2 || len(dst) != 2 {
		t.Fatal("default query shape wrong")
	}
	ents := p.Entities()
	if src[0] != ents[0] || dst[1] != ents[len(ents)-1] {
		t.Fatal("default query endpoints wrong")
	}
	for _, pct := range []int{0, 50, 99} {
		s2, d2 := QueryAtRank(p, pct)
		if len(s2) != 2 || len(d2) != 2 {
			t.Fatalf("rank %d query shape wrong", pct)
		}
		for _, s := range s2 {
			if p.KindOf(s) != prov.KindEntity {
				t.Fatal("non-entity source")
			}
		}
	}
}

func TestSdDeterminismAndShape(t *testing.T) {
	cfg := SdConfig{Alpha: 0.1, Activities: 10, Segments: 6, Seed: 11}
	p1, segs1 := Sd(cfg)
	p2, segs2 := Sd(cfg)
	if p1.NumVertices() != p2.NumVertices() || len(segs1) != len(segs2) {
		t.Fatal("Sd not deterministic")
	}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(segs1) != 6 {
		t.Fatalf("segment count %d", len(segs1))
	}
	// Segments are vertex-disjoint.
	seen := map[uint32]bool{}
	for _, s := range segs1 {
		acts := 0
		for _, v := range s.Vertices() {
			if seen[uint32(v)] {
				t.Fatal("segments share a vertex")
			}
			seen[uint32(v)] = true
			if p1.KindOf(v) == prov.KindActivity {
				acts++
			}
		}
		if acts != 10 {
			t.Fatalf("segment has %d activities, want 10", acts)
		}
		if s.NumEdges() == 0 {
			t.Fatal("segment without edges")
		}
	}
	// Activity commands name states within range.
	for _, s := range segs1 {
		for _, v := range s.Vertices() {
			if p1.KindOf(v) == prov.KindActivity {
				cmd := p1.PG().VertexProp(v, prov.PropCommand).AsString()
				if len(cmd) < 3 || cmd[:2] != "op" {
					t.Fatalf("bad command %q", cmd)
				}
			}
		}
	}
}
