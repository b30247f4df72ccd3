package cflr

import (
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/graph"
)

// Same-generation grammar over edge labels p (parent) — the classic CFLR
// example: SG -> p^-1 SG p | p^-1 p. SG(x, y) holds iff x and y are at the
// same depth below a common ancestor, which is easy to verify directly.

func buildTree(rng *rand.Rand, n int) (*graph.Graph, graph.Label, []int) {
	g := graph.New()
	p := g.Dict().Intern("p")
	depth := make([]int, n)
	lbl := g.Dict().Intern("n")
	for i := 0; i < n; i++ {
		g.AddVertex(lbl)
	}
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		// child -> parent edge labeled p
		g.AddEdge(graph.VertexID(i), graph.VertexID(parent), p)
		depth[i] = depth[parent] + 1
	}
	return g.Freeze(), p, depth
}

func sameGenGrammar(p graph.Label) *Grammar {
	g := NewGrammar()
	sg := g.AddNonterminal("SG")
	// Edges point child -> parent, so a same-generation path climbs with
	// forward p and descends with inverse p:
	// SG -> p p^-1 (siblings) | p SG p^-1 (cousins).
	g.Add(sg, T(EdgeTerm(p, false)), T(EdgeTerm(p, true)))
	g.Add(sg, T(EdgeTerm(p, false)), N(sg), T(EdgeTerm(p, true)))
	g.SetStart(sg)
	return g
}

// bruteSameGen computes the relation directly: walk up from both vertices
// simultaneously; related iff they reach a common ancestor at equal height
// in lockstep with all intermediate pairs distinct... for trees the simple
// characterization is: x != y is possible only via the recursive paths, so
// we compute via fixpoint on the definition.
func bruteSameGen(g *graph.Graph, p graph.Label, n int) map[[2]int]bool {
	parentOf := make([]int, n)
	for i := range parentOf {
		parentOf[i] = -1
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if g.EdgeLabel(id) == p {
			parentOf[g.Src(id)] = int(g.Dst(id))
		}
	}
	rel := make(map[[2]int]bool)
	// Base: same parent.
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if parentOf[x] >= 0 && parentOf[x] == parentOf[y] {
				rel[[2]int{x, y}] = true
			}
		}
	}
	// Recursive: parents related.
	for changed := true; changed; {
		changed = false
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if rel[[2]int{x, y}] {
					continue
				}
				px, py := parentOf[x], parentOf[y]
				if px >= 0 && py >= 0 && rel[[2]int{px, py}] {
					rel[[2]int{x, y}] = true
					changed = true
				}
			}
		}
	}
	return rel
}

func TestSameGenerationReachability(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g, p, _ := buildTree(rng, n)
		gr := sameGenGrammar(p).Normalize()
		solver, err := NewSolver(g, gr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSameGen(g, p, n)
		got := make(map[[2]int]bool)
		res.IteratePairs(gr.Start(), func(u, v graph.VertexID) bool {
			got[[2]int{int(u), int(v)}] = true
			return true
		})
		for k := range want {
			if !got[k] {
				t.Errorf("seed=%d: missing SG%v", seed, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("seed=%d: extra SG%v", seed, k)
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	g := NewGrammar()
	a := g.AddNonterminal("A")
	b := g.AddNonterminal("B")
	l := graph.Label(1)
	// A -> t B t B t (5 items).
	g.Add(a, T(EdgeTerm(l, false)), N(b), T(EdgeTerm(l, true)), N(b), T(VertexLabelTerm(l)))
	g.Add(b, T(EdgeTerm(l, false)))
	if g.IsNormalForm() {
		t.Fatal("5-item rule should not be normal form")
	}
	nf := g.Normalize()
	if !nf.IsNormalForm() {
		t.Fatal("Normalize did not produce normal form")
	}
	// 5-item rule becomes 4 binary rules; B rule kept.
	if len(nf.Productions()) != 5 {
		t.Fatalf("want 5 productions, got %d:\n%s", len(nf.Productions()), nf)
	}
	if nf.Start() != g.Start() {
		t.Fatal("start symbol changed")
	}
}

// TestNormalizeEquivalence: the original 3-ary SimProv-style grammar and
// its normalized form derive the same relation.
func TestNormalizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, p, _ := buildTree(rng, 30)
	orig := sameGenGrammar(p) // has a 3-item production
	nf := orig.Normalize()

	solver, err := NewSolver(g, nf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Roaring-backed solve must agree.
	solver2, err := NewSolver(g, nf, Options{Sets: bitmap.RoaringFactory})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := solver2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	count1, count2 := 0, 0
	res.IteratePairs(nf.Start(), func(u, v graph.VertexID) bool { count1++; return true })
	res2.IteratePairs(nf.Start(), func(u, v graph.VertexID) bool {
		count2++
		if !res.Has(nf.Start(), u, v) {
			t.Fatalf("roaring fact (%d,%d) missing from bitset solve", u, v)
		}
		return true
	})
	if count1 != count2 {
		t.Fatalf("fact counts differ: %d vs %d", count1, count2)
	}
}

func TestSolverRejectsNonNormalForm(t *testing.T) {
	g, p, _ := buildTree(rand.New(rand.NewSource(1)), 10)
	if _, err := NewSolver(g, sameGenGrammar(p), Options{}); err == nil {
		t.Fatal("non-normal-form grammar accepted")
	}
}

func TestFactBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, p, _ := buildTree(rng, 60)
	gr := sameGenGrammar(p).Normalize()
	solver, err := NewSolver(g, gr, Options{MaxFacts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(); err != ErrFactBudget {
		t.Fatalf("want ErrFactBudget, got %v", err)
	}
}

func TestEdgeFilter(t *testing.T) {
	// Two disjoint parent edges; filtering one of them kills its sibling
	// fact.
	g := graph.New()
	p := g.Dict().Intern("p")
	nl := g.Dict().Intern("n")
	for i := 0; i < 4; i++ {
		g.AddVertex(nl)
	}
	e1 := g.AddEdge(1, 0, p)
	g.AddEdge(2, 0, p)
	g.AddEdge(3, 0, p)
	gr := sameGenGrammar(p).Normalize()
	solver, err := NewSolver(g.Freeze(), gr, Options{
		EdgeOK: func(e graph.EdgeID) bool { return e != e1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Has(gr.Start(), 1, 2) {
		t.Fatal("filtered edge still produced facts")
	}
	if !res.Has(gr.Start(), 2, 3) {
		t.Fatal("unfiltered siblings lost")
	}
}

func TestGrammarString(t *testing.T) {
	g, p, _ := buildTree(rand.New(rand.NewSource(1)), 5)
	_ = g
	s := sameGenGrammar(p).String()
	if s == "" {
		t.Fatal("empty grammar rendering")
	}
}
