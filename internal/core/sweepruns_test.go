package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// withOutOfOrderUse appends to p an activity that reads an early entity and
// writes one new entity, and makes the generator of a mid-history entity read
// that new entity too: one Used edge from an old id to a newer one, so the
// ids stop being an order of being.
func withOutOfOrderUse(t *testing.T, p *prov.Graph) {
	t.Helper()
	ents := p.Entities()
	old := p.Freeze().GeneratorsOf(ents[len(ents)/2], nil)[0]
	late := p.NewActivity("late")
	p.Used(late, ents[10])
	x := p.NewEntity("late-out")
	p.WasGeneratedBy(x, late)
	p.Used(old, x)
	if p.AncestryMonotone() {
		t.Fatal("the out-of-order Used edge left the graph id-monotone")
	}
}

// TestSweepContainersMatchWords is the differential for the sweep's run
// lists: every depth and target set, on every window, against the all-words
// oracle, VC2 against it per destination and per class (and against the
// level-synchronous runner where that is fast enough), and whole Segments
// against Segment with the oracle's VC2. The inputs are the seg_cold pool
// on Pd-2000, Pd-5000 and Pd-20000, a permuted Pd-2000, a Pd-2000 with one
// out-of-order Used edge, excluded relations and vertex and edge filters, and
// the adversaries that force promotion: diamond chains of gap 2 and 3 and a
// graph only part of which is promoted. No Pd query promotes a set; every
// adversary does. Short mode leaves out Pd-5000 and Pd-20000.
func TestSweepContainersMatchWords(t *testing.T) {
	type input struct {
		name      string
		p         *prov.Graph
		qs        []core.Query
		ref       string // "levels" or "words"
		adversary bool
	}
	var inputs []input
	for _, n := range []int{2000, 5000, 20000} {
		if n > 2000 && testing.Short() {
			continue
		}
		p := gen.Pd(gen.PdConfig{N: n, Seed: 1})
		ref := "levels"
		if n > 2000 {
			ref = "words"
		}
		inputs = append(inputs, input{fmt.Sprintf("Pd-%d/pool", n), p, poolQueries(t, p, 8), ref, false})
	}
	p := gen.Pd(gen.PdConfig{N: 2000, Seed: 1})
	pp, perm, _ := permute(p, 1)
	var permQs []core.Query
	for _, q := range poolQueries(t, p, 4) {
		permQs = append(permQs, core.Query{Src: mapIDs(perm, q.Src), Dst: mapIDs(perm, q.Dst)})
	}
	inputs = append(inputs, input{"Pd-2000/permuted", pp, permQs, "words", false})
	ooo := gen.Pd(gen.PdConfig{N: 2000, Seed: 1})
	src, dst := gen.DefaultQuery(ooo)
	withOutOfOrderUse(t, ooo)
	inputs = append(inputs, input{"Pd-2000/out-of-order", ooo, append(poolQueries(t, ooo, 2), core.Query{Src: src, Dst: dst}), "levels", false})
	src, dst = gen.DefaultQuery(p)
	var bounded []core.Query
	for _, b := range []core.Boundary{
		{ExcludeRels: []prov.Rel{prov.RelDeriv, prov.RelAssoc}},
		{ExcludeRels: []prov.Rel{prov.RelUsed}},
		{VertexFilters: []core.VertexFilter{func(_ *prov.Graph, v graph.VertexID) bool { return v%11 != 4 }}},
		{EdgeFilters: []core.EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%13 != 5 }}},
	} {
		bounded = append(bounded, core.Query{Src: src, Dst: dst, Boundary: b})
	}
	inputs = append(inputs, input{"Pd-2000/boundaries", p, bounded, "levels", false})
	k := 200
	if testing.Short() {
		k = 40
	}
	// Even k first promotes a depth set at an entity, odd k at an activity.
	for _, c := range []struct{ gap, k int }{{2, k}, {3, k + 1}} {
		dp, q := core.DiamondChain(c.k, c.gap)
		inputs = append(inputs, input{fmt.Sprintf("diamonds/gap=%d/k=%d", c.gap, c.k), dp, []core.Query{q}, "levels", true})
	}
	pp, q := core.PartialPromotion(k/5+1, 2*k)
	inputs = append(inputs, input{"partial", pp, []core.Query{q}, "levels", true})

	for _, in := range inputs {
		eng := core.NewEngine(in.p.Freeze(), core.Options{})
		promoted, nonEmpty := 0, 0
		for qi, q := range in.qs {
			label := fmt.Sprintf("%s/q%d", in.name, qi)
			vc2, _, pr := core.DeepRunnersAgree(t, label, in.p, q, core.Options{}, in.ref)
			promoted += pr
			if vc2 > 0 {
				nonEmpty++
			}
			if classes := core.SweepPromotions(eng, q); (pr == 0) != (classes == 0) {
				t.Errorf("%s: %d sets promoted per destination, %d per destination class", label, pr, classes)
			}
			got, err := eng.Segment(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.SegmentWords(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			diffSegs(t, label+"/segment", want, got)
		}
		switch {
		case nonEmpty == 0:
			t.Errorf("%s: every VC2 was empty: the differential compared too little", in.name)
		case in.adversary && promoted == 0:
			t.Errorf("%s: no set was promoted", in.name)
		case !in.adversary && promoted > 0:
			t.Errorf("%s: %d sets promoted on Pd, where run lists stay short", in.name, promoted)
		}
	}
}
