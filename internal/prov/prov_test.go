package prov

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

func buildChain(t *testing.T) (*Graph, []graph.VertexID) {
	t.Helper()
	p := New()
	alice := p.NewAgent("alice")
	d := p.NewEntity("data")
	p.WasAttributedTo(d, alice)
	a1 := p.NewActivity("train")
	p.WasAssociatedWith(a1, alice)
	p.Used(a1, d)
	m := p.NewEntity("model")
	p.WasGeneratedBy(m, a1)
	m2 := p.NewEntity("model2")
	p.WasDerivedFrom(m2, m)
	return p, []graph.VertexID{alice, d, a1, m, m2}
}

func TestKindsAndRels(t *testing.T) {
	p, vs := buildChain(t)
	alice, d, a1, m, _ := vs[0], vs[1], vs[2], vs[3], vs[4]
	if p.KindOf(alice) != KindAgent || p.KindOf(d) != KindEntity || p.KindOf(a1) != KindActivity {
		t.Fatal("kinds wrong")
	}
	if !p.IsKind(m, KindEntity) || p.IsKind(m, KindAgent) {
		t.Fatal("IsKind wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Entities()) != 3 || len(p.Activities()) != 1 || len(p.Agents()) != 1 {
		t.Fatal("per-kind listings wrong")
	}
}

func TestSchemaEnforcement(t *testing.T) {
	p := New()
	e := p.NewEntity("e")
	a := p.NewActivity("a")
	u := p.NewAgent("u")
	// Wrong-direction / wrong-kind edges must be rejected.
	bad := []struct {
		rel      Rel
		src, dst graph.VertexID
	}{
		{RelUsed, e, a},  // used must be A -> E
		{RelGen, a, e},   // gen must be E -> A
		{RelAssoc, e, u}, // assoc must be A -> U
		{RelAttr, a, u},  // attr must be E -> U
		{RelDeriv, e, a}, // deriv must be E -> E
		{RelDeriv, u, u}, // deriv must be E -> E
		{RelAssoc, a, e}, // target must be agent
	}
	for _, c := range bad {
		if _, err := p.AddRel(c.rel, c.src, c.dst); err == nil {
			t.Errorf("AddRel(%v, %v->%v) accepted invalid edge", c.rel, c.src, c.dst)
		}
	}
	// Valid ones succeed.
	if _, err := p.AddRel(RelUsed, a, e); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRel(RelAssoc, a, u); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	p := New()
	e1 := p.NewEntity("e1")
	e2 := p.NewEntity("e2")
	p.WasDerivedFrom(e2, e1)
	p.WasDerivedFrom(e1, e2) // cycle
	if err := p.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestAdjacencyHelpers(t *testing.T) {
	live, vs := buildChain(t)
	p := live.Freeze()
	d, a1, m := vs[1], vs[2], vs[3]
	var buf []graph.VertexID
	if buf = p.GeneratorsOf(m, buf[:0]); len(buf) != 1 || buf[0] != a1 {
		t.Fatal("GeneratorsOf wrong")
	}
	if buf = p.GeneratedBy(a1, buf[:0]); len(buf) != 1 || buf[0] != m {
		t.Fatal("GeneratedBy wrong")
	}
	if buf = p.InputsOf(a1, buf[:0]); len(buf) != 1 || buf[0] != d {
		t.Fatal("InputsOf wrong")
	}
	if buf = p.UsersOf(d, buf[:0]); len(buf) != 1 || buf[0] != a1 {
		t.Fatal("UsersOf wrong")
	}
	if buf = p.AgentsOf(a1, buf[:0]); len(buf) != 1 {
		t.Fatal("AgentsOf wrong")
	}
}

// TestOrderOfBeing: on an id-monotone graph the order of being is the id and
// allocates nothing; on a graph ingested out of order it is a rank under
// which every ancestry edge descends, built once per frozen snapshot and per
// call on a live graph; an ancestry cycle has none.
func TestOrderOfBeing(t *testing.T) {
	p, vs := buildChain(t)
	for _, g := range []*Graph{p, p.Freeze()} {
		rank, ok := g.OrderOfBeing()
		if !ok || !rank.IsID() || rank.Of(vs[3]) != int32(vs[3]) || rank.At(int32(vs[1])) != vs[1] {
			t.Fatalf("frozen=%v: id-monotone graph: ok=%v, rank is the id: %v", g.g.Frozen(), ok, rank.IsID())
		}
		if n := testing.AllocsPerRun(10, func() { g.OrderOfBeing() }); n != 0 || g.being.Load() != nil && g.being.Load() != idRank {
			t.Fatalf("frozen=%v: id-monotone graph: %v allocs per call, memo %v", g.g.Frozen(), n, g.being.Load())
		}
	}

	// Activities created before their inputs: every Used edge points up.
	q := New()
	a1, a2 := q.NewActivity("a1"), q.NewActivity("a2")
	src, mid, dst := q.NewEntity("src"), q.NewEntity("mid"), q.NewEntity("dst")
	q.Used(a1, src)
	q.WasGeneratedBy(mid, a1)
	q.Used(a2, mid)
	q.WasGeneratedBy(dst, a2)
	q.WasAttributedTo(dst, q.NewAgent("u"))
	fz := q.Freeze()
	for _, g := range []*Graph{q, fz} {
		rank, ok := g.OrderOfBeing()
		if !ok || rank.IsID() {
			t.Fatalf("frozen=%v: out-of-order graph: ok=%v, rank is the id: %v", g.g.Frozen(), ok, rank.IsID())
		}
		for i := int32(0); int(i) < g.NumVertices(); i++ {
			if rank.Of(rank.At(i)) != i {
				t.Fatalf("frozen=%v: At and Of disagree at rank %d", g.g.Frozen(), i)
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			id := graph.EdgeID(e)
			if r := g.RelOf(id); (r == RelUsed || r == RelGen) && rank.Of(g.PG().Src(id)) <= rank.Of(g.PG().Dst(id)) {
				t.Fatalf("frozen=%v: ancestry edge %d does not descend in rank", g.g.Frozen(), e)
			}
		}
	}
	first, _ := fz.OrderOfBeing()
	again, _ := fz.OrderOfBeing()
	if n := testing.AllocsPerRun(10, func() { fz.OrderOfBeing() }); n != 0 || &first.byRank[0] != &again.byRank[0] {
		t.Fatalf("snapshot order rebuilt: %v allocs per call, shared %v", n, &first.byRank[0] == &again.byRank[0])
	}
	if q.being.Load() != nil {
		t.Fatal("a live graph memoized its order")
	}
	// Racing first callers on a fresh snapshot all get the one order stored.
	fresh := q.Freeze()
	got := make([]*graph.VertexID, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := fresh.OrderOfBeing()
			got[i] = &r.byRank[0]
		}()
	}
	wg.Wait()
	for _, p := range got {
		if p != &fresh.being.Load().byRank[0] {
			t.Fatal("racing callers got different orders")
		}
	}

	// a -U-> e -G-> a: no order of being, live or frozen.
	c := New()
	a, e := c.NewActivity("a"), c.NewEntity("e")
	c.Used(a, e)
	c.WasGeneratedBy(e, a)
	for _, g := range []*Graph{c, c.Freeze()} {
		if _, ok := g.OrderOfBeing(); ok {
			t.Fatalf("frozen=%v: an ancestry cycle has an order of being", g.g.Frozen())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, _ := buildChain(t)
	p.PG().SetVertexProp(1, "acc", graph.Float(0.75))
	var buf bytes.Buffer
	if err := p.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"wasGeneratedBy", "wasDerivedFrom", "entity", "agent"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("JSON missing %q: %s", frag, out)
		}
	}
	p2, err := ImportJSON(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumVertices() != p.NumVertices() || p2.NumEdges() != p.NumEdges() {
		t.Fatal("roundtrip size mismatch")
	}
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImportJSONRejectsDangling(t *testing.T) {
	doc := `{"entity":{"e1":{}},"used":{"r1":{"from":"missing","to":"e1"}}}`
	if _, err := ImportJSON(strings.NewReader(doc)); err == nil {
		t.Fatal("dangling reference accepted")
	}
}

func TestRecorderVersioning(t *testing.T) {
	rc := NewRecorder()
	d1 := rc.Import("alice", "data.csv", "http://x")
	a, outs := rc.Run("alice", "clean", []graph.VertexID{d1}, []string{"data.csv"})
	if len(outs) != 1 {
		t.Fatal("Run outputs wrong")
	}
	d2 := outs[0]
	if rc.P.Name(d1) != "data.csv-v1" || rc.P.Name(d2) != "data.csv-v2" {
		t.Fatalf("version names: %q %q", rc.P.Name(d1), rc.P.Name(d2))
	}
	if latest, ok := rc.Latest("data.csv"); !ok || latest != d2 {
		t.Fatal("Latest wrong")
	}
	if v1, ok := rc.Version("data.csv", 1); !ok || v1 != d1 {
		t.Fatal("Version wrong")
	}
	if _, ok := rc.Version("data.csv", 3); ok {
		t.Fatal("phantom version")
	}
	if got := rc.Versions("data.csv"); len(got) != 2 {
		t.Fatal("Versions wrong")
	}
	// D edge between versions.
	var found bool
	for e := 0; e < rc.P.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if rc.P.RelOf(id) == RelDeriv && rc.P.PG().Src(id) == d2 && rc.P.PG().Dst(id) == d1 {
			found = true
		}
	}
	if !found {
		t.Fatal("derivation edge missing between versions")
	}
	// Same agent is reused.
	if rc.Agent("alice") != rc.Agent("alice") {
		t.Fatal("agent duplicated")
	}
	if err := rc.P.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = a
}

// TestLabelTables: KindOf / RelOf read dense tables indexed by graph.Label.
// The PROV labels need not be the dictionary's first, a foreign label inside
// the table's range and one interned after Wrap (past its end) are both
// non-PROV, and snapshots share the tables.
func TestLabelTables(t *testing.T) {
	g := graph.New()
	early := g.Dict().Intern("foreign-early")
	for i := 0; i < 40; i++ {
		g.Dict().Intern("pad-" + strings.Repeat("x", i))
	}
	p := Wrap(g)
	late := g.Dict().Intern("foreign-late")

	alice := p.NewAgent("alice")
	d := p.NewEntity("data")
	a := p.NewActivity("train")
	edges := map[Rel]graph.EdgeID{
		RelUsed: p.Used(a, d), RelAssoc: p.WasAssociatedWith(a, alice), RelAttr: p.WasAttributedTo(d, alice),
	}
	m := p.NewEntity("model")
	edges[RelGen], edges[RelDeriv] = p.WasGeneratedBy(m, a), p.WasDerivedFrom(m, d)
	for _, fz := range []*Graph{p, p.Freeze()} {
		for v, k := range map[graph.VertexID]Kind{alice: KindAgent, d: KindEntity, a: KindActivity, m: KindEntity} {
			if got := fz.KindOf(v); got != k {
				t.Errorf("KindOf(%d) = %v, want %v", v, got, k)
			}
		}
		for r, e := range edges {
			if got := fz.RelOf(e); got != r {
				t.Errorf("RelOf(%d) = %v, want %v", e, got, r)
			}
		}
		if err := fz.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	for _, l := range []graph.Label{early, late, graph.NoLabel} {
		v := g.AddVertex(l)
		func() {
			defer func() {
				if r, want := recover(), "prov: vertex "+strconv.Itoa(int(v))+" has non-PROV label"; r != want {
					t.Errorf("KindOf on label %d: panic %v, want %q", l, r, want)
				}
			}()
			p.KindOf(v)
		}()
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), `unknown label "foreign-early"`) {
		t.Errorf("Validate with a foreign vertex label: %v", err)
	}
	e := g.AddEdge(d, m, late)
	func() {
		defer func() {
			if r, want := recover(), "prov: edge "+strconv.Itoa(int(e))+" has non-PROV label"; r != want {
				t.Errorf("RelOf: panic %v, want %q", r, want)
			}
		}()
		p.RelOf(e)
	}()
	// A vertex label is not a relationship, nor the other way round.
	if _, ok := p.relOfLabel(p.KindLabel(KindAgent)); ok {
		t.Error("v:U read as a relationship")
	}
	if _, ok := p.kindOfLabel(p.RelLabel(RelUsed)); ok {
		t.Error("e:U read as a vertex kind")
	}
}
