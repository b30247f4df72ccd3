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
	p, vs := buildChain(t)
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

func TestOrderOfBeing(t *testing.T) {
	p, vs := buildChain(t)
	// Default: vertex id order.
	if p.Order(vs[1]) >= p.Order(vs[3]) {
		t.Fatal("id order broken")
	}
	// Explicit PropTime overrides.
	p.PG().SetVertexProp(vs[1], PropTime, graph.Int(999))
	if p.Order(vs[1]) != 999 {
		t.Fatal("PropTime override ignored")
	}
}

func TestPathLabels(t *testing.T) {
	p, vs := buildChain(t)
	d, a1, m := vs[1], vs[2], vs[3]
	// Path m -G-> a1 -U-> d (forward ancestry).
	var gEdge, uEdge graph.EdgeID
	for e := 0; e < p.PG().NumEdges(); e++ {
		id := graph.EdgeID(e)
		if p.RelOf(id) == RelGen && p.PG().Src(id) == m {
			gEdge = id
		}
		if p.RelOf(id) == RelUsed && p.PG().Dst(id) == d {
			uEdge = id
		}
	}
	pt := Path{Start: m, Steps: []Step{{Edge: gEdge}, {Edge: uEdge}}}
	if got := p.TauPath(pt); got != "E G A U E" {
		t.Fatalf("TauPath = %q", got)
	}
	if got := p.TauSegment(pt); got != "G A U" {
		t.Fatalf("TauSegment = %q", got)
	}
	if pt.End(p) != d {
		t.Fatal("End wrong")
	}
	verts := pt.Vertices(p)
	if len(verts) != 3 || verts[0] != m || verts[1] != a1 || verts[2] != d {
		t.Fatalf("Vertices = %v", verts)
	}
	// Inverse path: d U^-1 a1 G^-1 m.
	inv := pt.Inverse(p)
	if got := p.TauPath(inv); got != "E U-1 A G-1 E" {
		t.Fatalf("inverse TauPath = %q", got)
	}
	if inv.End(p) != m {
		t.Fatal("inverse End wrong")
	}
}

func TestAncestryPathEnumeration(t *testing.T) {
	p, vs := buildChain(t)
	m := vs[3]
	count := 0
	p.AncestryPaths(m, 5, func(pt Path) bool {
		count++
		return true
	})
	// m -G-> a1 and m -G-> a1 -U-> d.
	if count != 2 {
		t.Fatalf("want 2 ancestry paths from model, got %d", count)
	}
	// Early stop.
	count = 0
	p.AncestryPaths(m, 5, func(Path) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop broken: %d", count)
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

// TestNameColumn: a frozen snapshot answers Name from the column its live
// graph's snapshots share. Whatever the order the epochs are first read in,
// and with readers of different epochs extending it at once (-race), every
// answer is the property map's, and a reader extends the column to its own
// snapshot's vertices, never past them.
func TestNameColumn(t *testing.T) {
	p := New()
	var snaps []*Graph
	for epoch := 0; epoch < 8; epoch++ {
		for i := 0; i < 40; i++ {
			switch i % 4 {
			case 0:
				p.NewEntity("e" + strconv.Itoa(epoch*100+i))
			case 1:
				p.NewActivity("") // no name property at all
			case 2:
				p.PG().SetVertexProp(p.NewAgent("x"), PropName, graph.Int(int64(i))) // rendered by AsString
			case 3:
				p.PG().SetVertexProp(p.NewEntity("x"), PropName, graph.String(""))
			}
		}
		var prev *Graph
		if epoch > 0 {
			prev = snaps[epoch-1]
		}
		fz, _ := p.ExtendFrozen(prev)
		snaps = append(snaps, fz)
	}

	mid := snaps[3]
	if got := mid.Name(0); got != "e0" {
		t.Fatalf("Name(0) = %q", got)
	}
	if n := len(p.names.load()); n != mid.NumVertices() {
		t.Fatalf("a reader at %d vertices left the column at %d", mid.NumVertices(), n)
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := range snaps {
				fz := snaps[(k*3+r*5)%len(snaps)]
				for i := fz.NumVertices() - 1; i >= 0; i-- {
					v := graph.VertexID(i)
					if got, want := fz.Name(v), fz.PG().VertexProp(v, PropName).AsString(); got != want {
						t.Errorf("snapshot of %d vertices: Name(%d) = %q, the property says %q", fz.NumVertices(), v, got, want)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if n, want := len(p.names.load()), snaps[len(snaps)-1].NumVertices(); n != want {
		t.Fatalf("column holds %d names for %d frozen vertices", n, want)
	}
	// The live graph still reads its maps: a vertex past every snapshot.
	if v := p.NewEntity("late"); p.Name(v) != "late" {
		t.Fatalf("live Name(%d) = %q", v, p.Name(v))
	}
}
