package difftest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/graph"
)

// Property differential. A freeze moves the properties below its watermark
// out of per-element maps into the lineage's packed runs (graph/props.go),
// so every property read — on the live graph, on each snapshot of the
// chain, old ones included once later freezes have dropped the live tail's
// maps, and on graphs rebuilt by Save/Load and by EncodeDelta/ApplyDelta —
// is compared with a map oracle of what the script set.

// propOracle holds, element by element, the properties a script set, and
// each element's set properties in ascending key order, sorted again after
// a set.
type propOracle struct {
	v, e   []map[string]graph.Value
	sv, se []sortedProps
}

// sortedProps is one element's properties in ascending key order, and which
// of absentKeys it carries (bit i for absentKeys[i]); stale once a set
// changed them.
type sortedProps struct {
	kvs   []kv
	has   uint
	stale bool
}

type kv struct {
	k string
	v graph.Value
}

// of returns the oracle map of element i of one kind (nil when it has none).
func (o *propOracle) of(vertex bool, i int) map[string]graph.Value {
	t := o.e
	if vertex {
		t = o.v
	}
	if i < len(t) {
		return t[i]
	}
	return nil
}

// sorted returns element i's properties in ascending key order, and which of
// absentKeys it carries.
func (o *propOracle) sorted(vertex bool, i int) ([]kv, uint) {
	t := o.se
	if vertex {
		t = o.sv
	}
	if i >= len(t) {
		return nil, 0
	}
	if s := &t[i]; s.stale {
		s.kvs, s.has, s.stale = s.kvs[:0], 0, false
		for k, v := range o.of(vertex, i) {
			s.kvs = append(s.kvs, kv{k, v})
			if j := slices.Index(absentKeys, k); j >= 0 {
				s.has |= 1 << j
			}
		}
		slices.SortFunc(s.kvs, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	}
	return t[i].kvs, t[i].has
}

// set records key=val on element i of one kind.
func (o *propOracle) set(vertex bool, i int, key string, val graph.Value) {
	t, st := &o.e, &o.se
	if vertex {
		t, st = &o.v, &o.sv
	}
	for len(*t) <= i {
		*t = append(*t, nil)
		*st = append(*st, sortedProps{})
	}
	if (*t)[i] == nil {
		(*t)[i] = make(map[string]graph.Value)
	}
	(*t)[i][key] = val
	(*st)[i].stale = true
}

// oracleOf reads a graph's properties into an oracle; the graph is the
// replay source, whose properties live in maps because it is never frozen.
func oracleOf(g *graph.Graph) *propOracle {
	o := &propOracle{}
	for v := 0; v < g.NumVertices(); v++ {
		g.VertexProps(graph.VertexID(v), func(k string, val graph.Value) bool {
			o.set(true, v, k, val)
			return true
		})
	}
	for e := 0; e < g.NumEdges(); e++ {
		g.EdgeProps(graph.EdgeID(e), func(k string, val graph.Value) bool {
			o.set(false, e, k, val)
			return true
		})
	}
	return o
}

// absentKeys are looked up on every element: never set, or set on others.
var absentKeys = []string{"", "absent", "p", "w", "k007", "zzz"}

// DiffProps compares every property read of g with the oracle: each key's
// VertexProp/EdgeProp, the ordered VertexProps/EdgeProps walk (exactly the
// set keys, ascending, with their values), and lookups of keys the element
// does not carry.
func (o *propOracle) DiffProps(g *graph.Graph) error {
	for _, vertex := range []bool{true, false} {
		n, kind := g.NumEdges(), "edge"
		if vertex {
			n, kind = g.NumVertices(), "vertex"
		}
		get := func(i int, k string) graph.Value {
			if vertex {
				return g.VertexProp(graph.VertexID(i), k)
			}
			return g.EdgeProp(graph.EdgeID(i), k)
		}
		// The walk of element i must yield want[pos] next.
		var i, pos int
		var want []kv
		var has uint
		var werr error
		yield := func(k string, val graph.Value) bool {
			if pos >= len(want) || want[pos].k != k || !want[pos].v.Equal(val) {
				werr = fmt.Errorf("%s %d walk yields %q = %#v at %d, want the %d set keys ascending: %v", kind, i, k, val, pos, len(want), want)
				return false
			}
			pos++
			return true
		}
		for i = 0; i < n; i++ {
			want, has = o.sorted(vertex, i)
			for _, p := range want {
				if got := get(i, p.k); !got.Equal(p.v) {
					return fmt.Errorf("%s %d prop %q = %#v, want %#v", kind, i, p.k, got, p.v)
				}
			}
			for j, k := range absentKeys {
				if has&(1<<j) == 0 && !get(i, k).IsZero() {
					return fmt.Errorf("%s %d prop %q = %#v, want absent", kind, i, k, get(i, k))
				}
			}
			pos, werr = 0, nil
			if vertex {
				g.VertexProps(graph.VertexID(i), yield)
			} else {
				g.EdgeProps(graph.EdgeID(i), yield)
			}
			if werr != nil {
				return werr
			}
			if pos != len(want) {
				return fmt.Errorf("%s %d walk yields %d keys, want the %d set keys ascending: %v", kind, i, pos, len(want), want)
			}
		}
	}
	return nil
}

// randomValue draws a property value of any kind: strings empty, ASCII,
// non-ASCII and long, ints of both signs, floats, bools.
func randomValue(rng *rand.Rand) graph.Value {
	switch rng.Intn(9) {
	case 0:
		return graph.String("")
	case 1:
		return graph.String(fmt.Sprintf("héllo-ü-日本-%d", rng.Intn(50)))
	case 2:
		return graph.String(fmt.Sprintf("s%d", rng.Intn(1000)))
	case 3:
		return graph.String(strings.Repeat("x", 100+rng.Intn(300)))
	case 4:
		return graph.Int(rng.Int63() - 1<<62)
	case 5:
		return graph.Int(int64(rng.Intn(10)) - 5)
	case 6:
		return graph.Float(rng.NormFloat64() * 1e6)
	case 7:
		return graph.Float(0)
	}
	return graph.Bool(rng.Intn(2) == 0)
}

// randomKey draws a key: mostly a few dense keys, sometimes one of many
// sparse ones.
func randomKey(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return fmt.Sprintf("k%03d", rng.Intn(300))
	}
	return []string{"p", "w", "name", "Name", "näme"}[rng.Intn(5)]
}

// setRandomProps gives element i of one kind no property, one, a few
// sparse ones, or many (up to 60 keys on one element).
func setRandomProps(rng *rand.Rand, g *graph.Graph, o *propOracle, vertex bool, i int) {
	var n int
	switch r := rng.Float64(); {
	case r < 0.4:
		return
	case r < 0.8:
		n = 1
	case r < 0.95:
		n = 2 + rng.Intn(3)
	default:
		n = 20 + rng.Intn(41)
	}
	for j := 0; j < n; j++ {
		setProp(g, o, vertex, i, randomKey(rng), randomValue(rng))
	}
}

// setProp sets key=val on element i of one kind and records it.
func setProp(g *graph.Graph, o *propOracle, vertex bool, i int, key string, val graph.Value) {
	if vertex {
		g.SetVertexProp(graph.VertexID(i), key, val)
	} else {
		g.SetEdgeProp(graph.EdgeID(i), key, val)
	}
	o.set(vertex, i, key, val)
}

// resetSome sets again, before the batch is frozen, a key already set on
// some elements of the batch [fromV, NumVertices) / [fromE, NumEdges), with
// a value of any kind.
func resetSome(rng *rand.Rand, g *graph.Graph, o *propOracle, fromV, fromE int) {
	for _, vertex := range []bool{true, false} {
		from, n := fromE, g.NumEdges()
		if vertex {
			from, n = fromV, g.NumVertices()
		}
		for tries := 0; tries < 3 && n > from; tries++ {
			i := from + rng.Intn(n-from)
			for k := range o.of(vertex, i) {
				setProp(g, o, vertex, i, k, randomValue(rng))
				break
			}
		}
	}
}

// saveBytes is g's PGS1 serialization.
func saveBytes(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	err := g.Save(&buf)
	return buf.Bytes(), err
}

// diffSavedProps checks that every graph in gs saves to the same bytes, and
// that those bytes load into a graph whose property reads match the oracle,
// before and after the loaded graph is frozen.
func (o *propOracle) diffSavedProps(gs ...*graph.Graph) error {
	ref, err := saveBytes(gs[0])
	if err != nil {
		return err
	}
	for i, g := range gs[1:] {
		b, err := saveBytes(g)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, ref) {
			return fmt.Errorf("graph %d saves to different bytes than graph 0", i+1)
		}
	}
	loaded, err := graph.Load(bytes.NewReader(ref))
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := o.DiffProps(loaded); err != nil {
		return fmt.Errorf("after Save/Load: %w", err)
	}
	if err := o.DiffProps(loaded.Freeze()); err != nil {
		return fmt.Errorf("after Save/Load/Freeze: %w", err)
	}
	return nil
}
