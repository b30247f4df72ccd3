package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Packed properties. Below the watermark a vertex's or edge's properties
// never change (SetVertexProp rejects them), so Freeze moves them out of the
// per-element Props maps into one pointer-free store per graph lineage, and
// Load and ApplyDelta decode them straight into it. It is laid out like a
// CSR block:
//
//   - each element owns a run of entries, key[off[i]:off[i+1]] with val
//     alongside, sorted by key name (the byte order Save and EncodeDelta
//     write, so the cold readers walk a run as is);
//   - an entry's key word is the key's id in the lineage's name table
//     shifted past the value kind; its value slot holds the int, the bool,
//     the float's bits or, for a string, the offset of the string in the
//     arena, where it is stored as a uvarint length and its bytes.
//
// The live graph owns the store and appends to it at delta cost whenever it
// freezes or applies a delta; a snapshot holds capped prefixes of its
// slices, so every epoch shares one copy of the bytes and no reader ever
// sees an append. Reads compare key names in a run and turn an arena string
// into a string header over the arena's own bytes (they never change once
// written), so VertexProp and EdgeProp allocate nothing.

// kindBits is the width of the value kind in an entry's key word.
const kindBits = 3

// maxKeyID bounds the lineage's distinct property keys.
const maxKeyID = math.MaxUint32 >> kindBits

// propRuns is the packed store of one element kind (vertices or edges).
type propRuns struct {
	n   int      // packed elements: the graph's watermark for the kind
	off []uint32 // n+1 run bounds; nil while every packed run is empty
	key []uint32 // per entry: key id << kindBits | kind
	val []uint64 // per entry: the value slot
}

// run returns the entry range of element i (empty past the store).
func (r *propRuns) run(i int) (a, b uint32) {
	if r.off == nil || i >= r.n {
		return 0, 0
	}
	return r.off[i], r.off[i+1]
}

// view returns the store's first n elements as a capped prefix.
func (r *propRuns) view() propRuns {
	v := propRuns{n: r.n}
	if r.off != nil {
		end := r.off[r.n]
		v.off = r.off[: r.n+1 : r.n+1]
		v.key = r.key[:end:end]
		v.val = r.val[:end:end]
	}
	return v
}

// propStore is a lineage's packed properties.
type propStore struct {
	names []string // key id → key name
	arena []byte   // string values
	v, e  propRuns
}

// view returns an immutable snapshot of the store: capped prefixes only.
func (s *propStore) view() propStore {
	return propStore{
		names: s.names[:len(s.names):len(s.names)],
		arena: s.arena[:len(s.arena):len(s.arena)],
		v:     s.v.view(),
		e:     s.e.view(),
	}
}

// value decodes entry j of r.
func (s *propStore) value(r *propRuns, j uint32) Value {
	slot := r.val[j]
	switch k := valueKind(r.key[j] & (1<<kindBits - 1)); k {
	case kindString:
		return Value{kind: kindString, s: s.str(slot)}
	case kindInt, kindBool:
		return Value{kind: k, i: int64(slot)}
	case kindFloat:
		return Value{kind: kindFloat, f: math.Float64frombits(slot)}
	}
	return Value{}
}

// str returns the arena string at off without copying it.
func (s *propStore) str(off uint64) string {
	n, w := binary.Uvarint(s.arena[off:])
	if n == 0 {
		return ""
	}
	b := s.arena[off+uint64(w) : off+uint64(w)+n]
	return unsafe.String(&b[0], len(b))
}

// name returns the key name of entry j of r.
func (s *propStore) name(r *propRuns, j uint32) string { return s.names[r.key[j]>>kindBits] }

// get looks key up in element i's run.
func (s *propStore) get(r *propRuns, i int, key string) Value {
	a, b := r.run(i)
	for j := a; j < b; j++ {
		if s.name(r, j) == key {
			return s.value(r, j)
		}
	}
	return Value{}
}

// packer appends a live graph's unfrozen properties to its store. ids maps
// a key name to its id in the store's names; only the writer, which
// freezes, reads it.
type packer struct {
	ids  map[string]uint32
	keys []string // scratch: one run's sorted keys
}

// pack appends to r the runs of tail (the maps of elements r.n, r.n+1, ...)
// and nEmpty empty runs after them, growing each slice once; the caller
// has grown the arena for tail's strings.
func (pk *packer) pack(s *propStore, r *propRuns, tail []Props, nEmpty int) {
	entries := 0
	for _, p := range tail {
		entries += len(p)
	}
	s.reserve(r, len(tail)+nEmpty, entries)
	for i := range len(tail) + nEmpty {
		if i < len(tail) && len(tail[i]) > 0 {
			pk.keys = pk.keys[:0]
			for k := range tail[i] {
				pk.keys = append(pk.keys, k)
			}
			slices.Sort(pk.keys)
			for _, k := range pk.keys {
				pk.add(s, r, k, tail[i][k])
			}
		}
		r.n++
		if r.off != nil {
			r.off = append(r.off, uint32(len(r.key)))
		}
	}
	clear(pk.keys)
}

// reserve grows r's slices once for nRuns more runs holding entries
// entries.
func (s *propStore) reserve(r *propRuns, nRuns, entries int) {
	if entries > 0 && r.off == nil {
		r.off = make([]uint32, r.n+1, r.n+1+nRuns)
	}
	if r.off != nil {
		r.off = slices.Grow(r.off, nRuns)
		r.key = slices.Grow(r.key, entries)
		r.val = slices.Grow(r.val, entries)
	}
	if uint64(len(r.key))+uint64(entries) > math.MaxUint32 {
		panic("graph: packed property store overflow")
	}
}

// strBytes returns the arena bytes the strings of tail take.
func strBytes(tail []Props) int {
	n := 0
	for _, p := range tail {
		for _, v := range p {
			if v.kind == kindString {
				n += uvarintLen(uint64(len(v.s))) + len(v.s)
			}
		}
	}
	return n
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// intern returns key's id in s's name table, adding it on first use.
func (pk *packer) intern(s *propStore, key string) uint32 {
	id, ok := pk.ids[key]
	if !ok {
		if len(s.names) > maxKeyID {
			panic("graph: property key table overflow")
		}
		id = uint32(len(s.names))
		s.names = append(s.names, key)
		pk.ids[key] = id
	}
	return id
}

// add appends one entry to the run being packed.
func (pk *packer) add(s *propStore, r *propRuns, key string, v Value) {
	var slot uint64
	switch v.kind {
	case kindString:
		slot = uint64(len(s.arena))
		s.arena = binary.AppendUvarint(s.arena, uint64(len(v.s)))
		s.arena = append(s.arena, v.s...)
	case kindInt, kindBool:
		slot = uint64(v.i)
	case kindFloat:
		slot = math.Float64bits(v.f)
	}
	r.key = append(r.key, pk.intern(s, key)<<kindBits|uint32(v.kind))
	r.val = append(r.val, slot)
}

// extend appends to r the runs of src, which were packed over another key
// table and arena: ids maps src's key ids to s's, and src's strings sit at
// offset at of s's arena.
func (s *propStore) extend(r *propRuns, src *propRuns, ids []uint32, at uint64) {
	s.reserve(r, src.n, len(src.key))
	base := uint32(len(r.key))
	for j, k := range src.key {
		kind, slot := k&(1<<kindBits-1), src.val[j]
		if valueKind(kind) == kindString {
			slot += at
		}
		r.key = append(r.key, ids[k>>kindBits]<<kindBits|kind)
		r.val = append(r.val, slot)
	}
	for i := 1; r.off != nil && i <= src.n; i++ {
		end := base
		if src.off != nil {
			end += src.off[i]
		}
		r.off = append(r.off, end)
	}
	r.n += src.n
}

// packTail moves the live graph's unfrozen properties below (nv, ne) into
// the packed store and drops their maps: after a freeze no map is held for
// a frozen element.
func (g *Graph) packTail(nv, ne int) {
	if g.packer.ids == nil {
		g.packer.ids = make(map[string]uint32)
	}
	pv, pe := g.props.v.n, g.props.e.n
	g.props.arena = slices.Grow(g.props.arena, strBytes(g.vTail)+strBytes(g.eTail))
	g.packer.pack(&g.props, &g.props.v, g.vTail, nv-pv-len(g.vTail))
	g.packer.pack(&g.props, &g.props.e, g.eTail, ne-pe-len(g.eTail))
	g.vTail, g.eTail = nil, nil
}

// UnpackProps makes vertex v writable when it lies below the watermark: it
// moves the packed properties back into per-element maps in fresh storage
// and lowers the watermark to 0, so SetVertexProp and SetEdgeProp
// accept every element again, in O(properties), and reports true. Below no
// watermark it does nothing and reports false. Every snapshot taken so far
// keeps its own packed prefix and sees no change. Only the library facade
// calls it, never a writer whose snapshots serve readers.
func (g *Graph) UnpackProps(v VertexID) bool {
	g.mustBeLive()
	if int(v) >= g.props.v.n {
		return false
	}
	g.vTail, g.eTail = g.unpacked(true, g.vTail), g.unpacked(false, g.eTail)
	g.props, g.packer = propStore{}, packer{}
	return true
}

// unpacked returns one kind's packed runs as maps, followed by tail.
func (g *Graph) unpacked(vertex bool, tail []Props) []Props {
	r, _ := g.propRuns(vertex)
	out := make([]Props, r.n, r.n+len(tail))
	for i := range out {
		g.eachProp(vertex, i, func(key string, val Value) bool {
			if out[i] == nil {
				out[i] = make(Props, g.propCount(vertex, i))
			}
			out[i][key] = val
			return true
		})
	}
	return append(out, tail...)
}

// propRuns returns the packed runs and the unfrozen tail of one element kind.
func (g *Graph) propRuns(vertex bool) (*propRuns, []Props) {
	if vertex {
		return &g.props.v, g.vTail
	}
	return &g.props.e, g.eTail
}

// prop looks key up on element i of one kind.
func (g *Graph) prop(vertex bool, i int, key string) Value {
	r, tail := g.propRuns(vertex)
	if i < r.n {
		return g.props.get(r, i, key)
	}
	if t := i - r.n; t < len(tail) && tail[t] != nil {
		return tail[t][key]
	}
	return Value{}
}

// tailMap returns element i's slot in the unfrozen tail of one kind,
// growing the tail to it; i must lie past the watermark.
func (g *Graph) tailMap(vertex bool, i int) *Props {
	tail := &g.vTail
	t := i - g.props.v.n
	if !vertex {
		tail, t = &g.eTail, i-g.props.e.n
	}
	if t >= len(*tail) {
		*tail = append(*tail, make([]Props, t+1-len(*tail))...)
	}
	return &(*tail)[t]
}

// propCount returns the number of properties of element i of one kind.
func (g *Graph) propCount(vertex bool, i int) int {
	r, tail := g.propRuns(vertex)
	if i < r.n {
		a, b := r.run(i)
		return int(b - a)
	}
	if t := i - r.n; t < len(tail) {
		return len(tail[t])
	}
	return 0
}

// eachProp calls yield on element i's properties in ascending key order
// until it returns false.
func (g *Graph) eachProp(vertex bool, i int, yield func(string, Value) bool) {
	r, tail := g.propRuns(vertex)
	if i < r.n {
		a, b := r.run(i)
		for j := a; j < b; j++ {
			if !yield(g.props.name(r, j), g.props.value(r, j)) {
				return
			}
		}
		return
	}
	t := i - r.n
	if t >= len(tail) || len(tail[t]) == 0 {
		return
	}
	p := tail[t]
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !yield(k, p[k]) {
			return
		}
	}
}

// SetVertexProp sets a property on a vertex. The vertex must lie past the
// watermark: a freeze (see Freeze), a Load or an ApplyDelta packs the
// properties below it for good, so only vertices appended since are
// writable.
func (g *Graph) SetVertexProp(v VertexID, key string, val Value) {
	g.mustBeLive()
	if int(v) < g.props.v.n {
		panic(fmt.Sprintf("graph: SetVertexProp(%d) below the packed watermark %d", v, g.props.v.n))
	}
	if int(v) >= len(g.vLabel) {
		panic(fmt.Sprintf("graph: SetVertexProp(%d) out of range (n=%d)", v, len(g.vLabel)))
	}
	p := g.tailMap(true, int(v))
	if *p == nil {
		*p = make(Props, 2)
	}
	(*p)[key] = val
}

// VertexProp returns the value of a vertex property (zero Value if absent).
// It allocates nothing.
func (g *Graph) VertexProp(v VertexID, key string) Value { return g.prop(true, int(v), key) }

// VertexProps calls fn on v's properties in ascending key order until fn
// returns false. It is for cold readers (export, serialization): a hot path
// reads one key by VertexProp.
func (g *Graph) VertexProps(v VertexID, fn func(key string, val Value) bool) {
	g.eachProp(true, int(v), fn)
}

// SetEdgeProp sets a property on an edge. Like SetVertexProp, the edge
// must lie past the watermark.
func (g *Graph) SetEdgeProp(e EdgeID, key string, val Value) {
	g.mustBeLive()
	if int(e) < g.props.e.n {
		panic(fmt.Sprintf("graph: SetEdgeProp(%d) below the packed watermark %d", e, g.props.e.n))
	}
	if int(e) >= len(g.eLabel) {
		panic(fmt.Sprintf("graph: SetEdgeProp(%d) out of range (n=%d)", e, len(g.eLabel)))
	}
	p := g.tailMap(false, int(e))
	if *p == nil {
		*p = make(Props, 1)
	}
	(*p)[key] = val
}

// EdgeProp returns the value of an edge property (zero Value if absent). It
// allocates nothing.
func (g *Graph) EdgeProp(e EdgeID, key string) Value { return g.prop(false, int(e), key) }

// EdgeProps calls fn on e's properties in ascending key order until fn
// returns false (see VertexProps).
func (g *Graph) EdgeProps(e EdgeID, fn func(key string, val Value) bool) {
	g.eachProp(false, int(e), fn)
}
