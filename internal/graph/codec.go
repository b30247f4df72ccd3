package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary serialization of a property graph. One layout, the suffix of a
// graph past a base (its dictionary length and vertex and edge counts),
// carries both formats:
//
//	PGS1 (Save, Load):              magic "PGS1" | suffix past the empty graph
//	PGD1 (EncodeDelta, ApplyDelta): magic "PGD1" | baseDict baseV baseE | suffix
//
//	suffix: new dictionary names | new vertex labels | new edges (src dst
//	        label) | new-vertex properties | new-edge properties
//
// All integers are unsigned varints; strings are length-prefixed. A
// property section is the number of elements with any property, then for
// each, in ascending order, its index past the base, its entry count and
// its entries in ascending key order: key, value kind, payload.
//
// A PGD1 delta is what one committed ingest batch adds, and is the payload
// the write-ahead log records per epoch. Properties of pre-base elements
// cannot change once they are packed (SetVertexProp enforces the
// watermark), so a delta over new elements captures the batch exactly.
// One reader decodes either format, packing properties as it reads them.

var (
	storeMagic = [4]byte{'P', 'G', 'S', '1'}
	deltaMagic = [4]byte{'P', 'G', 'D', '1'}
)

// ErrBadFormat is returned when deserialization encounters malformed input.
var ErrBadFormat = errors.New("graph: bad serialized graph format")

// ErrDeltaBase is returned by ApplyDelta when a structurally valid delta
// does not apply to the receiving graph's current state (its recorded base
// watermark or dictionary size disagrees). WAL recovery dispatches on it:
// an out-of-sequence record is corruption, not a torn tail.
var ErrDeltaBase = errors.New("graph: delta base mismatch")

const (
	maxDict   = 1 << 16 // dictionary entries, the reserved empty one included
	maxElems  = 1 << 31 // vertices, and edges
	maxStrLen = 1 << 28 // bytes of one string
	// readChunk bounds how far a string read grows its buffer past the
	// bytes that have arrived: a hostile length must fail at EOF first.
	readChunk = 64 << 10
)

type writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *writer) uvarint(x uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], x)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// suffix writes everything g holds past the base (d, v, e).
func (w *writer) suffix(g *Graph, d, v, e int) {
	w.uvarint(uint64(g.dict.Len() - d))
	for _, name := range g.dict.names[d:] {
		w.str(name)
	}
	w.uvarint(uint64(g.NumVertices() - v))
	for _, l := range g.vLabel[v:] {
		w.uvarint(uint64(l))
	}
	w.uvarint(uint64(g.NumEdges() - e))
	for i := e; i < g.NumEdges(); i++ {
		w.uvarint(uint64(g.eSrc[i]))
		w.uvarint(uint64(g.eDst[i]))
		w.uvarint(uint64(g.eLabel[i]))
	}
	w.props(g, true, v)
	w.props(g, false, e)
}

// props writes the property section of one element kind from index from
// on.
func (w *writer) props(g *Graph, vertex bool, from int) {
	n := g.NumEdges()
	if vertex {
		n = g.NumVertices()
	}
	nonEmpty := 0
	for i := from; i < n; i++ {
		if g.propCount(vertex, i) > 0 {
			nonEmpty++
		}
	}
	w.uvarint(uint64(nonEmpty))
	entry := func(k string, v Value) bool {
		w.str(k)
		w.uvarint(uint64(v.kind))
		switch v.kind {
		case kindString:
			w.str(v.s)
		case kindInt, kindBool:
			w.uvarint(uint64(v.i))
		case kindFloat:
			w.uvarint(math.Float64bits(v.f))
		}
		return true
	}
	for i := from; i < n; i++ {
		cnt := g.propCount(vertex, i)
		if cnt == 0 {
			continue
		}
		w.uvarint(uint64(i - from))
		w.uvarint(uint64(cnt))
		g.eachProp(vertex, i, entry)
	}
}

// encode writes magic, the base triple (PGD1 only) and g's suffix past the
// base (d, v, e).
func (g *Graph) encode(out io.Writer, magic [4]byte, d, v, e int) error {
	w := &writer{w: bufio.NewWriter(out)}
	_, w.err = w.w.Write(magic[:])
	if magic == deltaMagic {
		w.uvarint(uint64(d))
		w.uvarint(uint64(v))
		w.uvarint(uint64(e))
	}
	w.suffix(g, d, v, e)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// Save writes the graph to w in the binary PGS1 format.
func (g *Graph) Save(out io.Writer) error { return g.encode(out, storeMagic, 1, 0, 0) }

// EncodeDelta writes everything this graph appended past the base watermark
// (baseDict interned labels, baseV vertices, baseE edges). The base must be
// a consistent earlier state of this graph, normally the previous epoch
// snapshot's dictionary length and vertex/edge counts.
func (g *Graph) EncodeDelta(out io.Writer, baseDict, baseV, baseE int) error {
	if baseDict < 1 || baseDict > g.dict.Len() || baseV < 0 || baseV > g.NumVertices() ||
		baseE < 0 || baseE > g.NumEdges() {
		return fmt.Errorf("graph: EncodeDelta base (%d,%d,%d) out of range", baseDict, baseV, baseE)
	}
	return g.encode(out, deltaMagic, baseDict, baseV, baseE)
}

type reader struct {
	r   *bufio.Reader
	err error
	buf []byte // scratch: the last name or key read
}

// fail records malformed input, keeping the first error.
func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrBadFormat
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(r.r)
	r.err = err
	return x
}

// below reads an integer and refuses one at or past n.
func (r *reader) below(n uint64) int {
	x := r.uvarint()
	if x >= n {
		r.fail()
		return 0
	}
	return int(x)
}

// read appends the next n bytes of input to dst, growing it at most
// readChunk bytes ahead of what has arrived.
func (r *reader) read(dst []byte, n int) []byte {
	for n > 0 && r.err == nil {
		c, m := min(n, readChunk), len(dst)
		if cap(dst)-m < c {
			dst = slices.Grow(dst, max(c, m))
		}
		dst = dst[:m+c]
		_, r.err = io.ReadFull(r.r, dst[m:])
		n -= c
	}
	return dst
}

// more returns s with room for one more element, doubling its capacity
// when full: it grows with the input, not with a count the input claims,
// and allocates twice its final size, not five times as append does.
func more[T any](s []T) []T {
	if len(s) == cap(s) {
		return slices.Grow(s, max(len(s), 64))
	}
	return s
}

// str reads a string into the scratch buffer; the bytes are valid until
// the next call.
func (r *reader) str() []byte {
	r.buf = r.read(r.buf[:0], r.below(maxStrLen+1))
	return r.buf
}

// suffix is a decoded and validated suffix awaiting its apply step: the
// base it extends, the new names, labels and edges, and the new elements'
// properties, already packed: props is a propStore over a key table and
// string arena of the suffix's own, whose runs count from the base.
type suffix struct {
	baseDict, baseV, baseE int
	names                  []string
	vLabel, eLabel         []Label
	eSrc, eDst             []VertexID
	props                  propStore
}

// decode reads a whole stream in the format magic names. Malformed input
// (truncation, corrupt varints, out-of-range references, an empty or
// repeated name, property runs out of order, trailing bytes) returns an
// error wrapping ErrBadFormat, never a panic.
func decode(in io.Reader, magic [4]byte) (*suffix, error) {
	r := &reader{r: bufio.NewReader(in)}
	var m [4]byte
	if _, err := io.ReadFull(r.r, m[:]); err != nil {
		return nil, badFormat(err)
	}
	if m != magic {
		return nil, ErrBadFormat
	}
	s := &suffix{baseDict: 1}
	if magic == deltaMagic {
		s.baseDict = r.below(maxDict)
		s.baseV = r.below(maxElems + 1)
		s.baseE = r.below(maxElems + 1)
		if s.baseDict < 1 {
			r.fail()
		}
	}
	r.suffix(s)
	if r.err == nil {
		if _, err := r.r.ReadByte(); err != io.EOF {
			r.fail()
		}
	}
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	return s, nil
}

// badFormat wraps a decode error, truncation's io.EOF included, so that it
// satisfies errors.Is(err, ErrBadFormat): servers dispatch on the sentinel.
func badFormat(err error) error {
	if errors.Is(err, ErrBadFormat) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadFormat, err)
}

func (r *reader) suffix(s *suffix) {
	n := r.below(maxDict - uint64(s.baseDict) + 1)
	seen := make(map[string]bool)
	for i := 0; i < n && r.err == nil; i++ {
		b := r.str()
		if r.err == nil && (len(b) == 0 || seen[string(b)]) {
			r.fail()
		}
		name := string(b)
		seen[name] = true
		s.names = append(s.names, name)
	}
	dictLen := uint64(s.baseDict + len(s.names))
	nv := r.below(maxElems - uint64(s.baseV) + 1)
	for i := 0; i < nv && r.err == nil; i++ {
		s.vLabel = append(more(s.vLabel), Label(r.below(dictLen)))
	}
	numV := uint64(s.baseV + nv)
	ne := r.below(maxElems - uint64(s.baseE) + 1)
	for i := 0; i < ne && r.err == nil; i++ {
		s.eSrc = append(more(s.eSrc), VertexID(r.below(numV)))
		s.eDst = append(more(s.eDst), VertexID(r.below(numV)))
		s.eLabel = append(more(s.eLabel), Label(r.below(dictLen)))
	}
	ids := make(map[string]uint32)
	r.props(&s.props, &s.props.v, nv, ids)
	r.props(&s.props, &s.props.e, ne, ids)
}

// props reads the property section of n elements into runs over st's key
// table (ids maps a key to its id there) and arena. Element indices must
// ascend, and so must a run's keys, which rules out a repeated key: every
// writer emits them so, and packing needs them so.
func (r *reader) props(st *propStore, pr *propRuns, n int, ids map[string]uint32) {
	pr.n = n
	count := r.below(uint64(n) + 1)
	if count > 0 {
		pr.off = make([]uint32, 1, n+1)
	}
	for j := 0; j < count && r.err == nil; j++ {
		i := r.below(uint64(n))
		if i < len(pr.off)-1 {
			r.fail()
		}
		for len(pr.off) <= i {
			pr.off = append(pr.off, uint32(len(pr.key)))
		}
		cnt := r.uvarint()
		if uint64(len(pr.key))+cnt > math.MaxUint32 {
			r.fail()
		}
		for c := uint64(0); c < cnt && r.err == nil; c++ {
			key := r.str()
			id, ok := ids[string(key)]
			if !ok {
				id = uint32(len(st.names))
				st.names = append(st.names, string(key))
				ids[st.names[id]] = id
			}
			if id > maxKeyID || c > 0 && st.names[id] <= st.names[pr.key[len(pr.key)-1]>>kindBits] {
				r.fail()
			}
			kind := valueKind(r.below(uint64(kindBool) + 1))
			var slot uint64
			switch kind {
			case kindString:
				n := r.below(maxStrLen + 1)
				slot = uint64(len(st.arena))
				st.arena = binary.AppendUvarint(st.arena, uint64(n))
				st.arena = r.read(st.arena, n)
			case kindInt, kindFloat, kindBool:
				slot = r.uvarint()
			}
			pr.key = append(more(pr.key), id<<kindBits|uint32(kind))
			pr.val = append(more(pr.val), slot)
		}
		pr.off = append(pr.off, uint32(len(pr.key)))
	}
	for r.err == nil && pr.off != nil && len(pr.off) <= n {
		pr.off = append(pr.off, uint32(len(pr.key)))
	}
}

// apply appends a decoded suffix to g, whose state is its base, and packs
// every property of g: the unfrozen tail, as a freeze would, then the
// suffix's runs as read. It cannot fail: a checked apply is all or nothing.
func (g *Graph) apply(s *suffix) {
	for _, name := range s.names {
		g.dict.Intern(name)
	}
	g.vLabel = append(g.vLabel, s.vLabel...)
	for i, l := range s.vLabel {
		g.byLabel[l] = append(g.byLabel[l], VertexID(s.baseV+i))
	}
	g.eLabel = append(g.eLabel, s.eLabel...)
	g.eSrc = append(g.eSrc, s.eSrc...)
	g.eDst = append(g.eDst, s.eDst...)
	g.packTail(s.baseV, s.baseE)
	ids := make([]uint32, len(s.props.names))
	for i, key := range s.props.names {
		ids[i] = g.packer.intern(&g.props, key)
	}
	at := uint64(len(g.props.arena))
	g.props.arena = append(slices.Grow(g.props.arena, len(s.props.arena)), s.props.arena...)
	g.props.extend(&g.props.v, &s.props.v, ids, at)
	g.props.extend(&g.props.e, &s.props.e, ids, at)
}

// Load reads a graph previously written by Save. Malformed input returns an
// error wrapping ErrBadFormat (see decode), never a panic. The graph holds
// its properties packed, like a frozen one: SetVertexProp and SetEdgeProp
// accept only elements appended after the load.
func Load(in io.Reader) (*Graph, error) {
	s, err := decode(in, storeMagic)
	if err != nil {
		return nil, err
	}
	g := New()
	g.apply(s)
	return g, nil
}

// ApplyDelta decodes a delta written by EncodeDelta and appends it to this
// live graph. The decode is all-or-nothing: the graph is only mutated after
// the whole delta parses and its base watermark matches the graph's current
// state (otherwise ErrDeltaBase). Malformed bytes return an error wrapping
// ErrBadFormat and never panic, and never mutate the graph. Afterwards
// every property of the graph is packed, as after a freeze.
func (g *Graph) ApplyDelta(in io.Reader) error {
	g.mustBeLive()
	s, err := decode(in, deltaMagic)
	if err != nil {
		return err
	}
	if s.baseDict != g.dict.Len() || s.baseV != g.NumVertices() || s.baseE != g.NumEdges() {
		return fmt.Errorf("%w: delta base (%d,%d,%d) vs graph (%d,%d,%d)", ErrDeltaBase,
			s.baseDict, s.baseV, s.baseE, g.dict.Len(), g.NumVertices(), g.NumEdges())
	}
	// Names past the base are new by construction on the encoding side; a
	// delta re-interning an existing name would silently shift every label
	// id after it, so reject it as corrupt — before mutating anything, to
	// keep the apply all-or-nothing.
	for _, name := range s.names {
		if _, ok := g.dict.Lookup(name); ok {
			return fmt.Errorf("%w: delta re-interns existing label %q", ErrBadFormat, name)
		}
	}
	g.apply(s)
	return nil
}
