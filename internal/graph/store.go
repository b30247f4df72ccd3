package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Binary serialization of a property graph. The format is a simple
// length-prefixed layout:
//
//	magic "PGS1" | dictionary | vertex labels | edges | vertex props | edge props
//
// All integers are unsigned varints; strings are length-prefixed.

var storeMagic = [4]byte{'P', 'G', 'S', '1'}

// ErrBadFormat is returned when deserialization encounters malformed input.
var ErrBadFormat = errors.New("graph: bad serialized graph format")

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

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
	}
	return x
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > 1<<28 {
		r.err = ErrBadFormat
		return ""
	}
	// Copy incrementally rather than make([]byte, n) up front: n is
	// attacker-controlled in untrusted files, and a hostile length must
	// fail at EOF without first committing a quarter-gigabyte allocation.
	var sb strings.Builder
	if _, err := io.CopyN(&sb, r.r, int64(n)); err != nil {
		r.err = err
		return ""
	}
	return sb.String()
}

func writeValue(w *writer, v Value) {
	w.uvarint(uint64(v.kind))
	switch v.kind {
	case kindString:
		w.str(v.s)
	case kindInt, kindBool:
		w.uvarint(uint64(v.i))
	case kindFloat:
		w.uvarint(math.Float64bits(v.f))
	}
}

func readValue(r *reader) Value {
	k := valueKind(r.uvarint())
	switch k {
	case kindNone:
		return Value{}
	case kindString:
		return Value{kind: kindString, s: r.str()}
	case kindInt:
		return Value{kind: kindInt, i: int64(r.uvarint())}
	case kindBool:
		return Value{kind: kindBool, i: int64(r.uvarint())}
	case kindFloat:
		return Value{kind: kindFloat, f: math.Float64frombits(r.uvarint())}
	}
	r.err = ErrBadFormat
	return Value{}
}

// writeProps writes the properties of the elements of one kind from index
// from on: a count of elements with any, then each one's index, count and
// entries in ascending key order.
func writeProps(w *writer, g *Graph, vertex bool, from int) {
	n := g.NumEdges()
	if vertex {
		n = g.NumVertices()
	}
	nonNil := 0
	for i := from; i < n; i++ {
		if g.propCount(vertex, i) > 0 {
			nonNil++
		}
	}
	w.uvarint(uint64(nonNil))
	entry := func(k string, v Value) bool {
		w.str(k)
		writeValue(w, v)
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

func readProps(r *reader, all []Props) {
	n := r.uvarint()
	for j := uint64(0); j < n && r.err == nil; j++ {
		i := r.uvarint()
		if i >= uint64(len(all)) {
			r.err = ErrBadFormat
			return
		}
		cnt := r.uvarint()
		if cnt > 1<<24 {
			r.err = ErrBadFormat
			return
		}
		// Cap the preallocation hint: cnt is attacker-controlled, and a
		// hostile count must hit EOF before the map grows, not pre-commit
		// a 16M-bucket allocation.
		hint := cnt
		if hint > 1024 {
			hint = 1024
		}
		p := make(Props, hint)
		for c := uint64(0); c < cnt && r.err == nil; c++ {
			k := r.str()
			p[k] = readValue(r)
		}
		all[i] = p
	}
}

// Save writes the graph to w in the binary PGS1 format.
func (g *Graph) Save(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	if _, err := w.w.Write(storeMagic[:]); err != nil {
		return err
	}
	// Dictionary (skip the reserved empty entry).
	w.uvarint(uint64(len(g.dict.names) - 1))
	for _, name := range g.dict.names[1:] {
		w.str(name)
	}
	// Vertices.
	w.uvarint(uint64(len(g.vLabel)))
	for _, l := range g.vLabel {
		w.uvarint(uint64(l))
	}
	// Edges.
	w.uvarint(uint64(len(g.eLabel)))
	for i := range g.eLabel {
		w.uvarint(uint64(g.eSrc[i]))
		w.uvarint(uint64(g.eDst[i]))
		w.uvarint(uint64(g.eLabel[i]))
	}
	writeProps(w, g, true, 0)
	writeProps(w, g, false, 0)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// badFormat wraps an underlying decode error so that every malformed-input
// failure — including truncation surfacing as io.EOF / io.ErrUnexpectedEOF —
// satisfies errors.Is(err, ErrBadFormat). Servers load untrusted .pg files
// and dispatch on that sentinel.
func badFormat(err error) error {
	if err == nil || errors.Is(err, ErrBadFormat) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadFormat, err)
}

// Load reads a graph previously written by Save. Any malformed input —
// truncated stream, bad magic, corrupt varints, out-of-range references —
// returns an error wrapping ErrBadFormat; Load never panics on bad bytes.
func Load(in io.Reader) (*Graph, error) {
	r := &reader{r: bufio.NewReader(in)}
	var magic [4]byte
	if _, err := io.ReadFull(r.r, magic[:]); err != nil {
		return nil, badFormat(err)
	}
	if magic != storeMagic {
		return nil, ErrBadFormat
	}
	g := New()
	nLabels := r.uvarint()
	if nLabels >= 1<<16 {
		return nil, ErrBadFormat
	}
	for i := uint64(0); i < nLabels && r.err == nil; i++ {
		g.dict.Intern(r.str())
	}
	nv := r.uvarint()
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	if nv > 1<<31 {
		return nil, ErrBadFormat
	}
	for i := uint64(0); i < nv && r.err == nil; i++ {
		l := r.uvarint()
		if l >= uint64(g.dict.Len()) {
			return nil, ErrBadFormat
		}
		g.AddVertex(Label(l))
	}
	ne := r.uvarint()
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	if ne > 1<<31 {
		return nil, ErrBadFormat
	}
	for i := uint64(0); i < ne && r.err == nil; i++ {
		src := r.uvarint()
		dst := r.uvarint()
		l := r.uvarint()
		if src >= nv || dst >= nv || l >= uint64(g.dict.Len()) {
			return nil, ErrBadFormat
		}
		g.AddEdge(VertexID(src), VertexID(dst), Label(l))
	}
	g.vTail, g.eTail = make([]Props, g.NumVertices()), make([]Props, g.NumEdges())
	readProps(r, g.vTail)
	readProps(r, g.eTail)
	if r.err != nil {
		return nil, fmt.Errorf("graph: load: %w", badFormat(r.err))
	}
	return g, nil
}
