package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Delta serialization: the append-only suffix of a graph past a base
// watermark, in the same varint conventions as the full PGS1 format
// (store.go). A delta is what one committed ingest batch adds — new
// dictionary entries, vertices, edges, and the properties set on those new
// elements — and is the payload the write-ahead log records per epoch:
//
//	magic "PGD1" | baseDict baseV baseE | new dict names |
//	new vertex labels | new edges | new-vertex props | new-edge props
//
// Property maps on pre-base elements cannot change once a snapshot covers
// them (SetVertexProp enforces the watermark), so a delta over new elements
// captures the batch exactly.

var deltaMagic = [4]byte{'P', 'G', 'D', '1'}

// ErrDeltaBase is returned by ApplyDelta when a structurally valid delta
// does not apply to the receiving graph's current state (its recorded base
// watermark or dictionary size disagrees). WAL recovery dispatches on it:
// an out-of-sequence record is corruption, not a torn tail.
var ErrDeltaBase = errors.New("graph: delta base mismatch")

// EncodeDelta writes everything this graph appended past the base watermark
// (baseDict interned labels, baseV vertices, baseE edges). The base must be
// a consistent earlier state of this graph, normally the previous epoch
// snapshot's dictionary length and vertex/edge counts.
func (g *Graph) EncodeDelta(out io.Writer, baseDict, baseV, baseE int) error {
	if baseDict < 1 || baseDict > g.dict.Len() || baseV < 0 || baseV > g.NumVertices() ||
		baseE < 0 || baseE > g.NumEdges() {
		return fmt.Errorf("graph: EncodeDelta base (%d,%d,%d) out of range", baseDict, baseV, baseE)
	}
	w := &writer{w: bufio.NewWriter(out)}
	if _, err := w.w.Write(deltaMagic[:]); err != nil {
		return err
	}
	w.uvarint(uint64(baseDict))
	w.uvarint(uint64(baseV))
	w.uvarint(uint64(baseE))
	w.uvarint(uint64(g.dict.Len() - baseDict))
	for _, name := range g.dict.names[baseDict:] {
		w.str(name)
	}
	w.uvarint(uint64(g.NumVertices() - baseV))
	for _, l := range g.vLabel[baseV:] {
		w.uvarint(uint64(l))
	}
	w.uvarint(uint64(g.NumEdges() - baseE))
	for e := baseE; e < g.NumEdges(); e++ {
		w.uvarint(uint64(g.eSrc[e]))
		w.uvarint(uint64(g.eDst[e]))
		w.uvarint(uint64(g.eLabel[e]))
	}
	writeProps(w, g, true, baseV)
	writeProps(w, g, false, baseE)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// delta is a decoded, validated-in-isolation delta awaiting application.
type delta struct {
	baseDict, baseV, baseE uint64
	names                  []string
	vLabels                []Label
	eSrc, eDst             []VertexID
	eLabels                []Label
	vProps, eProps         []Props
}

// decodeDelta parses and structurally validates a delta. Like Load, any
// malformed input returns an error wrapping ErrBadFormat and never panics;
// cross-checks against a live graph happen in ApplyDelta.
func decodeDelta(in io.Reader) (*delta, error) {
	r := &reader{r: bufio.NewReader(in)}
	var magic [4]byte
	if _, err := io.ReadFull(r.r, magic[:]); err != nil {
		return nil, badFormat(err)
	}
	if magic != deltaMagic {
		return nil, ErrBadFormat
	}
	d := &delta{
		baseDict: r.uvarint(),
		baseV:    r.uvarint(),
		baseE:    r.uvarint(),
	}
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	if d.baseDict < 1 || d.baseDict >= 1<<16 || d.baseV > 1<<31 || d.baseE > 1<<31 {
		return nil, ErrBadFormat
	}
	nLabels := r.uvarint()
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	if d.baseDict+nLabels >= 1<<16 {
		return nil, ErrBadFormat
	}
	for i := uint64(0); i < nLabels && r.err == nil; i++ {
		d.names = append(d.names, r.str())
	}
	dictLen := d.baseDict + nLabels
	nv := r.uvarint()
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	if d.baseV+nv > 1<<31 {
		return nil, ErrBadFormat
	}
	for i := uint64(0); i < nv && r.err == nil; i++ {
		l := r.uvarint()
		if l >= dictLen {
			return nil, ErrBadFormat
		}
		d.vLabels = append(d.vLabels, Label(l))
	}
	ne := r.uvarint()
	if r.err != nil {
		return nil, badFormat(r.err)
	}
	if d.baseE+ne > 1<<31 {
		return nil, ErrBadFormat
	}
	numV := d.baseV + nv
	for i := uint64(0); i < ne && r.err == nil; i++ {
		src := r.uvarint()
		dst := r.uvarint()
		l := r.uvarint()
		if src >= numV || dst >= numV || l >= dictLen {
			return nil, ErrBadFormat
		}
		d.eSrc = append(d.eSrc, VertexID(src))
		d.eDst = append(d.eDst, VertexID(dst))
		d.eLabels = append(d.eLabels, Label(l))
	}
	d.vProps = make([]Props, nv)
	d.eProps = make([]Props, ne)
	readProps(r, d.vProps)
	readProps(r, d.eProps)
	if r.err != nil {
		return nil, fmt.Errorf("graph: delta: %w", badFormat(r.err))
	}
	// A delta must be exactly one record: trailing bytes mean the framing
	// above it is confused, not that the payload has a harmless suffix.
	if _, err := r.r.ReadByte(); err != io.EOF {
		return nil, ErrBadFormat
	}
	return d, nil
}

// ApplyDelta decodes a delta written by EncodeDelta and appends it to this
// live graph. The decode is all-or-nothing: the graph is only mutated after
// the whole delta parses and its base watermark matches the graph's current
// state (otherwise ErrDeltaBase). Malformed bytes return an error wrapping
// ErrBadFormat and never panic, and never mutate the graph.
func (g *Graph) ApplyDelta(in io.Reader) error {
	g.mustBeLive()
	d, err := decodeDelta(in)
	if err != nil {
		return err
	}
	if int(d.baseDict) != g.dict.Len() || int(d.baseV) != g.NumVertices() || int(d.baseE) != g.NumEdges() {
		return fmt.Errorf("%w: delta base (%d,%d,%d) vs graph (%d,%d,%d)", ErrDeltaBase,
			d.baseDict, d.baseV, d.baseE, g.dict.Len(), g.NumVertices(), g.NumEdges())
	}
	// Names past the base are new by construction on the encoding side; a
	// delta re-interning an existing name would silently shift every label
	// id after it, so reject it as corrupt — before mutating anything, to
	// keep the apply all-or-nothing.
	seen := make(map[string]bool, len(d.names))
	for _, name := range d.names {
		if _, ok := g.dict.Lookup(name); ok || seen[name] {
			return fmt.Errorf("%w: delta re-interns existing label %q", ErrBadFormat, name)
		}
		seen[name] = true
	}
	for _, name := range d.names {
		g.dict.Intern(name)
	}
	for i, l := range d.vLabels {
		v := g.AddVertex(l)
		if p := d.vProps[i]; len(p) > 0 {
			*g.tailMap(true, int(v)) = p
		}
	}
	for i := range d.eLabels {
		e := g.AddEdge(d.eSrc[i], d.eDst[i], d.eLabels[i])
		if p := d.eProps[i]; len(p) > 0 {
			*g.tailMap(false, int(e)) = p
		}
	}
	return nil
}
