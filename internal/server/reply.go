package server

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/prov"
)

// The reply path of the three megabyte-sized shapes (/segment, /adjust,
// /summarize): one append encoder that renders straight from the solved
// result into a pooled buffer and flushes it to the client as it fills. The
// bytes are exactly what encoding/json (SetEscapeHTML(false), trailing
// newline) emits for SegmentResponse / SummarizeResponse — those types stay
// the documented schema and the decode side — with no wire structs, no
// reflection and no whole-body buffer in between. The first failed flush
// ends the encode: a client that hung up is not rendered to the end.

// replyFlushBytes is how much of a reply is buffered before it is written
// out (one HTTP chunk, ~2 syscalls). Chosen by measurement, benchmark
// seg_hot (2.2 MB replies, ~1.2 ms of encode in a ~3 ms op) ops_per_s over
// ten alternating 10 s windows: 64 KB 291-318 (median 301), 128 KB 301-330
// (321), 256 KB 295-340 (314; ahead of 128 KB in 5 of 10). Into a discarding
// writer the size makes no difference; it is the per-chunk cost.
const replyFlushBytes = 128 << 10

// replyBufs pools the encode buffers. An element can overrun the flush
// threshold (a long name; a DOT rendering is one string), so buffers carry
// some slack; one that still outgrows its array reallocates for that reply
// only — the pool keeps the original.
var replyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, replyFlushBytes+4<<10)
	return &b
}}

// replyBuf is the append encoder's output: b accumulates and is written to w
// each time it holds replyFlushBytes.
type replyBuf struct {
	w    io.Writer
	b    []byte
	pool *[]byte
}

func newReplyBuf(w io.Writer) *replyBuf {
	pool := replyBufs.Get().(*[]byte)
	return &replyBuf{w: w, b: (*pool)[:0], pool: pool}
}

func (r *replyBuf) release() { replyBufs.Put(r.pool) }

// elem starts array element i: the buffer, after a separating comma.
func (r *replyBuf) elem(i int) []byte {
	if i > 0 {
		return append(r.b, ',')
	}
	return r.b
}

// end takes the buffer back with an element finished and flushes it if full.
func (r *replyBuf) end(b []byte) error {
	r.b = b
	if len(b) < replyFlushBytes {
		return nil
	}
	return r.flush()
}

func (r *replyBuf) flush() error {
	_, err := r.w.Write(r.b)
	r.b = r.b[:0]
	return err
}

// The element kernels. A /segment or /adjust reply is ~63k array elements
// and ~150k integers at 20k vertices, so an element is not appended piece by
// piece: the loops of writeSegmentJSON reserve its room once (elemRoom plus
// the name) and write it by index — integers through putUint32, literals as
// whole little-endian words (lit8, lit24) with the index advanced by the
// true length, the name by putPlain. A kernel stores whole words, up to 13
// bytes past what it advances over; elemRoom covers that.

// elemRoom is the room an element needs besides its name: the longest fixed
// part (an edge with three 10-digit ids, 62 bytes; a vertex, 59) and the
// kernels' overrun.
const elemRoom = 96

// room returns b resliced to its capacity, with at least n bytes after
// len(b): the slack of a pooled buffer covers any element with a name under
// 4 KB, a longer one grows the buffer for this reply.
func room(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = slices.Grow(b, n)
	}
	return b[:cap(b)]
}

// digits4[x] is the four ASCII digits of x < 10000, the thousands in the low
// byte: one little-endian 4-byte store writes them in order.
var digits4 [10000]uint32

func init() {
	for x := range digits4 {
		d := uint32(x)
		digits4[x] = '0' + d/1000 | ('0'+d/100%10)<<8 | ('0'+d/10%10)<<16 | ('0'+d%10)<<24
	}
}

// putUint32 writes x in decimal at b[i:] and returns the index after it. It
// stores 4-byte groups, so up to 3 bytes past the returned index are
// overwritten and must exist.
func putUint32(b []byte, i int, x uint32) int {
	if x < 1e4 {
		return putHead(b, i, x)
	}
	if x < 1e8 {
		i = putHead(b, i, x/1e4)
		binary.LittleEndian.PutUint32(b[i:], digits4[x%1e4])
		return i + 4
	}
	i = putHead(b, i, x/1e8)
	x %= 1e8
	binary.LittleEndian.PutUint32(b[i:], digits4[x/1e4])
	binary.LittleEndian.PutUint32(b[i+4:], digits4[x%1e4])
	return i + 8
}

// putHead writes x < 10000 without leading zeros: its group shifted down by
// the zeros' bytes.
func putHead(b []byte, i int, x uint32) int {
	n := uint(1)
	if x >= 10 {
		n++
	}
	if x >= 100 {
		n++
	}
	if x >= 1000 {
		n++
	}
	binary.LittleEndian.PutUint32(b[i:], digits4[x]>>((4-n)*8&31))
	return i + int(n)
}

// appendUint32 is putUint32 for the append-style parts of a reply.
func appendUint32(b []byte, x uint32) []byte {
	i := len(b)
	b = room(b, 16)
	return b[:putUint32(b, i, x)]
}

// lit8 is a literal of at most 8 bytes as one little-endian word.
type lit8 struct {
	w uint64
	n int
}

func mkLit8(s string) lit8 {
	var w [8]byte
	if copy(w[:], s) < len(s) {
		panic("server: lit8 of more than 8 bytes: " + s)
	}
	return lit8{binary.LittleEndian.Uint64(w[:]), len(s)}
}

// put stores the word at b[i:] and returns the index after the literal.
func (l lit8) put(b []byte, i int) int {
	binary.LittleEndian.PutUint64(b[i:], l.w)
	return i + l.n
}

// lit24 is a literal of at most 24 bytes as three words.
type lit24 struct {
	w [3]uint64
	n int
}

func mkLit24(s string) lit24 {
	var w [24]byte
	if copy(w[:], s) < len(s) {
		panic("server: lit24 of more than 24 bytes: " + s)
	}
	l := lit24{n: len(s)}
	for k := range l.w {
		l.w[k] = binary.LittleEndian.Uint64(w[8*k:])
	}
	return l
}

func (l *lit24) put(b []byte, i int) int {
	w := b[i : i+24]
	binary.LittleEndian.PutUint64(w, l.w[0])
	binary.LittleEndian.PutUint64(w[8:], l.w[1])
	binary.LittleEndian.PutUint64(w[16:], l.w[2])
	return i + l.n
}

// tails builds pre + v.String() + post for every v up to last.
func tails[T interface {
	~uint8
	String() string
}](last T, pre, post string) []lit24 {
	t := make([]lit24, int(last)+1)
	for v := range t {
		t[v] = mkLit24(pre + T(v).String() + post)
	}
	return t
}

var (
	litFirst, litNext       = mkLit8(`{"id":`), mkLit8(`,{"id":`)
	litSrc, litDst, litName = mkLit8(`,"src":`), mkLit8(`,"dst":`), mkLit8(`,"name":`)

	kindTails = tails(prov.KindAgent, `,"kind":"`, `"`)
	ruleTails = tails(core.RuleC4, `,"rule":"`, `"}`)
	relTails  = tails(prov.RelDeriv, `,"rel":"`, `"}`)
)

// writeSegmentJSON streams the SegmentResponse of seg, rendered from the
// snapshot the segment was solved or revalidated at (seg.P). A non-empty dot
// selects the DOT form: the counts and the rendering, no arrays.
func writeSegmentJSON(w io.Writer, seg *core.Segment, cached bool, dot string) error {
	r := newReplyBuf(w)
	defer r.release()
	p, g := seg.P, seg.P.PG()
	r.b = append(r.b, `{"num_vertices":`...)
	r.b = appendUint32(r.b, uint32(len(seg.Vertices)))
	r.b = append(r.b, `,"num_edges":`...)
	r.b = appendUint32(r.b, uint32(len(seg.Edges)))
	if dot == "" && len(seg.Vertices) > 0 {
		b := append(r.b, `,"vertices":[`...)
		open := litFirst
		for k, v := range seg.Vertices {
			name := p.Name(v)
			i := len(b)
			b = room(b, elemRoom+len(name))
			i = putUint32(b, open.put(b, i), uint32(v))
			i = kindTails[p.KindOf(v)].put(b, i)
			if name != "" {
				b = appendJSONString(b[:litName.put(b, i)], name)
				i = len(b)
				b = room(b, elemRoom)
			}
			i = ruleTails[seg.Rules[k]].put(b, i)
			if err := r.end(b[:i]); err != nil {
				return err
			}
			b, open = r.b, litNext
		}
		r.b = append(r.b, ']')
	}
	if dot == "" && len(seg.Edges) > 0 {
		b := append(r.b, `,"edges":[`...)
		open := litFirst
		for _, e := range seg.Edges {
			i := len(b)
			b = room(b, elemRoom)
			i = putUint32(b, open.put(b, i), uint32(e))
			i = putUint32(b, litSrc.put(b, i), uint32(g.Src(e)))
			i = putUint32(b, litDst.put(b, i), uint32(g.Dst(e)))
			i = relTails[p.RelOf(e)].put(b, i)
			if err := r.end(b[:i]); err != nil {
				return err
			}
			b, open = r.b, litNext
		}
		r.b = append(r.b, ']')
	}
	r.b = append(r.b, `,"cached":`...)
	r.b = strconv.AppendBool(r.b, cached)
	return r.finish(dot)
}

// writePsgJSON streams the SummarizeResponse of psg; dot as in
// writeSegmentJSON.
func writePsgJSON(w io.Writer, psg *core.Psg, dot string) error {
	r := newReplyBuf(w)
	defer r.release()
	r.b = append(r.b, '{')
	if dot == "" && len(psg.Nodes) > 0 {
		r.b = append(r.b, `"nodes":[`...)
		for i, n := range psg.Nodes {
			b := appendJSONString(append(r.elem(i), `{"label":`...), n.Label)
			b = append(b, `,"members":`...)
			b = appendUint32(b, uint32(len(n.Members)))
			if err := r.end(append(b, '}')); err != nil {
				return err
			}
		}
		r.b = append(r.b, `],`...)
	}
	if dot == "" && len(psg.Edges) > 0 {
		// freq is support/|S|: a reply holds at most |S| distinct values, so
		// each is formatted once (freqs[support]); any other float is
		// formatted where it stands.
		freqs, segs := make([][]byte, psg.Segments+1), float64(psg.Segments)
		r.b = append(r.b, `"edges":[`...)
		for i, e := range psg.Edges {
			b := append(r.elem(i), `{"from":`...)
			b = appendUint32(b, uint32(e.From))
			b = append(b, `,"to":`...)
			b = appendUint32(b, uint32(e.To))
			j := len(b)
			b = room(b, elemRoom)
			b = append(b[:relTails[e.Rel].put(b, j)-1], `,"freq":`...) // over the tail's closing brace
			if k := int(e.Freq*segs + 0.5); uint(k) >= uint(len(freqs)) || float64(k)/segs != e.Freq {
				b = appendJSONFloat(b, e.Freq)
			} else {
				if freqs[k] == nil {
					freqs[k] = appendJSONFloat(nil, e.Freq)
				}
				b = append(b, freqs[k]...)
			}
			if err := r.end(append(b, '}')); err != nil {
				return err
			}
		}
		r.b = append(r.b, `],`...)
	}
	r.b = append(r.b, `"input_vertices":`...)
	r.b = appendUint32(r.b, uint32(psg.InputVertices))
	r.b = append(r.b, `,"segments":`...)
	r.b = appendUint32(r.b, uint32(psg.Segments))
	r.b = append(r.b, `,"compaction_ratio":`...)
	r.b = appendJSONFloat(r.b, psg.CompactionRatio())
	return r.finish(dot)
}

// finish appends the optional trailing "dot" member, closes the object the
// way json.Encoder does and flushes what is left.
func (r *replyBuf) finish(dot string) error {
	if dot != "" {
		r.b = append(r.b, `,"dot":`...)
		r.b = appendJSONString(r.b, dot)
	}
	r.b = append(r.b, "}\n"...)
	return r.flush()
}

// appendJSONString appends s as a JSON string. A string of plain printable
// ASCII — every generated name — is copied between quotes as it is checked;
// anything else (control bytes, '"', '\\', non-ASCII: U+2028/U+2029, invalid
// UTF-8) goes through encoding/json itself, so the escaping cannot drift from
// the stdlib's. The copy is only tried in room b already has (the element
// loops reserve it): a DOT rendering, megabytes that are certain to need
// escaping, is not grown for twice.
func appendJSONString(b []byte, s string) []byte {
	i := len(b)
	if cap(b)-i < len(s)+2 || !putPlain(b[i+1:cap(b)], s) {
		return appendJSONStringStd(b, s)
	}
	b = b[:i+2+len(s)]
	b[i], b[len(b)-1] = '"', '"'
	return b
}

// putPlain copies s to b, a word at a time where s has one, and gives up
// (false, b half-written) at the first byte JSON has to escape. It writes
// b[:len(s)] and nothing beyond.
func putPlain(b []byte, s string) bool {
	b = b[:len(s)]
	if len(s) < 8 {
		for j := 0; j < len(s); j++ {
			c := s[j]
			if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
				return false
			}
			b[j] = c
		}
		return true
	}
	// Whole words, the last one overlapping its predecessor.
	for j := 0; ; j += 8 {
		if j > len(s)-8 {
			j = len(s) - 8
		}
		w := uint64(s[j]) | uint64(s[j+1])<<8 | uint64(s[j+2])<<16 | uint64(s[j+3])<<24 |
			uint64(s[j+4])<<32 | uint64(s[j+5])<<40 | uint64(s[j+6])<<48 | uint64(s[j+7])<<56
		if hasEscape(w) {
			return false
		}
		binary.LittleEndian.PutUint64(b[j:], w)
		if j == len(s)-8 {
			return true
		}
	}
}

// hasEscape reports whether any of the 8 bytes of w is < 0x20, >= 0x80, '"'
// or '\\' (the zero-byte and less-than tests of the bit-twiddling canon; a
// byte with its high bit set may raise a false positive in a neighbour's
// test, but it is itself a hit).
func hasEscape(w uint64) bool {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	q, bs := w^lo*'"', w^lo*'\\'
	return (w|(w-lo*0x20)&^w|(q-lo)&^q|(bs-lo)&^bs)&hi != 0
}

// appendJSONStringStd is appendJSONString's slow path (its own function so
// the fast path's b stays off the heap).
func appendJSONStringStd(b []byte, s string) []byte {
	enc := json.NewEncoder((*sliceWriter)(&b))
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s)   // a string always encodes
	return b[:len(b)-1] // minus Encode's newline
}

// sliceWriter appends what is written to it.
type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// appendJSONFloat formats f as encoding/json's float64 encoder does: %f,
// or %e outside [1e-6, 1e21) with a two-digit negative exponent cleaned up
// (e-09 → e-9). Not for NaN or ±Inf, which JSON cannot carry.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
