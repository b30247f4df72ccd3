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
// out (one HTTP chunk). Measured on 2 vCPUs with encode at ~0.3 ms of a
// ~1.7 ms seg_hot op (2.2 MB replies copied out of the reply column),
// ops_per_s over alternating 10 s windows: 64 KB 476-522 (median 512, 6
// runs), 128 KB 514-595 (583, 12), 256 KB 531-654 (590, 12), 512 KB 557-634
// (598, 12). 64 KB pays for its extra chunks; above it the medians differ by
// less than one run's spread, while rw_mixed's rss_peak_mb reads ~7 MB higher
// at 512 KB (three interleaved runs, medians 98.3 vs 91.7 MB). Into a
// discarding writer the size makes no difference; it is the per-chunk cost.
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
	return r.spill()
}

// spill flushes the buffer if it holds replyFlushBytes.
func (r *replyBuf) spill() error {
	if len(r.b) < replyFlushBytes {
		return nil
	}
	return r.flush()
}

func (r *replyBuf) flush() error {
	_, err := r.w.Write(r.b)
	r.b = r.b[:0]
	return err
}

// The one kernel: an id is one or two 4-byte stores out of a table of the
// 10 000 four-digit groups. /summarize writes two per Psg edge; the literals,
// the per-kind, per-rule and per-rel tails and the names are appended.

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

const uint32Room = 16 // ten digits and putUint32's overrun

// appendUint32 is putUint32 for the append-style parts of a reply.
func appendUint32(b []byte, x uint32) []byte {
	b = slices.Grow(b, uint32Room)
	return b[:putUint32(b[:cap(b)], len(b), x)]
}

// tails builds pre + v.String() + post for every v up to last.
func tails[T interface {
	~uint8
	String() string
}](last T, pre, post string) []string {
	t := make([]string, int(last)+1)
	for v := range t {
		t[v] = pre + T(v).String() + post
	}
	return t
}

var (
	kindTails = tails(prov.KindAgent, `,"kind":"`, `"`)
	ruleTails = tails(core.RuleC4, `,"rule":"`, `"},`)
	relTails  = tails(prov.RelDeriv, `,"rel":"`, `"`)
)

// writeSegmentJSON streams the SegmentResponse of seg, rendered from the
// snapshot the segment was solved or revalidated at (seg.P) through col, the
// reply column of that snapshot's lineage, in one pass over seg's runs: a
// vertex record per id, a run of edges as one span of records. A non-empty
// dot selects the DOT form: the counts and the rendering, no arrays.
//
// Every element is written with a trailing ',' and the last one's is
// overwritten by the array's ']'. A flush therefore happens before an element
// or a piece of an edge run is added, never after, so that the comma is
// still in the buffer when the array ends.
func writeSegmentJSON(w io.Writer, col *replyColumn, seg *core.PackedSegment, cached bool, dot string) error {
	r := newReplyBuf(w)
	defer r.release()
	r.b = append(r.b, `{"num_vertices":`...)
	r.b = appendUint32(r.b, uint32(seg.NumVertices()))
	r.b = append(r.b, `,"num_edges":`...)
	r.b = appendUint32(r.b, uint32(seg.NumEdges()))
	if dot == "" && (seg.NumVertices() > 0 || seg.NumEdges() > 0) {
		recs := col.covering(seg)
		if seg.NumVertices() > 0 {
			r.b = append(r.b, `,"vertices":[`...)
			k := 0
			for _, run := range seg.VertexRuns {
				for v := run.First; v <= run.Last; v++ {
					if err := r.spill(); err != nil {
						return err
					}
					r.b = append(append(r.b, recs.vertex(v)...), ruleTails[seg.Rules[k]]...)
					k++
				}
			}
			r.b[len(r.b)-1] = ']'
		}
		if seg.NumEdges() > 0 {
			r.b = append(r.b, `,"edges":[`...)
			for _, run := range seg.EdgeRuns {
				if err := r.copySpan(recs.edgeRun(run.First, run.Last)); err != nil {
					return err
				}
			}
			r.b[len(r.b)-1] = ']'
		}
	}
	r.b = append(r.b, `,"cached":`...)
	r.b = strconv.AppendBool(r.b, cached)
	return r.finish(dot)
}

// copySpan appends s in pieces that fill the buffer to replyFlushBytes,
// flushing before each piece that finds it full.
func (r *replyBuf) copySpan(s []byte) error {
	for len(s) > 0 {
		if err := r.spill(); err != nil {
			return err
		}
		n := min(len(s), replyFlushBytes-len(r.b))
		r.b, s = append(r.b, s[:n]...), s[n:]
	}
	return nil
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
			b = append(append(b, relTails[e.Rel]...), `,"freq":`...)
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
// ASCII — every generated name — is scanned byte by byte and copied between
// quotes; anything else (control bytes, '"', '\\', non-ASCII: U+2028/U+2029,
// invalid UTF-8) goes through encoding/json itself, so the escaping cannot
// drift from the stdlib's. A DOT rendering, megabytes that are certain to
// need escaping, stops the scan at its first line break.
func appendJSONString(b []byte, s string) []byte {
	for j := 0; j < len(s); j++ {
		if c := s[j]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return appendJSONStringStd(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
