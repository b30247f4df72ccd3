package server

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/core"
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
// seg_hot (2.2 MB replies) ops_per_s over 10 s windows: 8 KB 119-129,
// 32 KB 182-195, 64 KB 195-201, 128 KB 198-225, 256 KB 199-220. Into a
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

// writeSegmentJSON streams the SegmentResponse of seg, rendered from the
// snapshot the segment was solved or revalidated at (seg.P). A non-empty dot
// selects the DOT form: the counts and the rendering, no arrays.
func writeSegmentJSON(w io.Writer, seg *core.Segment, cached bool, dot string) error {
	r := newReplyBuf(w)
	defer r.release()
	p, g := seg.P, seg.P.PG()
	r.b = append(r.b, `{"num_vertices":`...)
	r.b = strconv.AppendInt(r.b, int64(len(seg.Vertices)), 10)
	r.b = append(r.b, `,"num_edges":`...)
	r.b = strconv.AppendInt(r.b, int64(len(seg.Edges)), 10)
	if dot == "" && len(seg.Vertices) > 0 {
		r.b = append(r.b, `,"vertices":[`...)
		for i, v := range seg.Vertices {
			b := append(r.elem(i), `{"id":`...)
			b = strconv.AppendUint(b, uint64(v), 10)
			b = append(b, `,"kind":"`...)
			b = append(b, p.KindOf(v).String()...)
			b = append(b, '"')
			if name := p.Name(v); name != "" {
				b = append(b, `,"name":`...)
				b = appendJSONString(b, name)
			}
			b = append(b, `,"rule":"`...)
			b = append(b, seg.Rules[i].String()...)
			if err := r.end(append(b, `"}`...)); err != nil {
				return err
			}
		}
		r.b = append(r.b, ']')
	}
	if dot == "" && len(seg.Edges) > 0 {
		r.b = append(r.b, `,"edges":[`...)
		for i, e := range seg.Edges {
			b := append(r.elem(i), `{"id":`...)
			b = strconv.AppendUint(b, uint64(e), 10)
			b = append(b, `,"src":`...)
			b = strconv.AppendUint(b, uint64(g.Src(e)), 10)
			b = append(b, `,"dst":`...)
			b = strconv.AppendUint(b, uint64(g.Dst(e)), 10)
			b = append(b, `,"rel":"`...)
			b = append(b, p.RelOf(e).String()...)
			if err := r.end(append(b, `"}`...)); err != nil {
				return err
			}
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
			b = strconv.AppendInt(b, int64(len(n.Members)), 10)
			if err := r.end(append(b, '}')); err != nil {
				return err
			}
		}
		r.b = append(r.b, `],`...)
	}
	if dot == "" && len(psg.Edges) > 0 {
		r.b = append(r.b, `"edges":[`...)
		for i, e := range psg.Edges {
			b := append(r.elem(i), `{"from":`...)
			b = strconv.AppendInt(b, int64(e.From), 10)
			b = append(b, `,"to":`...)
			b = strconv.AppendInt(b, int64(e.To), 10)
			b = append(b, `,"rel":"`...)
			b = append(b, e.Rel.String()...)
			b = append(b, `","freq":`...)
			b = appendJSONFloat(b, e.Freq)
			if err := r.end(append(b, '}')); err != nil {
				return err
			}
		}
		r.b = append(r.b, `],`...)
	}
	r.b = append(r.b, `"input_vertices":`...)
	r.b = strconv.AppendInt(r.b, int64(psg.InputVertices), 10)
	r.b = append(r.b, `,"segments":`...)
	r.b = strconv.AppendInt(r.b, int64(psg.Segments), 10)
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
// ASCII — every generated name — is copied between quotes; anything else
// (control bytes, '"', '\\', non-ASCII: U+2028/U+2029, invalid UTF-8) goes
// through encoding/json itself, so the escaping cannot drift from the
// stdlib's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
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
