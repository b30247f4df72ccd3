package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/server"
	"repro/internal/wal"
)

// The traced replay. No file outside benchmark/ carries instrumentation, so
// the spans are recorded here, around calls into each layer's public
// functions: the same op is run once through Server.ServeHTTP, once through
// the Store call that handler makes, and once through the core calls the
// Store makes. A child span is therefore a separate execution of the work
// its parent contains, and a layer's self time is the parent's duration
// minus the child's — not an interval subtraction. Spans inside the program
// are ROADMAP item 6.

// span is one timed call into a layer.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the replay began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the span this one is part of, -1 for an op's root
	OpID    int    `json:"op_id"`  // index of the op in the workload's sequence, -1 outside it
}

type tracer struct {
	t0    time.Time
	spans []span
}

// call times fn as a span and returns the span's index.
func (t *tracer) call(name string, parent, op int, fn func() error) (int, error) {
	start := time.Since(t.t0)
	err := fn()
	t.spans = append(t.spans, span{Name: name, StartNs: int64(start), EndNs: int64(time.Since(t.t0)), Parent: parent, OpID: op})
	return len(t.spans) - 1, err
}

// meanMs is the mean duration of the spans with one of these names, 0 if
// there are none.
func (t *tracer) meanMs(names ...string) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		for _, name := range names {
			if s.Name == name {
				sum += s.EndNs - s.StartNs
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / 1e6 / float64(n)
}

// bufWriter is the ResponseWriter the replay hands to Server.ServeHTTP: it
// keeps the status and the body in a reused buffer.
type bufWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *bufWriter) Header() http.Header         { return w.h }
func (w *bufWriter) WriteHeader(code int)        { w.status = code }
func (w *bufWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *bufWriter) reset() {
	w.h, w.status = http.Header{}, http.StatusOK
	w.body.Reset()
}

// replay is the in-process daemon of a traced run.
type replay struct {
	srv   *server.Server
	store *server.Store
	w     bufWriter
	tr    tracer

	prevOut    uint32  // the writer's chain, as in client
	compaction float64 // sum of the traced core.Summarize compaction ratios
}

// serve runs one request through Server.ServeHTTP, as a span when op >= 0.
func (r *replay) serve(op int, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest("POST", path, bytes.NewReader(body))
	if err != nil {
		return -1, nil, err
	}
	r.w.reset()
	idx := -1
	if op >= 0 {
		idx, _ = r.tr.call("server.http.handler", -1, op, func() error { r.srv.ServeHTTP(&r.w, req); return nil })
	} else {
		r.srv.ServeHTTP(&r.w, req)
	}
	if r.w.status != http.StatusOK {
		return idx, nil, fmt.Errorf("POST %s: status %d: %.200s", path, r.w.status, r.w.body.Bytes())
	}
	return idx, r.w.body.Bytes(), nil
}

func (r *replay) ingest(op int, body []byte) (int, *server.IngestResponse, error) {
	idx, raw, err := r.serve(op, "/ingest", body)
	if err != nil {
		return idx, nil, err
	}
	var resp server.IngestResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return idx, nil, err
	}
	return idx, &resp, nil
}

// write replays one W op: the handler, then the Store call it makes (a second
// chain write, through Store.UpdateCtx directly).
func (r *replay) write(op int) error {
	h, resp, err := r.ingest(op, writeBody(r.prevOut))
	if err != nil {
		return err
	}
	r.prevOut = resp.Results[0].Outputs[0]
	if op < 0 {
		return nil
	}
	_, err = r.tr.call("server.store.update", h, op, func() error {
		return r.store.UpdateCtx(context.Background(), func(rec *prov.Recorder) error {
			_, outs := rec.Run(writerAgent, writerCommand, []graph.VertexID{graph.VertexID(r.prevOut)}, []string{writerArtifact})
			r.prevOut = uint32(outs[0])
			return nil
		})
	})
	return err
}

// read replays one R op: the handler (checked against the oracle like a live
// reply), the Store call, and for a miss the core calls under it.
func (r *replay) read(op int, rd *readOp, warm bool) error {
	h, body, err := r.serve(op, rd.path, rd.body)
	if err != nil {
		return err
	}
	if err := rd.check(body, warm); err != nil {
		return err
	}
	if op < 0 {
		return nil
	}
	if rd.path == "/summarize" {
		opts := core.SumOptions{TypeRadius: sumTypeRadius, K: core.Aggregation{Activity: sumAggActivity}}
		s, err := r.tr.call("server.store.summarize", h, op, func() error {
			_, err := r.store.Summarize(rd.queries, core.Options{}, opts)
			return err
		})
		if err != nil {
			return err
		}
		segs := make([]*core.Segment, len(rd.queries))
		for i, q := range rd.queries {
			if segs[i], _, err = r.store.Segment(q, core.Options{}, true); err != nil {
				return err
			}
		}
		_, err = r.tr.call("core.summarize", s, op, func() error {
			psg, err := core.Summarize(segs, opts)
			if err == nil {
				r.compaction += psg.CompactionRatio()
			}
			return err
		})
		return err
	}
	if rd.wantCached {
		_, err := r.tr.call("server.store.segment_hit", h, op, func() error {
			_, cached, err := r.store.Segment(rd.query, core.Options{}, true)
			if err == nil && !cached {
				err = fmt.Errorf("traced hit op %d missed the cache", op)
			}
			return err
		})
		return err
	}
	s, err := r.tr.call("server.store.segment_miss", h, op, func() error {
		_, _, err := r.store.Segment(rd.query, core.Options{}, false)
		return err
	})
	if err != nil {
		return err
	}
	eng := core.NewEngine(r.store.Epoch().P, core.Options{})
	c, err := r.tr.call("core.segment", s, op, func() error { _, err := eng.Segment(rd.query); return err })
	if err != nil {
		return err
	}
	if _, err := r.tr.call("core.similar_paths", c, op, func() error { _, err := eng.SimilarPaths(rd.query); return err }); err != nil {
		return err
	}
	_, err = r.tr.call("core.closure", c, op, func() error {
		eng.AncestryClosure(rd.query.Dst, rd.query.Boundary, true)
		eng.AncestryClosure(rd.query.Src, rd.query.Boundary, false)
		return nil
	})
	return err
}

// runTrace builds the daemon in-process exactly as cmd/provd does
// (server.OpenRegistry + NewMultiServerWith), warms it like the live run and
// replays the first traceOps ops of the plan with spans around every layer
// call. It returns the traced per-layer numbers and writes the spans to
// benchmark/out/trace-<workload>.json.
func (e *env) runTrace(pl *plan) (map[string]float64, error) {
	w := pl.w
	r := &replay{tr: tracer{t0: time.Now()}}

	// Layers no request of a gated workload reaches: generator and full freeze.
	var p *prov.Graph
	r.tr.call("gen.pd", -1, -1, func() error { p = gen.Pd(gen.PdConfig{N: w.gen, Seed: 1}); return nil })
	r.tr.call("graph.freeze_full", -1, -1, func() error { p.Freeze(); return nil })

	opts := server.RegistryOptions{CacheCap: 256, CheckpointEvery: 256}
	if w.durable {
		dir, err := e.tempDir(w.name + "-trace-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.DataDir, opts.Fsync = dir, wal.SyncAlways
	}
	reg, _, err := server.OpenRegistry(opts, nil, func() (*prov.Graph, error) { return p, nil })
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	r.srv, r.store = server.NewMultiServerWith(reg, server.Options{}), reg.Default()

	// The same warm-up pass as the live run, untraced.
	if w.writesPerRead > 0 {
		_, resp, err := r.ingest(-1, rootBody)
		if err != nil {
			return nil, err
		}
		r.prevOut = resp.Results[1].ID
	}
	for i := 0; i < w.warmReads; i++ {
		if err := r.read(-1, &pl.reads[i%len(pl.reads)], true); err != nil {
			return nil, fmt.Errorf("traced warm-up read %d: %w", i, err)
		}
	}
	for i := 0; i < w.warmWrites; i++ {
		if err := r.write(-1); err != nil {
			return nil, fmt.Errorf("traced warm-up write %d: %w", i, err)
		}
	}

	reads := 0
	for i := 0; i < w.traceOps; i++ {
		if rd := pl.at(i); rd == nil {
			err = r.write(i)
		} else {
			err = r.read(i, rd, false)
			reads++
		}
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
	}

	// Cypher has no gated workload; eight fixed anchored lineage queries (every
	// entity within three activities downstream of the anchor) give the planner
	// a number at all.
	ents := pl.fz.Entities()
	for k := 0; k < 8; k++ {
		q := fmt.Sprintf("match p=(b:E)<-[:U|G*1..6]-(e:E) where id(b) in [%d] return e", ents[(k+1)*len(ents)/10])
		if _, err := r.tr.call("cypher.run", -1, -1, func() error {
			_, err := r.store.Cypher(q, cypher.Options{Timeout: 5 * time.Second, MaxRows: 1_000_000})
			return err
		}); err != nil {
			return nil, fmt.Errorf("traced cypher %d: %w", k, err)
		}
	}

	if err := r.tr.writeFile(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	mean := r.tr.meanMs
	handler := mean("server.http.handler")
	// The Store call under each handler: whichever of the four the op made.
	storeMs := mean("server.store.segment_miss", "server.store.segment_hit", "server.store.summarize", "server.store.update")
	coreSpans := 0
	for _, s := range r.tr.spans {
		if strings.HasPrefix(s.Name, "core.") {
			coreSpans++
		}
	}
	out := map[string]float64{
		"core.segment_ms":              mean("core.segment"),
		"core.similar_paths_ms":        mean("core.similar_paths"),
		"core.closure_ms":              mean("core.closure"),
		"core.induce_self_ms":          mean("core.segment") - mean("core.similar_paths"),
		"core.summarize_ms":            mean("core.summarize"),
		"core.psg_compaction":          0,
		"core.spans":                   float64(coreSpans),
		"server.store.segment_miss_ms": mean("server.store.segment_miss"),
		"server.store.segment_hit_ms":  mean("server.store.segment_hit"),
		"server.http.handler_ms":       handler,
		"server.codec_self_ms":         handler - storeMs,
		"cypher.run_ms":                mean("cypher.run"),
		"gen.pd_ms":                    mean("gen.pd"),
		"graph.freeze_full_ms":         mean("graph.freeze_full"),
		"trace.spans":                  float64(len(r.tr.spans)),
	}
	if w.sumReqs > 0 && reads > 0 {
		out["core.psg_compaction"] = r.compaction / float64(reads)
	}
	return out, nil
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
