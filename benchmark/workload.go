package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
	"repro/internal/server"
)

// workload is one traffic mix: how provd is started, which requests the
// closed-loop client cycles through, and how the daemon is warmed up. The
// sizes are fields (not constants) so the tier-1 smoke test can run the same
// code at toy scale.
type workload struct {
	name string
	why  string

	gen     int  // provd -gen N (vertices of the Pd graph, generator seed 1)
	durable bool // provd -data <tmp> -fsync always, and the kill-restart check

	pool    int  // distinct /segment queries the oracle solves
	noCache bool // /segment carries no_cache:true
	// Pool queries take their two sources at a uniform rank in the first
	// srcBand of the generator's entity order and their two destinations in
	// the last dstBand.
	srcBand, dstBand float64

	// sumReqs > 0 turns the reads into /summarize requests over the pool:
	// sumReqs fixed requests, one in four carrying 3 segment specs and the
	// rest 2.
	sumReqs int

	// writesPerRead > 0 interleaves that many one-op /ingest writes before
	// every read (W W W W R).
	writesPerRead int

	warmReads  int // reads of the warm-up pass, in pool order
	warmWrites int // writes of the warm-up pass (after the reads)

	traceOps int // ops the in-process traced replay covers
}

// The four workloads. Names are fixed: later issues cite them.
var workloads = []workload{
	{
		name: "seg_cold",
		why:  "uncached /segment at 20k vertices: core (closure, VC2 sweep, induce) plus the 2.2 MB encode; cache bypassed, wal idle",
		gen:  20000, pool: 64, srcBand: 0.5, dstBand: 0.5, noCache: true, warmReads: 32, traceOps: 64,
	},
	{
		name: "seg_hot",
		why:  "every /segment is a cache hit at 20k vertices: core does nothing, the op is server codec + HTTP write of 2.2 MB",
		gen:  20000, pool: 64, srcBand: 0.5, dstBand: 0.5, warmReads: 64, traceOps: 200,
	},
	{
		name: "sum_pd",
		why:  "/summarize over cached segments at 2k vertices: core.Summarize (simulation + merge rounds) is the whole op",
		gen:  2000, pool: 16, srcBand: 0.1, dstBand: 0.1, sumReqs: 8, warmReads: 8, traceOps: 32,
	},
	{
		name: "rw_mixed",
		why:  "W W W W R on a durable store, fsync always: the commit pipeline under p50, revalidated cache reads under p90, then kill -9 and recover",
		gen:  5000, durable: true, pool: 64, srcBand: 0.5, dstBand: 0.5, writesPerRead: 4, warmReads: 64, warmWrites: 1024, traceOps: 200,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The writer of rw_mixed: a dedicated agent extending its own artifact chain.
// Each run consumes the previous output, so no cached segment's support set
// is ever touched and every cached read revalidates.
const (
	writerAgent    = "bench-writer"
	writerCommand  = "bench"
	writerArtifact = "bench-chain"
)

// The PgSum options of sum_pd.
var (
	sumAggActivity = []string{"command"}
	sumTypeRadius  = 1
)

// readOp is one read request of a plan with what the oracle says the reply
// must hold.
type readOp struct {
	path string
	body []byte

	// /segment expectations.
	query           core.Query
	vertices, edges int
	wantCached      bool // the reply must say cached:true (once the warm-up has filled the cache)

	// /summarize expectations.
	queries        []core.Query
	nodes, sumEdge int
	inputVertices  int
	segments       int
	compaction     float64
}

// plan is the request sequence of one run: a pure function of (workload,
// seed). The pool of reads is fixed per workload (so every seed measures the
// same mix); the seed picks the order they are cycled in.
type plan struct {
	w     *workload
	fz    *prov.Graph // frozen in-process copy of the daemon's graph (the oracle's input)
	reads []readOp
	order []int // seeded permutation of reads
}

// poolSeed fixes the query pool per workload, independent of the run seed.
const poolSeed = 20190001

// buildPlan generates the graph in-process, draws the pool, solves every pool
// query with core (the correctness oracle) and fixes the seeded order.
func buildPlan(w *workload, seed int64) (*plan, error) {
	p := gen.Pd(gen.PdConfig{N: w.gen, Seed: 1})
	fz := p.Freeze()
	ents := fz.Entities()
	if len(ents) < 8 {
		return nil, fmt.Errorf("%s: graph of %d vertices has too few entities", w.name, w.gen)
	}
	nSrc := int(w.srcBand*float64(len(ents))) - 1
	nDst := int(w.dstBand*float64(len(ents))) - 1
	if nSrc < 1 || nDst < 1 || nSrc*nDst < w.pool {
		return nil, fmt.Errorf("%s: a %d-vertex graph has fewer than %d distinct pool queries", w.name, w.gen, w.pool)
	}

	// Pool queries: src = two consecutive entities at a uniform rank in the
	// first band of the order of being, dst = two consecutive in the last.
	rng := rand.New(rand.NewSource(poolSeed))
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	eng := core.NewEngine(fz, core.Options{})
	segs := make([]*core.Segment, 0, w.pool)
	reads := make([]readOp, 0, w.pool)
	for len(reads) < w.pool {
		pr := pair{rng.Intn(nSrc), len(ents) - 2 - rng.Intn(nDst)}
		if seen[pr] {
			continue
		}
		seen[pr] = true
		q := core.Query{
			Src: []graph.VertexID{ents[pr.a], ents[pr.a+1]},
			Dst: []graph.VertexID{ents[pr.b], ents[pr.b+1]},
		}
		seg, err := eng.Segment(q)
		if err != nil {
			return nil, fmt.Errorf("%s: oracle segment: %w", w.name, err)
		}
		body, err := json.Marshal(server.SegmentRequest{
			Src: ids(q.Src), Dst: ids(q.Dst), NoCache: w.noCache,
		})
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		reads = append(reads, readOp{
			path: "/segment", body: body, query: q,
			vertices: seg.NumVertices(), edges: seg.NumEdges(),
			wantCached: !w.noCache,
		})
	}

	if w.sumReqs > 0 {
		sums := make([]readOp, 0, w.sumReqs)
		opts := core.SumOptions{TypeRadius: sumTypeRadius, K: core.Aggregation{Activity: sumAggActivity}}
		for i := 0; i < w.sumReqs; i++ {
			// One request in four is 3 specs wide: the wide ones are the slow
			// quarter, so p50 sits inside the 2-spec population and p90 inside
			// the 3-spec one instead of either sitting on the boundary.
			n := 2
			if i%4 == 3 {
				n = 3
			}
			picks := rng.Perm(len(reads))[:n]
			req := server.SummarizeRequest{TypeRadius: sumTypeRadius, AggActivity: sumAggActivity}
			var in []*core.Segment
			var qs []core.Query
			for _, k := range picks {
				req.Segments = append(req.Segments, server.SegmentSpec{Src: ids(reads[k].query.Src), Dst: ids(reads[k].query.Dst)})
				in = append(in, segs[k])
				qs = append(qs, reads[k].query)
			}
			psg, err := core.Summarize(in, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: oracle summarize: %w", w.name, err)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			sums = append(sums, readOp{
				path: "/summarize", body: body, queries: qs,
				nodes: len(psg.Nodes), sumEdge: len(psg.Edges),
				inputVertices: psg.InputVertices, segments: psg.Segments,
				compaction: psg.CompactionRatio(),
			})
		}
		reads = sums
	}

	return &plan{w: w, fz: fz, reads: reads, order: rand.New(rand.NewSource(seed)).Perm(len(reads))}, nil
}

func ids(vs []graph.VertexID) []uint32 {
	out := make([]uint32, len(vs))
	for i, v := range vs {
		out[i] = uint32(v)
	}
	return out
}

// cycleOps is the number of ops after which the sequence repeats: every read
// of the pool once, each with its writes.
func (pl *plan) cycleOps() int { return len(pl.reads) * (pl.w.writesPerRead + 1) }

// at returns op i of the sequence: nil for a write, else the read.
func (pl *plan) at(i int) *readOp {
	if w := pl.w.writesPerRead; w > 0 {
		if i%(w+1) < w {
			return nil
		}
		i /= w + 1
	}
	return &pl.reads[pl.order[i%len(pl.order)]]
}

// rootBody is the ingest that opens a write workload's warm-up: the writer's
// agent and the root of its chain (result 1 is the root entity).
var rootBody = []byte(fmt.Sprintf(`{"ops":[{"op":"agent","agent":%q},{"op":"snapshot","artifact":%q}]}`, writerAgent, writerArtifact))

// writeBody renders the one-op ingest extending the writer's chain from prev.
func writeBody(prev uint32) []byte {
	return []byte(fmt.Sprintf(`{"ops":[{"op":"run","agent":%q,"command":%q,"inputs":[%d],"outputs":[%q]}]}`,
		writerAgent, writerCommand, prev, writerArtifact))
}

// --- reply checks ---

// check compares a read's reply with the oracle. Segment replies run to
// megabytes, so the check scans instead of decoding: the counts lead the
// object, "cached" trails it, and every vertex and edge object opens with
// {"id": (a name can never hold that sequence unescaped). The warm-up's first
// pass over a cached pool solves instead of hitting, so warm skips the flag.
func (r *readOp) check(body []byte, warm bool) error {
	if len(body) < 2 || body[0] != '{' || !bytes.HasSuffix(body, []byte("}\n")) {
		return fmt.Errorf("short or malformed body (%d bytes)", len(body))
	}
	if r.path == "/summarize" {
		return r.checkSummary(body)
	}
	nv, err := intField(body, "num_vertices", false)
	if err != nil {
		return err
	}
	ne, err := intField(body, "num_edges", false)
	if err != nil {
		return err
	}
	if nv != r.vertices || ne != r.edges {
		return fmt.Errorf("segment %d/%d vertices/edges, oracle says %d/%d", nv, ne, r.vertices, r.edges)
	}
	if n := bytes.Count(body, []byte(`{"id":`)); n != nv+ne {
		return fmt.Errorf("segment body lists %d objects, counts say %d", n, nv+ne)
	}
	if r.wantCached && !warm && !bytes.HasSuffix(body, []byte("\"cached\":true}\n")) {
		return errors.New("segment reply is not cached:true")
	}
	return nil
}

func (r *readOp) checkSummary(body []byte) error {
	iv, err := intField(body, "input_vertices", true)
	if err != nil {
		return err
	}
	ns, err := intField(body, "segments", true)
	if err != nil {
		return err
	}
	raw, err := rawField(body, "compaction_ratio", true)
	if err != nil {
		return err
	}
	cr, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return fmt.Errorf("compaction_ratio %q: %w", raw, err)
	}
	nodes := bytes.Count(body, []byte(`{"label":`))
	edges := bytes.Count(body, []byte(`{"from":`))
	if iv != r.inputVertices || ns != r.segments || cr != r.compaction || nodes != r.nodes || edges != r.sumEdge {
		return fmt.Errorf("summary %d nodes %d edges input %d segments %d ratio %v, oracle says %d %d %d %d %v",
			nodes, edges, iv, ns, cr, r.nodes, r.sumEdge, r.inputVertices, r.segments, r.compaction)
	}
	return nil
}

// rawField returns the bytes of a scalar JSON value following "key": — the
// first occurrence, or the last when fromEnd (for fields that trail the big
// arrays).
func rawField(body []byte, key string, fromEnd bool) ([]byte, error) {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if fromEnd {
		i = bytes.LastIndex(body, pat)
	}
	if i < 0 {
		return nil, fmt.Errorf("reply has no %q", key)
	}
	rest := body[i+len(pat):]
	end := bytes.IndexAny(rest, ",}\n")
	if end < 0 {
		return nil, fmt.Errorf("reply truncated after %q", key)
	}
	return rest[:end], nil
}

func intField(body []byte, key string, fromEnd bool) (int, error) {
	raw, err := rawField(body, key, fromEnd)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(raw))
	if err != nil {
		return 0, fmt.Errorf("%s %q: %w", key, raw, err)
	}
	return n, nil
}
