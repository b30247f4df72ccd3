// Package core implements the paper's two provenance graph query operators:
//
//   - PgSeg (Sec. III): segmentation — given source entities Vsrc and
//     destination entities Vdst, induce the connected subgraph that shows
//     how Vdst was generated, including vertices on direct paths (VC1),
//     vertices on similar paths per the context-free language L(SimProv)
//     (VC2), sibling entities (VC3), and involved agents (VC4), subject to
//     boundary criteria B.
//
//   - PgSum (Sec. IV): summarization — combine a set of segments into a
//     provenance summary graph (Psg) that preserves path labels exactly
//     (no path added, no path lost) while merging vertices that are
//     equivalent under property aggregation K and provenance type Rk.
//
// Three interchangeable VC2 solvers are provided: the generic CflrB
// baseline (via internal/cflr), SimProvAlg (the paper's rewritten-grammar
// worklist algorithm), and SimProvTst (the per-destination transitive
// algorithm, linear in |G| + |U| per destination).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// SolverKind selects the VC2 (similar-path) reachability algorithm.
type SolverKind int

// Available VC2 solvers.
const (
	// SolverTst is SimProvTst (default; fastest).
	SolverTst SolverKind = iota
	// SolverAlg is SimProvAlg on the rewritten grammar of Fig. 4.
	SolverAlg
	// SolverCflrB is the generic subcubic CFLR baseline on the normal form
	// of Fig. 6.
	SolverCflrB
)

// String names the solver.
func (k SolverKind) String() string {
	switch k {
	case SolverTst:
		return "SimProvTst"
	case SolverAlg:
		return "SimProvAlg"
	case SolverCflrB:
		return "CflrB"
	}
	return "unknown"
}

// Options configure a segmentation engine.
type Options struct {
	// Solver picks the VC2 algorithm (default SolverTst).
	Solver SolverKind
	// Sets picks the fast-set implementation for SimProvAlg/CflrB
	// (default dense bitset; bitmap.RoaringFactory is the paper's Cbm).
	Sets bitmap.Factory
	// NoEarlyStop disables SimProvAlg's temporal early-stopping rule (Fig.
	// 5d ablates this), which compares the snapshot's order of being
	// (prov.Graph.OrderOfBeing) and so is sound on every DAG. SimProvTst has
	// no such rule: the sweep's depth windows are exact.
	NoEarlyStop bool
	// MaxFacts bounds derived facts for SimProvAlg/CflrB (0 = unlimited);
	// exceeding it returns cflr.ErrFactBudget.
	MaxFacts int
	// MatchActivityProp, when set, strengthens L(SimProv) so matched
	// activity pairs must agree on this property (the paper's
	// sigma(a_i, p0) = sigma(a_j, p0) generalization). SimProvAlg solves
	// such a query, also when Solver is SimProvTst, whose per-level classes
	// the constraint makes inexact; CflrB refuses it.
	MatchActivityProp string
	// MatchEntityProp is the analogous constraint on matched entity pairs,
	// solved the same way.
	MatchEntityProp string
	// VC1ExcludeDerivations drops wasDerivedFrom edges from direct-path
	// induction (they participate by default; Fig. 2's Q1/Q2 instead
	// exclude them with an explicit edge-type boundary).
	VC1ExcludeDerivations bool
}

// Engine evaluates PgSeg queries over one provenance graph.
type Engine struct {
	P    *prov.Graph
	opts Options
}

// NewEngine builds an engine over a snapshot (prov.Graph.Freeze); it
// panics on a live graph, which keeps no adjacency rows. Zero-value options
// select SimProvTst with dense bitsets and early stopping enabled.
func NewEngine(p *prov.Graph, opts Options) *Engine {
	p.PG().MustBeFrozen("core.NewEngine")
	if opts.Sets == nil {
		opts.Sets = bitmap.BitsetFactory
	}
	return &Engine{P: p, opts: opts}
}

// VertexFilter is an exclusion boundary predicate over vertices (paper's
// b_v); a vertex failing any filter is treated as labeled epsilon. It is
// called from several goroutines during one Segment, so it must be safe for
// concurrent use.
type VertexFilter func(p *prov.Graph, v graph.VertexID) bool

// EdgeFilter is an exclusion boundary predicate over edges (paper's b_e). It
// is called from several goroutines during one Segment, so it must be safe
// for concurrent use.
type EdgeFilter func(p *prov.Graph, e graph.EdgeID) bool

// Expansion is an expansion boundary b_x(Vx, k): include ancestry paths up
// to k activities away from the entities in Within.
type Expansion struct {
	Within []graph.VertexID
	K      int
}

// Boundary is the PgSeg boundary criteria B: exclusion constraints plus
// expansion specifications.
type Boundary struct {
	VertexFilters []VertexFilter
	EdgeFilters   []EdgeFilter
	// ExcludeRels is a convenience exclusion of whole PROV edge types
	// (e.g. Q1 in Fig. 2(d) excludes A and D edges).
	ExcludeRels []prov.Rel
	Expansions  []Expansion
}

// Query is the PgSeg 3-tuple (Vsrc, Vdst, B).
type Query struct {
	Src      []graph.VertexID
	Dst      []graph.VertexID
	Boundary Boundary
}

// Rule identifies which induction rule contributed a vertex.
type Rule uint8

// Induction rules (paper Sec. III.A.2 rules a-d).
const (
	RuleQuery Rule = iota // member of Vsrc or Vdst
	RuleC1                // on a direct path
	RuleC2                // on a similar path (L(SimProv))
	RuleC3                // sibling entity generated by an induced activity
	RuleC4                // involved agent
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleQuery:
		return "query"
	case RuleC1:
		return "C1:direct"
	case RuleC2:
		return "C2:similar"
	case RuleC3:
		return "C3:sibling"
	case RuleC4:
		return "C4:agent"
	}
	return "?"
}

// Segment is a PgSeg result: a connected subgraph S(VS, ES) of the
// provenance graph, with per-vertex rule attribution. Src and Dst are always
// members of VS.
//
// VS and ES are held as runs of consecutive ids, the only form a segment
// takes: the solver emits it, the result cache keeps it, and replies, DOT,
// the adjust step and PgSum read it. A segment of a lifecycle graph is a
// near-contiguous id window (a Pd-20000 seg_cold segment averages 13k
// vertices in 81 runs and 29k edges in 300), so its runs take a few KB
// where id lists would take 4 B per element.
type Segment struct {
	P *prov.Graph

	Src []graph.VertexID
	Dst []graph.VertexID

	// VertexRuns is VS and EdgeRuns is ES, each ascending and maximal: no
	// run ends one below the next run's First.
	VertexRuns []Run[graph.VertexID]
	EdgeRuns   []Run[graph.EdgeID]
	// Rules[k] is the first induction rule that contributed the k-th vertex
	// of VertexRuns. Walk the two together; RuleOf serves the occasional
	// lookup by vertex id.
	Rules []Rule

	// support is the revalidation support set (see Support).
	support *bitmap.Bitset
}

// Run is a run of consecutive ids, First through Last.
type Run[ID ~uint32] struct{ First, Last ID }

// Len is the number of ids in r.
func (r Run[ID]) Len() int { return int(r.Last-r.First) + 1 }

// Contains reports whether v is in the segment, by binary search over the
// vertex runs.
func (s *Segment) Contains(v graph.VertexID) bool {
	i := sort.Search(len(s.VertexRuns), func(i int) bool { return s.VertexRuns[i].Last >= v })
	return i < len(s.VertexRuns) && s.VertexRuns[i].First <= v
}

// RuleOf returns the induction rule that contributed v, false if v is not
// in the segment. It walks the vertex runs, counting the vertices before v.
func (s *Segment) RuleOf(v graph.VertexID) (Rule, bool) {
	k := 0
	for _, r := range s.VertexRuns {
		if v < r.First {
			break
		}
		if v <= r.Last {
			return s.Rules[k+int(v-r.First)], true
		}
		k += r.Len()
	}
	return 0, false
}

// Vertices returns VS as a fresh ascending slice.
func (s *Segment) Vertices() []graph.VertexID { return idsOf(s.VertexRuns) }

// Edges returns ES as a fresh ascending slice.
func (s *Segment) Edges() []graph.EdgeID { return idsOf(s.EdgeRuns) }

// idsOf lists the ids of runs.
func idsOf[ID ~uint32](runs []Run[ID]) []ID {
	ids := make([]ID, 0, numIDs(runs))
	for _, r := range runs {
		for id := r.First; id <= r.Last; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

// Support returns the segment's revalidation support set (nil for segments
// not produced by Engine.Segment, e.g. adjusted copies): the query's two
// ancestry closures, every segment vertex, and the expansion seeds. Every
// derivation the query depends on stays inside this set, so on an
// append-only graph the result can only change if a newly ingested edge is
// incident to a support vertex — the check the serving layer's epoch
// revalidation performs per cached entry. Do not modify the returned set.
func (s *Segment) Support() *bitmap.Bitset { return s.support }

// NumVertices returns |VS|, summed over the vertex runs.
func (s *Segment) NumVertices() int { return numIDs(s.VertexRuns) }

// NumEdges returns |ES|, summed over the edge runs.
func (s *Segment) NumEdges() int { return numIDs(s.EdgeRuns) }

// numIDs is the number of ids in runs.
func numIDs[ID ~uint32](runs []Run[ID]) int {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	return n
}

// Rebase returns a copy of s re-pointed at a newer snapshot of the same
// append-only graph (every id the segment references is stable across
// snapshots). The original is left untouched so readers holding it are
// unaffected; the copy shares its runs, Rules and support set.
func (s *Segment) Rebase(g *prov.Graph) *Segment {
	ns := *s
	ns.P = g
	return &ns
}

// Bytes is the heap s holds: itself, its runs, query lists and Rules, and
// the support set.
func (s *Segment) Bytes() int {
	n := int(unsafe.Sizeof(*s)) + len(s.Rules) + 4*(len(s.Src)+len(s.Dst)) + 8*(len(s.VertexRuns)+len(s.EdgeRuns))
	if s.support != nil {
		n += s.support.Bytes()
	}
	return n
}

// runsOf returns the elements of b as ascending maximal runs, exact-size
// (nil for an empty set).
func runsOf[ID ~uint32](b *bitmap.Bitset) []Run[ID] {
	n := 0
	b.Runs(func(_, _ uint32) { n++ })
	if n == 0 {
		return nil
	}
	runs := make([]Run[ID], 0, n)
	b.Runs(func(first, last uint32) { runs = append(runs, Run[ID]{ID(first), ID(last)}) })
	return runs
}

// appendRun appends id, which is above every id of runs, to runs.
func appendRun[ID ~uint32](runs []Run[ID], id ID) []Run[ID] {
	if n := len(runs); n > 0 && runs[n-1].Last+1 == id {
		runs[n-1].Last = id
		return runs
	}
	return append(runs, Run[ID]{id, id})
}

// ErrEmptyQuery is returned when Src or Dst is empty.
var ErrEmptyQuery = errors.New("core: PgSeg query needs non-empty Src and Dst")

// SimilarPaths computes just the VC2 vertex set (the L(SimProv) similar
// paths) for a query. It is the core of the segmentation operator, exposed
// separately so the three solvers can be measured in isolation (Fig. 5a-d),
// and runs on the calling goroutine alone.
func (e *Engine) SimilarPaths(q Query) (*bitmap.Bitset, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	ad := newAdjacency(e.P, q.Boundary)
	return e.similarPathVertices(q, ad)
}

// validateQuery rejects what the solvers index unchecked: query and
// expansion vertices arrive from untrusted surfaces (CLI flags, HTTP
// requests).
func (e *Engine) validateQuery(q Query) error {
	if len(q.Src) == 0 || len(q.Dst) == 0 {
		return ErrEmptyQuery
	}
	for _, vs := range [][]graph.VertexID{q.Src, q.Dst} {
		for _, v := range vs {
			if int(v) >= e.P.NumVertices() {
				return fmt.Errorf("core: query vertex %d out of range", v)
			}
			if !e.P.IsKind(v, prov.KindEntity) {
				return fmt.Errorf("core: query vertex %d is not an entity", v)
			}
		}
	}
	for _, ex := range q.Boundary.Expansions {
		for _, v := range ex.Within {
			if int(v) >= e.P.NumVertices() {
				return fmt.Errorf("core: expansion vertex %d out of range", v)
			}
		}
	}
	return nil
}

// Segment evaluates the induce step of a PgSeg query and assembles the
// result subgraph. Boundary exclusions are fused into induction (Appendix C
// style); expansions are applied as part of assembly. AdjustExclude and
// AdjustExpand support the interactive adjust step over a cached segment.
//
// The VC2 solve and the two ancestry closures run as tasks of one fork-join
// on up to GOMAXPROCS goroutines, the caller among them (see segTasks), so
// the boundary's filters are called from several goroutines at once.
func (e *Engine) Segment(q Query) (*Segment, error) { return e.SegmentWork(new(Work), q) }

// SegmentWork is Segment for the request w records: it adds the rows it
// fetched to w, and once w's request is done it stops and returns the
// context's error.
func (e *Engine) SegmentWork(w *Work, q Query) (*Segment, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	ad := newAdjacency(e.P, q.Boundary)
	ad.done = w.done
	defer w.record(ad)
	t, err := e.newSegTasks(q, ad, true)
	if err != nil {
		return nil, err
	}
	ws := make([]segWorker, min(runtime.GOMAXPROCS(0), t.len()))
	for i := range ws {
		ws[i].ad = *newAdjacency(e.P, q.Boundary)
		ws[i].ad.done = w.done
	}
	forkJoin(w.done, len(ws), t.len(), func(k, i int) { t.do(&ws[k], &ws[k].ad, i) })
	vc2, err := t.vc2(ws)
	if err == nil {
		err = w.Err() // a task may not have run
	}
	if err != nil {
		return nil, err
	}
	vc1, support := directPaths(t.fwd, t.bwd)
	seg := e.induce(q, ad, vc1, vc2, support)
	if err := w.Err(); err != nil { // an expansion may have stopped
		return nil, err
	}
	return seg, nil
}

// induce assembles the segment from VC1 and VC2: the query vertices, VC3
// siblings, expansions, then VC4 agents and the induced edges in one scan
// of the edge columns (inducedEdges), rule attribution and the support set
// (grown from the closures' union).
func (e *Engine) induce(q Query, ad *adjacency, vc1, vc2, support *bitmap.Bitset) *Segment {
	seg := &Segment{
		P:   e.P,
		Src: append([]graph.VertexID(nil), q.Src...),
		Dst: append([]graph.VertexID(nil), q.Dst...),
	}
	// vs and ruleOf are the per-solve scratch, ruleOf indexed by vertex id;
	// the segment keeps vs as runs and the entries of ruleOf in them (Rules).
	vs, ruleOf := bitmap.NewBitset(e.P.NumVertices()), make([]Rule, e.P.NumVertices())
	addV := func(v graph.VertexID, r Rule) {
		if vs.Add(uint32(v)) {
			ruleOf[v] = r
		}
	}
	for _, v := range q.Src {
		addV(v, RuleQuery)
	}
	for _, v := range q.Dst {
		addV(v, RuleQuery)
	}
	vc1.Iterate(func(x uint32) bool { addV(graph.VertexID(x), RuleC1); return true })
	vc2.Iterate(func(x uint32) bool { addV(graph.VertexID(x), RuleC2); return true })

	// VC3: entities generated by induced activities but not already induced.
	coreSet := vc1.Clone()
	coreSet.UnionWith(vc2)
	var buf []graph.VertexID
	coreSet.Iterate(func(x uint32) bool {
		v := graph.VertexID(x)
		if e.P.IsKind(v, prov.KindActivity) {
			buf = buf[:0]
			a, b := ad.row(v, prov.RelGen, false, &buf)
			for _, sib := range a {
				addV(sib, RuleC3)
			}
			for _, sib := range b {
				addV(sib, RuleC3)
			}
		}
		return true
	})

	// Expansions (b_x): ancestry within k activities of the given entities.
	for _, ex := range q.Boundary.Expansions {
		e.expand(ad, ex, func(v graph.VertexID) { addV(v, RuleC2) })
	}

	// VC4 (agents of every included vertex, reached by non-excluded S or A
	// edges) and the induced edges, in one scan of the edge columns.
	seg.EdgeRuns = ad.inducedEdges(vs, func(u graph.VertexID) { addV(u, RuleC4) })

	// Support set: the closures already bound every VC1/VC2 derivation; add
	// the segment itself (covers VC3 siblings, VC4 agents, induced edges and
	// expansion frontiers) and the expansion seeds, which expand walks from
	// without necessarily including them.
	support.UnionWith(vs)
	for _, ex := range q.Boundary.Expansions {
		for _, v := range ex.Within {
			support.Add(uint32(v))
		}
	}
	seg.support = support

	seg.VertexRuns = runsOf[graph.VertexID](vs)
	seg.Rules = make([]Rule, 0, vs.Cardinality())
	for _, r := range seg.VertexRuns {
		seg.Rules = append(seg.Rules, ruleOf[r.First:r.Last+1]...)
	}
	return seg
}

// inducedEdges returns ES, every non-excluded edge with both endpoints in
// vs, in id order. With addAgent set it also forms VC4: an agent enters a
// segment only as the target of an S or A edge, so such an edge whose source
// is in vs adds its target (unless the boundary excludes it) and is kept;
// every other edge's endpoints are in vs before the pass, and an agent is
// the source of no edge, so adding agents to vs mid-pass changes nothing the
// pass reads. Without addAgent (AdjustExpand, NewSegment) an S or A edge is
// kept like any other, if its target is already in vs.
//
// It is one ascending scan of the edge columns (scanColumns): a per-label
// table built once per call resolves each edge's relation, and an edge of
// an admitted relation is marked in a pooled edge-id bitset when its source
// is in vs and its target is too or, under VC4, is an agent. The boundary's
// filters then run over the marked edges alone, and the marks read back as
// runs (runsOf) give ES in id order, exact-size (nil for no edge); the
// bitset goes back to the pool empty. A call reads the E edge entries and
// the mark words, holds E/8 pooled bytes and allocates nothing beyond the
// result. It counts the entries in ad.entries.
func (ad *adjacency) inducedEdges(vs *bitmap.Bitset, addAgent func(graph.VertexID)) []Run[graph.EdgeID] {
	var small [16]uint8
	pass := small[:]
	for r := prov.Rel(0); r <= prov.RelDeriv; r++ {
		l := int(ad.p.RelLabel(r))
		if l >= len(pass) {
			pass = append(pass, make([]uint8, l+1-len(pass))...)
		}
		switch _, dst := r.Endpoints(); {
		case !ad.relOK[r]:
		case addAgent != nil && dst == prov.KindAgent:
			pass[l] = edgeAgent
		default:
			pass[l] = edgeInside
		}
	}
	labels, srcs, dsts := ad.p.PG().EdgeColumns()
	marks := edgeMarks.Get().(*bitmap.Bitset)
	scanColumns(marks, pass, vs, labels, srcs, dsts)
	// The filters and VC4, out of the scan's loop: behind a filter over the
	// marks, on a plain boundary over the result. addAgent puts its agent
	// in vs, so an agent already there is not added again; an S or A edge
	// whose agent is refused is kept only when the agent is in vs, which no
	// addAgent call changes.
	if !ad.plain {
		marks.Iterate(func(x uint32) bool {
			e := graph.EdgeID(x)
			switch dst := dsts[e]; {
			case !ad.edgeFiltersOK(e):
				marks.Remove(x)
			case pass[labels[e]] != edgeAgent:
			case ad.vertexOK(dst):
				addAgent(dst)
			case !vs.Contains(uint32(dst)):
				marks.Remove(x)
			}
			return true
		})
	}
	out := runsOf[graph.EdgeID](marks)
	marks.Clear()
	edgeMarks.Put(marks)
	if ad.plain && addAgent != nil {
		for _, r := range out {
			for e := r.First; e <= r.Last; e++ {
				if dst := dsts[e]; pass[labels[e]] == edgeAgent && !vs.Contains(uint32(dst)) {
					addAgent(dst)
				}
			}
		}
	}
	ad.entries += len(labels)
	return out
}

// What inducedEdges' label table holds per edge label.
const (
	edgeSkip   uint8 = iota // an excluded relation or a non-PROV label
	edgeInside              // marked when both ends are in vs
	edgeAgent               // S or A under VC4: marked when its source is in vs
)

// scanColumns is inducedEdges' loop, a function of its own so that nothing
// it holds is spilled around the calls of the filters and addAgent: it
// marks every edge of an admitted label whose source is in vs and, unless
// it is an S or A edge under VC4, whose target is too.
func scanColumns(marks *bitmap.Bitset, pass []uint8, vs *bitmap.Bitset, labels []graph.Label, srcs, dsts []graph.VertexID) {
	srcs, dsts = srcs[:len(labels)], dsts[:len(labels)]
	for e, l := range labels {
		if int(l) >= len(pass) {
			continue
		}
		act := pass[l]
		if act == edgeSkip || !vs.Contains(uint32(srcs[e])) || act == edgeInside && !vs.Contains(uint32(dsts[e])) {
			continue
		}
		marks.Add(uint32(e))
	}
}

// edgeMarks holds inducedEdges' edge-id bitsets, empty between calls; each
// grows on Add to the largest graph it has served.
var edgeMarks = sync.Pool{New: func() any { return bitmap.NewBitset(0) }}

// expand walks ancestry up to k activity-steps from the expansion entities,
// reporting every visited activity and entity. A visited set keeps the walk
// linear in |G|: without it, diamond-shaped ancestry re-expands duplicated
// frontier vertices multiplicatively per step, and k arrives unvalidated
// from CLI flags and HTTP requests. It stops early once ad's request is
// done.
func (e *Engine) expand(ad *adjacency, ex Expansion, add func(graph.VertexID)) {
	seen := bitmap.NewBitset(e.P.NumVertices())
	ents := make([]graph.VertexID, 0, len(ex.Within))
	seeds := bitmap.NewBitset(e.P.NumVertices())
	for _, en := range ex.Within {
		if seeds.Add(uint32(en)) {
			ents = append(ents, en)
		}
	}
	var acts, inputs, next []graph.VertexID
	for step := 0; step < ex.K && len(ents) > 0; step++ {
		acts = acts[:0]
		for _, en := range ents {
			acts = ad.generatorsOf(en, acts)
		}
		next = next[:0]
		for i, a := range acts {
			if i&pollMask == 0 && stopped(ad.done) {
				return
			}
			if !seen.Add(uint32(a)) {
				continue
			}
			add(a)
			inputs = ad.inputsOf(a, inputs[:0])
			for _, en := range inputs {
				if seen.Add(uint32(en)) {
					add(en)
					next = append(next, en)
				}
			}
		}
		ents = append(ents[:0], next...)
	}
}

// AdjustExclude applies additional exclusion filters to a cached segment
// (the interactive adjust step) and returns a new, filtered segment over the
// engine's snapshot, which may be newer than s's. Query vertices (Src/Dst)
// are never removed.
func (e *Engine) AdjustExclude(s *Segment, b Boundary) *Segment {
	ad := newAdjacency(e.P, b)
	out := &Segment{P: e.P, Src: s.Src, Dst: s.Dst}
	keep := bitmap.NewBitset(e.P.NumVertices())
	for _, v := range s.Src {
		keep.Add(uint32(v))
	}
	for _, v := range s.Dst {
		keep.Add(uint32(v))
	}
	k := 0
	for _, r := range s.VertexRuns {
		for v := r.First; v <= r.Last; v++ {
			if keep.Contains(uint32(v)) || ad.vertexOK(v) {
				keep.Add(uint32(v))
				out.VertexRuns = appendRun(out.VertexRuns, v)
				out.Rules = append(out.Rules, s.Rules[k])
			}
			k++
		}
	}
	g := e.P.PG()
	for _, r := range s.EdgeRuns {
		for eid := r.First; eid <= r.Last; eid++ {
			if keep.Contains(uint32(g.Src(eid))) && keep.Contains(uint32(g.Dst(eid))) && ad.edgeOK(eid) {
				out.EdgeRuns = appendRun(out.EdgeRuns, eid)
			}
		}
	}
	return out
}

// AdjustExpand grows a cached segment by an expansion specification and
// returns the new segment, over the engine's snapshot: the expansion may
// reach vertices appended since s's. Expansion vertices arrive from the same
// untrusted surfaces as query vertices and are walked unchecked by expand,
// so they are range-validated here.
func (e *Engine) AdjustExpand(s *Segment, ex Expansion) (*Segment, error) {
	return e.AdjustExpandWork(new(Work), s, ex)
}

// AdjustExpandWork is AdjustExpand for the request w records, as
// SegmentWork is Segment.
func (e *Engine) AdjustExpandWork(w *Work, s *Segment, ex Expansion) (*Segment, error) {
	for _, v := range ex.Within {
		if int(v) >= e.P.NumVertices() {
			return nil, fmt.Errorf("core: expansion vertex %d out of range", v)
		}
	}
	ad := newAdjacency(e.P, Boundary{})
	ad.done = w.done
	defer w.record(ad)
	// vs is the scratch vertex set: s's, rebuilt from its runs, then grown.
	vs := bitmap.NewBitset(e.P.NumVertices())
	for _, r := range s.VertexRuns {
		for v := r.First; v <= r.Last; v++ {
			vs.Add(uint32(v))
		}
	}
	e.expand(ad, ex, func(v graph.VertexID) { vs.Add(uint32(v)) })
	if err := w.Err(); err != nil {
		return nil, err
	}
	out := &Segment{
		P:          e.P,
		Src:        s.Src,
		Dst:        s.Dst,
		VertexRuns: runsOf[graph.VertexID](vs),
		EdgeRuns:   ad.inducedEdges(vs, nil),
		Rules:      make([]Rule, 0, vs.Cardinality()),
	}
	// Merge: a vertex s already had keeps its rule (the k-th of s's, in the
	// run old[0]), a new one is C2.
	old, k := s.VertexRuns, 0
	for _, r := range out.VertexRuns {
		for v := r.First; v <= r.Last; v++ {
			for len(old) > 0 && old[0].Last < v {
				old = old[1:]
			}
			if len(old) > 0 && old[0].First <= v {
				out.Rules = append(out.Rules, s.Rules[k])
				k++
			} else {
				out.Rules = append(out.Rules, RuleC2)
			}
		}
	}
	return out, nil
}
