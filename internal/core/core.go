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
	"slices"

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
	// NoPruning disables SimProvAlg's symmetric-pair pruning (ablation).
	NoPruning bool
	// NoEarlyStop disables the temporal early-stopping rule (Fig. 5d
	// ablates this) in SimProvAlg and in SimProvTst's class-chain and
	// level-synchronous runners. The three-sweep runner has no such rule to
	// disable: its depth windows are exact.
	NoEarlyStop bool
	// MaxFacts bounds derived facts for SimProvAlg/CflrB (0 = unlimited);
	// exceeding it returns cflr.ErrFactBudget.
	MaxFacts int
	// MatchActivityProp, when set, strengthens L(SimProv) so matched
	// activity pairs must agree on this property (the paper's
	// sigma(a_i, p0) = sigma(a_j, p0) generalization). Supported by
	// SimProvAlg and SimProvTst.
	MatchActivityProp string
	// MatchEntityProp is the analogous constraint on matched entity pairs.
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

// NewEngine builds an engine; zero-value options select SimProvTst with
// dense bitsets, pruning and early stopping enabled.
func NewEngine(p *prov.Graph, opts Options) *Engine {
	if opts.Sets == nil {
		opts.Sets = bitmap.BitsetFactory
	}
	return &Engine{P: p, opts: opts}
}

// Opts returns the engine options.
func (e *Engine) Opts() Options { return e.opts }

// VertexFilter is an exclusion boundary predicate over vertices (paper's
// b_v); a vertex failing any filter is treated as labeled epsilon.
type VertexFilter func(p *prov.Graph, v graph.VertexID) bool

// EdgeFilter is an exclusion boundary predicate over edges (paper's b_e).
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
// members of Vertices.
type Segment struct {
	P *prov.Graph

	Src []graph.VertexID
	Dst []graph.VertexID

	// Vertices is VS in ascending id order.
	Vertices []graph.VertexID
	// Edges is ES in ascending id order.
	Edges []graph.EdgeID
	// Rules is parallel to Vertices: Rules[i] is the first induction rule
	// that contributed Vertices[i]. Walk the two together; RuleOf serves the
	// occasional lookup by vertex id.
	Rules []Rule

	vset *bitmap.Bitset
	// support is the revalidation support set (see Support).
	support *bitmap.Bitset
}

// Contains reports whether v is in the segment.
func (s *Segment) Contains(v graph.VertexID) bool { return s.vset.Contains(uint32(v)) }

// RuleOf returns the induction rule that contributed v, by binary search
// over Vertices; false if v is not in the segment.
func (s *Segment) RuleOf(v graph.VertexID) (Rule, bool) {
	i, ok := slices.BinarySearch(s.Vertices, v)
	if !ok {
		return 0, false
	}
	return s.Rules[i], true
}

// VertexSet returns the segment's vertex set as a bitset (do not modify).
func (s *Segment) VertexSet() *bitmap.Bitset { return s.vset }

// Support returns the segment's revalidation support set (nil for segments
// not produced by Engine.Segment, e.g. adjusted copies): the query's two
// ancestry closures, every segment vertex, and the expansion seeds. Every
// derivation the query depends on stays inside this set, so on an
// append-only graph the result can only change if a newly ingested edge is
// incident to a support vertex — the check the serving layer's epoch
// revalidation performs per cached entry. Do not modify the returned set.
func (s *Segment) Support() *bitmap.Bitset { return s.support }

// Rebase returns a shallow copy of the segment re-pointed at a newer
// snapshot of the same append-only graph (every id the segment references
// is stable across snapshots). The original is left untouched so readers
// holding it are unaffected.
func (s *Segment) Rebase(p *prov.Graph) *Segment {
	ns := *s
	ns.P = p
	return &ns
}

// NumVertices returns |VS|.
func (s *Segment) NumVertices() int { return len(s.Vertices) }

// NumEdges returns |ES|.
func (s *Segment) NumEdges() int { return len(s.Edges) }

// ErrEmptyQuery is returned when Src or Dst is empty.
var ErrEmptyQuery = errors.New("core: PgSeg query needs non-empty Src and Dst")

// SimilarPaths computes just the VC2 vertex set (the L(SimProv) similar
// paths) for a query. It is the core of the segmentation operator, exposed
// separately so the three solvers can be measured in isolation (Fig. 5a-d).
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
func (e *Engine) Segment(q Query) (*Segment, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	ad := newAdjacency(e.P, q.Boundary)

	vc1, support := e.directPathVertices(q, ad)
	vc2, err := e.similarPathVertices(q, ad)
	if err != nil {
		return nil, err
	}
	return e.induce(q, ad, vc1, vc2, support), nil
}

// induce assembles the segment from VC1 and VC2: the query vertices, VC3
// siblings, expansions, VC4 agents, rule attribution, the support set (grown
// from the closures' union) and the induced edges.
func (e *Engine) induce(q Query, ad *adjacency, vc1, vc2, support *bitmap.Bitset) *Segment {
	seg := &Segment{
		P:    e.P,
		Src:  append([]graph.VertexID(nil), q.Src...),
		Dst:  append([]graph.VertexID(nil), q.Dst...),
		vset: bitmap.NewBitset(e.P.NumVertices()),
	}
	// ruleOf is the per-solve scratch, indexed by vertex id; the segment
	// keeps only the entries of its own vertices (Rules).
	ruleOf := make([]Rule, e.P.NumVertices())
	addV := func(v graph.VertexID, r Rule) {
		if seg.vset.Add(uint32(v)) {
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

	// VC4: agents of every included vertex, reached by non-excluded S or A
	// edges.
	seg.vset.Iterate(func(x uint32) bool {
		for _, rel := range [...]prov.Rel{prov.RelAssoc, prov.RelAttr} {
			buf = buf[:0]
			a, b := ad.row(graph.VertexID(x), rel, true, &buf)
			for _, u := range a {
				addV(u, RuleC4)
			}
			for _, u := range b {
				addV(u, RuleC4)
			}
		}
		return true
	})

	// Support set: the closures already bound every VC1/VC2 derivation; add
	// the segment itself (covers VC3 siblings, VC4 agents, induced edges and
	// expansion frontiers) and the expansion seeds, which expand walks from
	// without necessarily including them.
	support.UnionWith(seg.vset)
	for _, ex := range q.Boundary.Expansions {
		for _, v := range ex.Within {
			support.Add(uint32(v))
		}
	}
	seg.support = support

	seg.Vertices = setToVertices(seg.vset)
	seg.Rules = make([]Rule, len(seg.Vertices))
	for i, v := range seg.Vertices {
		seg.Rules[i] = ruleOf[v]
	}
	seg.Edges = e.inducedEdges(seg.vset, ad)
	return seg
}

func setToVertices(vs *bitmap.Bitset) []graph.VertexID {
	out := make([]graph.VertexID, 0, vs.Cardinality())
	vs.Iterate(func(x uint32) bool {
		out = append(out, graph.VertexID(x))
		return true
	})
	return out
}

// inducedEdges returns ES = all non-excluded edges with both endpoints in vs.
func (e *Engine) inducedEdges(vs *bitmap.Bitset, ad *adjacency) []graph.EdgeID {
	var out []graph.EdgeID
	g := e.P.PG()
	vs.Iterate(func(x uint32) bool {
		v := graph.VertexID(x)
		for _, eid := range g.Out(v) {
			if vs.Contains(uint32(g.Dst(eid))) && ad.edgeOK(eid) {
				out = append(out, eid)
			}
		}
		return true
	})
	slices.Sort(out)
	return out
}

// expand walks ancestry up to k activity-steps from the expansion entities,
// reporting every visited activity and entity. A visited set keeps the walk
// linear in |G|: without it, diamond-shaped ancestry re-expands duplicated
// frontier vertices multiplicatively per step, and k arrives unvalidated
// from CLI flags and HTTP requests.
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
		for _, a := range acts {
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
// (the interactive adjust step) and returns a new, filtered segment. Query
// vertices (Src/Dst) are never removed.
func (e *Engine) AdjustExclude(s *Segment, b Boundary) *Segment {
	ad := newAdjacency(e.P, b)
	out := &Segment{
		P:    s.P,
		Src:  s.Src,
		Dst:  s.Dst,
		vset: bitmap.NewBitset(e.P.NumVertices()),
	}
	for _, v := range s.Src {
		out.vset.Add(uint32(v))
	}
	for _, v := range s.Dst {
		out.vset.Add(uint32(v))
	}
	for i, v := range s.Vertices {
		if out.vset.Contains(uint32(v)) || ad.vertexOK(v) {
			out.vset.Add(uint32(v))
			out.Vertices = append(out.Vertices, v)
			out.Rules = append(out.Rules, s.Rules[i])
		}
	}
	g := e.P.PG()
	for _, eid := range s.Edges {
		if out.vset.Contains(uint32(g.Src(eid))) && out.vset.Contains(uint32(g.Dst(eid))) && ad.edgeOK(eid) {
			out.Edges = append(out.Edges, eid)
		}
	}
	return out
}

// AdjustExpand grows a cached segment by an expansion specification and
// returns the new segment. Expansion vertices arrive from the same
// untrusted surfaces as query vertices and are walked unchecked by expand,
// so they are range-validated here.
func (e *Engine) AdjustExpand(s *Segment, ex Expansion) (*Segment, error) {
	for _, v := range ex.Within {
		if int(v) >= e.P.NumVertices() {
			return nil, fmt.Errorf("core: expansion vertex %d out of range", v)
		}
	}
	ad := newAdjacency(e.P, Boundary{})
	out := &Segment{
		P:    s.P,
		Src:  s.Src,
		Dst:  s.Dst,
		vset: s.vset.Clone(),
	}
	e.expand(ad, ex, func(v graph.VertexID) { out.vset.Add(uint32(v)) })
	out.Vertices = setToVertices(out.vset)
	// Merge: a vertex s already had keeps its rule, a new one is C2.
	out.Rules = make([]Rule, len(out.Vertices))
	j := 0
	for i, v := range out.Vertices {
		if j < len(s.Vertices) && s.Vertices[j] == v {
			out.Rules[i] = s.Rules[j]
			j++
		} else {
			out.Rules[i] = RuleC2
		}
	}
	out.Edges = e.inducedEdges(out.vset, ad)
	return out, nil
}
