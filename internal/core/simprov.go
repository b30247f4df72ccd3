package core

import (
	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// L(SimProv) — the similar-path language (paper Sec. III.A.2):
//
//	SimProv -> G^-1 E SimProv E G
//	         | U^-1 A SimProv A U
//	         | G^-1 vj G            for each vj in Vdst
//
// A word of the language labels a path that descends from a source-side
// entity to some destination vj (via inverse ancestry edges) and ascends
// with the mirror label sequence to a similarly-contributing entity. VC2 is
// the set of vertices on any such path that starts at a source entity.
//
// This file holds the pieces shared by the three solvers: the fact-source
// abstraction over derived Ee (entity-pair) and Aa (activity-pair) facts,
// and the derivation-marking pass that turns answer facts into the VC2
// vertex set.

// pairKey packs an unordered vertex pair into a canonical uint64 key.
func pairKey(u, v graph.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// factSource exposes the Ee/Aa facts a solver derived. Both relations are
// symmetric; implementations answer membership for either orientation.
type factSource interface {
	hasEe(u, v graph.VertexID) bool
	hasAa(u, v graph.VertexID) bool
	// eePartners visits all t with Ee(s, t).
	eePartners(s graph.VertexID, fn func(t graph.VertexID) bool)
}

// similarPathVertices computes VC2 with the engine's configured solver: the
// VC2 tasks of Segment's fork-join, run on the caller alone.
func (e *Engine) similarPathVertices(q Query, ad *adjacency) (*bitmap.Bitset, error) {
	t, err := e.newSegTasks(q, ad, false)
	if err != nil {
		return nil, err
	}
	var w [1]segWorker
	for i := range t.len() {
		t.do(&w[0], ad, i)
	}
	return t.vc2(w[:])
}

// vc2Solver is the solver that computes VC2: the configured one, except that
// a property-match query under SimProvTst goes to SimProvAlg. SimProvTst's
// one class per level needs Ee and Aa to be transitive, which the
// sigma(a_i, p) = sigma(a_j, p) constraint breaks; SimProvAlg checks it pair
// by pair.
func (e *Engine) vc2Solver() SolverKind {
	if e.opts.Solver == SolverTst && (e.opts.MatchActivityProp != "" || e.opts.MatchEntityProp != "") {
		return SolverAlg
	}
	return e.opts.Solver
}

// solveFacts is VC2 under SimProvAlg or CflrB: the solver derives the
// facts, collectVC2 marks them back into the vertex set.
func (e *Engine) solveFacts(src, dst []graph.VertexID, ad *adjacency, rank prov.Rank) (*bitmap.Bitset, error) {
	switch e.vc2Solver() {
	case SolverAlg:
		facts, err := e.runSimProvAlg(src, dst, ad, rank)
		if err != nil {
			return nil, err
		}
		return e.collectVC2(src, facts, ad), nil
	case SolverCflrB:
		facts, err := e.runCflrB(src, dst, ad)
		if err != nil {
			return nil, err
		}
		return e.collectVC2(src, facts, ad), nil
	}
	return nil, errUnknownSolver
}

var errUnknownSolver = errorString("core: unknown solver kind")

type errorString string

func (e errorString) Error() string { return string(e) }

func dedupVertices(vs []graph.VertexID) []graph.VertexID {
	seen := make(map[graph.VertexID]bool, len(vs))
	out := make([]graph.VertexID, 0, len(vs))
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// propMatch builds a pair predicate requiring equality of the given
// property (empty key accepts everything).
func (e *Engine) propMatch(key string) func(a, b graph.VertexID) bool {
	if key == "" {
		return nil
	}
	g := e.P.PG()
	return func(a, b graph.VertexID) bool {
		return g.VertexProp(a, key).Equal(g.VertexProp(b, key))
	}
}

// markItem is one fact visited by derivation marking.
type markItem struct {
	isEe bool
	u, v graph.VertexID
}

// collectVC2 turns answer facts (Ee pairs touching a source entity) into
// the VC2 vertex set by walking every derivation of every answer fact back
// to the base facts (useful-fact marking). Each visited fact contributes
// its two vertices: those are exactly the vertices on valid SimProv paths
// that pass through a source.
func (e *Engine) collectVC2(src []graph.VertexID, facts factSource, ad *adjacency) *bitmap.Bitset {
	out := bitmap.NewBitset(e.P.NumVertices())
	visitedEe := make(map[uint64]bool)
	visitedAa := make(map[uint64]bool)
	matchA := e.propMatch(e.opts.MatchActivityProp)
	matchE := e.propMatch(e.opts.MatchEntityProp)

	var queue []markItem
	pushEe := func(u, v graph.VertexID) {
		k := pairKey(u, v)
		if !visitedEe[k] {
			visitedEe[k] = true
			out.Add(uint32(u))
			out.Add(uint32(v))
			queue = append(queue, markItem{isEe: true, u: u, v: v})
		}
	}
	pushAa := func(u, v graph.VertexID) {
		k := pairKey(u, v)
		if !visitedAa[k] {
			visitedAa[k] = true
			out.Add(uint32(u))
			out.Add(uint32(v))
			queue = append(queue, markItem{isEe: false, u: u, v: v})
		}
	}

	for _, s := range src {
		facts.eePartners(s, func(t graph.VertexID) bool {
			pushEe(s, t)
			return true
		})
	}

	var bufU, bufV []graph.VertexID
	for len(queue) > 0 {
		it := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if it.isEe {
			// Ee(e1, e2) was derived from Aa(a1, a2) with e1 an input of a1
			// and e2 an input of a2 (rule Ee -> U^-1 Aa U read bottom-up):
			// a1 ranges over the activities that used e1.
			bufU = ad.usersOf(it.u, bufU[:0])
			bufV = ad.usersOf(it.v, bufV[:0])
			for _, a1 := range bufU {
				for _, a2 := range bufV {
					if matchA != nil && !matchA(a1, a2) {
						continue
					}
					if facts.hasAa(a1, a2) {
						pushAa(a1, a2)
					}
				}
			}
		} else {
			// Aa(a1, a2) was derived from Ee(e1, e2) with e1 generated by a1
			// and e2 generated by a2 (rule Aa -> G^-1 Ee G read bottom-up).
			bufU = ad.generatedBy(it.u, bufU[:0])
			bufV = ad.generatedBy(it.v, bufV[:0])
			for _, e1 := range bufU {
				for _, e2 := range bufV {
					if matchE != nil && !matchE(e1, e2) {
						continue
					}
					if facts.hasEe(e1, e2) {
						pushEe(e1, e2)
					}
				}
			}
		}
	}
	return out
}
