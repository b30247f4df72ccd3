package core

import (
	"repro/internal/bitmap"
	"repro/internal/cflr"
	"repro/internal/graph"
)

// SimProvAlg (paper Sec. III.B.2, "Rewriting SimProv", Fig. 4):
//
//	Ee -> vj                      for each vj in Vdst   (Ee subset of E x E)
//	Aa -> G^-1 Ee G                                     (Aa subset of A x A)
//	Ee -> U^-1 Aa U
//
// The rewriting folds the normal form's intermediate nonterminals away, so
// one worklist pop derives a whole Aa (or Ee) fact at once (the paper's
// "reduction for worklist tuples"). Both relations are symmetric, enabling
// the (id(x) <= id(y)) pruning strategy; the temporal early-stopping rule
// drops pairs whose two sides are both strictly older than every source
// entity, because derivation strictly descends in order-of-being and an
// answer fact must keep one side at a source.

// pairStore keeps a symmetric vertex-pair relation as per-vertex partner
// sets (both orientations stored so lookups and partner enumeration are
// direct).
type pairStore struct {
	sets    []bitmap.Set
	factory bitmap.Factory
	n       int
	count   int
}

func newPairStore(n int, f bitmap.Factory) *pairStore {
	return &pairStore{sets: make([]bitmap.Set, n), factory: f, n: n}
}

// add inserts the unordered pair {u, v}; it reports whether it was new.
func (ps *pairStore) add(u, v graph.VertexID) bool {
	su := ps.sets[u]
	if su == nil {
		su = ps.factory(ps.n)
		ps.sets[u] = su
	}
	if !su.Add(uint32(v)) {
		return false
	}
	if u != v {
		sv := ps.sets[v]
		if sv == nil {
			sv = ps.factory(ps.n)
			ps.sets[v] = sv
		}
		sv.Add(uint32(u))
	}
	ps.count++
	return true
}

func (ps *pairStore) has(u, v graph.VertexID) bool {
	s := ps.sets[u]
	return s != nil && s.Contains(uint32(v))
}

func (ps *pairStore) partners(u graph.VertexID, fn func(graph.VertexID) bool) {
	if s := ps.sets[u]; s != nil {
		s.Iterate(func(x uint32) bool { return fn(graph.VertexID(x)) })
	}
}

func (ps *pairStore) bytes() int {
	total := 0
	for _, s := range ps.sets {
		if s != nil {
			total += s.Bytes()
		}
	}
	return total
}

// algFacts is the factSource over SimProvAlg's two stores.
type algFacts struct {
	ee *pairStore
	aa *pairStore
}

func (f *algFacts) hasEe(u, v graph.VertexID) bool { return f.ee.has(u, v) }
func (f *algFacts) hasAa(u, v graph.VertexID) bool { return f.aa.has(u, v) }
func (f *algFacts) eePartners(s graph.VertexID, fn func(graph.VertexID) bool) {
	f.ee.partners(s, fn)
}

// Bytes reports the fact-store footprint (for the memory experiments).
func (f *algFacts) Bytes() int { return f.ee.bytes() + f.aa.bytes() }

// NumFacts reports the number of stored pair facts.
func (f *algFacts) NumFacts() int { return f.ee.count + f.aa.count }

type algItem struct {
	isEe bool
	u, v uint32
}

// runSimProvAlg derives all Ee/Aa facts for the query.
func (e *Engine) runSimProvAlg(src, dst []graph.VertexID, ad *adjacency) (*algFacts, error) {
	n := e.P.NumVertices()
	facts := &algFacts{
		ee: newPairStore(n, e.opts.Sets),
		aa: newPairStore(n, e.opts.Sets),
	}
	matchA := e.propMatch(e.opts.MatchActivityProp)
	matchE := e.propMatch(e.opts.MatchEntityProp)

	minSrc := e.minSrcOrder(src)
	earlyStop := !e.opts.NoEarlyStop
	pruning := !e.opts.NoPruning

	var work []algItem
	head := 0
	pushEe := func(u, v graph.VertexID) bool {
		if pruning && u > v {
			u, v = v, u
		}
		if !facts.ee.add(u, v) {
			return true
		}
		if e.opts.MaxFacts > 0 && facts.NumFacts() > e.opts.MaxFacts {
			return false
		}
		work = append(work, algItem{isEe: true, u: uint32(u), v: uint32(v)})
		return true
	}
	pushAa := func(u, v graph.VertexID) bool {
		if pruning && u > v {
			u, v = v, u
		}
		if !facts.aa.add(u, v) {
			return true
		}
		if e.opts.MaxFacts > 0 && facts.NumFacts() > e.opts.MaxFacts {
			return false
		}
		work = append(work, algItem{isEe: false, u: uint32(u), v: uint32(v)})
		return true
	}

	for _, vj := range dst {
		if !ad.vertexOK(vj) {
			continue
		}
		if !pushEe(vj, vj) {
			return facts, cflr.ErrFactBudget
		}
	}

	var bufU, bufV []graph.VertexID
	for head < len(work) {
		it := work[head]
		head++
		u, v := graph.VertexID(it.u), graph.VertexID(it.v)
		if earlyStop && e.P.Order(u) < minSrc && e.P.Order(v) < minSrc {
			// Every further derivation strictly descends in order-of-being,
			// so this pair can never reach a source entity.
			continue
		}
		if it.isEe {
			// Aa(a1, a2) <- G^-1(a1, e1=u) Ee(u, v) G(e2=v, a2):
			// a1 generated u, a2 generated v.
			bufU = ad.generatorsOf(u, bufU[:0])
			bufV = ad.generatorsOf(v, bufV[:0])
			for _, a1 := range bufU {
				for _, a2 := range bufV {
					if matchA != nil && !matchA(a1, a2) {
						continue
					}
					if !pushAa(a1, a2) {
						return facts, cflr.ErrFactBudget
					}
				}
			}
		} else {
			// Ee(e1, e2) <- U^-1(e1, a1=u) Aa(u, v) U(a2=v, e2):
			// e1 is an input of u, e2 an input of v.
			bufU = ad.inputsOf(u, bufU[:0])
			bufV = ad.inputsOf(v, bufV[:0])
			for _, e1 := range bufU {
				for _, e2 := range bufV {
					if matchE != nil && !matchE(e1, e2) {
						continue
					}
					if !pushEe(e1, e2) {
						return facts, cflr.ErrFactBudget
					}
				}
			}
		}
	}
	return facts, nil
}
