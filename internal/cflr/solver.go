package cflr

import (
	"errors"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/graph"
)

// ErrFactBudget is returned when the solver exceeds its configured fact
// budget (the practical analogue of CflrB running out of memory on Pd50k in
// the paper's Fig. 5a).
var ErrFactBudget = errors.New("cflr: fact budget exceeded")

// Options configure a solve.
type Options struct {
	// Sets chooses the fast-set implementation (dense bitset by default;
	// bitmap.RoaringFactory gives the paper's Cbm variant).
	Sets bitmap.Factory
	// VertexOK and EdgeOK, when non-nil, are the paper's boundary label
	// functions F_v / F_e: a vertex/edge failing the predicate is treated
	// as labeled epsilon and never matched by a terminal.
	VertexOK func(graph.VertexID) bool
	EdgeOK   func(graph.EdgeID) bool
	// MaxFacts bounds the number of derived facts (0 = unlimited).
	MaxFacts int
}

// Result exposes the derived facts of a solve.
type Result struct {
	g       *Grammar
	rows    [][]bitmap.Set // [symbol][u] -> set of v
	cols    [][]bitmap.Set // [symbol][v] -> set of u
	numFact int
}

// Has reports whether fact sym(u, v) was derived.
func (r *Result) Has(sym Symbol, u, v graph.VertexID) bool {
	row := r.rows[sym][u]
	return row != nil && row.Contains(uint32(v))
}

// Row returns the set of v with sym(u, v), or nil.
func (r *Result) Row(sym Symbol, u graph.VertexID) bitmap.Set { return r.rows[sym][u] }

// NumFacts returns the total number of derived facts.
func (r *Result) NumFacts() int { return r.numFact }

// Bytes estimates the memory held by the fact sets.
func (r *Result) Bytes() int {
	total := 0
	for _, bySym := range [][][]bitmap.Set{r.rows, r.cols} {
		for _, byV := range bySym {
			for _, s := range byV {
				if s != nil {
					total += s.Bytes()
				}
			}
		}
	}
	return total
}

// IteratePairs visits all pairs (u, v) with sym(u, v).
func (r *Result) IteratePairs(sym Symbol, fn func(u, v graph.VertexID) bool) {
	for u, set := range r.rows[sym] {
		if set == nil {
			continue
		}
		stop := false
		set.Iterate(func(v uint32) bool {
			if !fn(graph.VertexID(u), graph.VertexID(v)) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

type workItem struct {
	sym  Symbol
	u, v uint32
}

// occurrence records that a nonterminal appears in a binary production at
// the given position, with the sibling item and the production's LHS.
type occurrence struct {
	lhs     Symbol
	sibling RHSItem
	// onLeft is true when the indexing nonterminal is the LEFT item
	// (A -> B C indexed under B).
	onLeft bool
}

// Solver runs CflrB on one graph with one normal-form grammar.
type Solver struct {
	g     *graph.Graph
	gr    *Grammar
	opts  Options
	units map[Symbol][]Symbol // unit productions A -> B indexed under B
	occ   map[Symbol][]occurrence
}

// NewSolver prepares a solver; the grammar must be in normal form.
func NewSolver(pg *graph.Graph, gr *Grammar, opts Options) (*Solver, error) {
	if !gr.IsNormalForm() {
		return nil, fmt.Errorf("cflr: grammar is not in normal form; call Normalize")
	}
	if opts.Sets == nil {
		opts.Sets = bitmap.BitsetFactory
	}
	s := &Solver{
		g:     pg,
		gr:    gr,
		opts:  opts,
		units: make(map[Symbol][]Symbol),
		occ:   make(map[Symbol][]occurrence),
	}
	for _, p := range gr.Productions() {
		switch len(p.RHS) {
		case 1:
			if !p.RHS[0].IsTerminal {
				s.units[p.RHS[0].N] = append(s.units[p.RHS[0].N], p.LHS)
			}
		case 2:
			l, r := p.RHS[0], p.RHS[1]
			if !l.IsTerminal {
				s.occ[l.N] = append(s.occ[l.N], occurrence{lhs: p.LHS, sibling: r, onLeft: true})
			}
			if !r.IsTerminal {
				s.occ[r.N] = append(s.occ[r.N], occurrence{lhs: p.LHS, sibling: l, onLeft: false})
			}
		}
	}
	return s, nil
}

func (s *Solver) vertexOK(v graph.VertexID) bool {
	return s.opts.VertexOK == nil || s.opts.VertexOK(v)
}

func (s *Solver) edgeOK(e graph.EdgeID) bool {
	return s.opts.EdgeOK == nil || s.opts.EdgeOK(e)
}

// termOut appends the terminal-successors of v under t: vertices v' such
// that the terminal can take a path position from v to v'.
func (s *Solver) termOut(v graph.VertexID, t Terminal, buf []graph.VertexID) []graph.VertexID {
	switch t.Kind {
	case TermEdge:
		if !t.Inverse {
			for _, e := range s.g.Out(v) {
				if s.g.EdgeLabel(e) == t.Label && s.edgeOK(e) && s.vertexOK(s.g.Dst(e)) {
					buf = append(buf, s.g.Dst(e))
				}
			}
		} else {
			for _, e := range s.g.In(v) {
				if s.g.EdgeLabel(e) == t.Label && s.edgeOK(e) && s.vertexOK(s.g.Src(e)) {
					buf = append(buf, s.g.Src(e))
				}
			}
		}
	case TermVertexLabel:
		if s.g.VertexLabel(v) == t.Label && s.vertexOK(v) {
			buf = append(buf, v)
		}
	case TermVertexToken:
		if v == t.Vertex && s.vertexOK(v) {
			buf = append(buf, v)
		}
	}
	return buf
}

// termIn appends the terminal-predecessors of u under t: vertices u' such
// that the terminal can take a path position from u' to u.
func (s *Solver) termIn(u graph.VertexID, t Terminal, buf []graph.VertexID) []graph.VertexID {
	switch t.Kind {
	case TermEdge:
		if !t.Inverse {
			for _, e := range s.g.In(u) {
				if s.g.EdgeLabel(e) == t.Label && s.edgeOK(e) && s.vertexOK(s.g.Src(e)) {
					buf = append(buf, s.g.Src(e))
				}
			}
		} else {
			for _, e := range s.g.Out(u) {
				if s.g.EdgeLabel(e) == t.Label && s.edgeOK(e) && s.vertexOK(s.g.Dst(e)) {
					buf = append(buf, s.g.Dst(e))
				}
			}
		}
	case TermVertexLabel, TermVertexToken:
		return s.termOut(u, t, buf)
	}
	return buf
}

// Solve runs the CflrB worklist to fixpoint and returns the derived facts.
func (s *Solver) Solve() (*Result, error) {
	n := s.g.NumVertices()
	nsym := s.gr.NumNonterminals()
	res := &Result{
		g:    s.gr,
		rows: make([][]bitmap.Set, nsym),
		cols: make([][]bitmap.Set, nsym),
	}
	for i := 0; i < nsym; i++ {
		res.rows[i] = make([]bitmap.Set, n)
		res.cols[i] = make([]bitmap.Set, n)
	}

	var work []workItem
	head := 0

	add := func(sym Symbol, u, v graph.VertexID) error {
		row := res.rows[sym][u]
		if row == nil {
			row = s.opts.Sets(n)
			res.rows[sym][u] = row
		}
		if !row.Add(uint32(v)) {
			return nil
		}
		col := res.cols[sym][v]
		if col == nil {
			col = s.opts.Sets(n)
			res.cols[sym][v] = col
		}
		col.Add(uint32(u))
		res.numFact++
		if s.opts.MaxFacts > 0 && res.numFact > s.opts.MaxFacts {
			return ErrFactBudget
		}
		work = append(work, workItem{sym: sym, u: uint32(u), v: uint32(v)})
		return nil
	}

	// Seed ground facts from all-terminal productions.
	var buf, buf2 []graph.VertexID
	for _, p := range s.gr.Productions() {
		switch {
		case len(p.RHS) == 1 && p.RHS[0].IsTerminal:
			t := p.RHS[0].T
			if err := s.seedUnit(p.LHS, t, add); err != nil {
				return res, err
			}
		case len(p.RHS) == 2 && p.RHS[0].IsTerminal && p.RHS[1].IsTerminal:
			// A -> t1 t2: compose ground relations.
			t1, t2 := p.RHS[0].T, p.RHS[1].T
			err := s.iterateGround(t1, func(u, mid graph.VertexID) error {
				buf2 = s.termOut(mid, t2, buf2[:0])
				for _, v := range buf2 {
					if err := add(p.LHS, u, v); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return res, err
			}
		}
	}

	// Worklist to fixpoint.
	var diffBuf []uint32
	for head < len(work) {
		it := work[head]
		head++
		u, v := graph.VertexID(it.u), graph.VertexID(it.v)

		for _, lhs := range s.units[it.sym] {
			if err := add(lhs, u, v); err != nil {
				return res, err
			}
		}
		for _, oc := range s.occ[it.sym] {
			if oc.onLeft {
				// LHS -> B C with B = popped fact: extend to the right.
				if oc.sibling.IsTerminal {
					buf = s.termOut(v, oc.sibling.T, buf[:0])
					for _, v2 := range buf {
						if err := add(oc.lhs, u, v2); err != nil {
							return res, err
						}
					}
				} else {
					src := res.rows[oc.sibling.N][v]
					if src == nil {
						continue
					}
					dstRow := res.rows[oc.lhs][u]
					if dstRow == nil {
						dstRow = s.opts.Sets(n)
						res.rows[oc.lhs][u] = dstRow
					}
					diffBuf = src.DiffAddInto(dstRow, diffBuf[:0])
					for _, v2 := range diffBuf {
						col := res.cols[oc.lhs][v2]
						if col == nil {
							col = s.opts.Sets(n)
							res.cols[oc.lhs][graph.VertexID(v2)] = col
						}
						col.Add(it.u)
						res.numFact++
						if s.opts.MaxFacts > 0 && res.numFact > s.opts.MaxFacts {
							return res, ErrFactBudget
						}
						work = append(work, workItem{sym: oc.lhs, u: it.u, v: v2})
					}
				}
			} else {
				// LHS -> C B with B = popped fact: extend to the left.
				if oc.sibling.IsTerminal {
					buf = s.termIn(u, oc.sibling.T, buf[:0])
					for _, u2 := range buf {
						if err := add(oc.lhs, u2, v); err != nil {
							return res, err
						}
					}
				} else {
					src := res.cols[oc.sibling.N][u]
					if src == nil {
						continue
					}
					dstCol := res.cols[oc.lhs][v]
					if dstCol == nil {
						dstCol = s.opts.Sets(n)
						res.cols[oc.lhs][v] = dstCol
					}
					diffBuf = src.DiffAddInto(dstCol, diffBuf[:0])
					for _, u2 := range diffBuf {
						row := res.rows[oc.lhs][u2]
						if row == nil {
							row = s.opts.Sets(n)
							res.rows[oc.lhs][graph.VertexID(u2)] = row
						}
						row.Add(it.v)
						res.numFact++
						if s.opts.MaxFacts > 0 && res.numFact > s.opts.MaxFacts {
							return res, ErrFactBudget
						}
						work = append(work, workItem{sym: oc.lhs, u: u2, v: it.v})
					}
				}
			}
		}
	}
	return res, nil
}

// seedUnit seeds facts for A -> t.
func (s *Solver) seedUnit(lhs Symbol, t Terminal, add func(Symbol, graph.VertexID, graph.VertexID) error) error {
	return s.iterateGround(t, func(u, v graph.VertexID) error { return add(lhs, u, v) })
}

// iterateGround visits all ground pairs of a terminal.
func (s *Solver) iterateGround(t Terminal, fn func(u, v graph.VertexID) error) error {
	switch t.Kind {
	case TermEdge:
		for e := 0; e < s.g.NumEdges(); e++ {
			id := graph.EdgeID(e)
			if s.g.EdgeLabel(id) != t.Label || !s.edgeOK(id) {
				continue
			}
			u, v := s.g.Src(id), s.g.Dst(id)
			if t.Inverse {
				u, v = v, u
			}
			if !s.vertexOK(u) || !s.vertexOK(v) {
				continue
			}
			if err := fn(u, v); err != nil {
				return err
			}
		}
	case TermVertexLabel:
		for _, v := range s.g.VerticesWithLabel(t.Label) {
			if !s.vertexOK(v) {
				continue
			}
			if err := fn(v, v); err != nil {
				return err
			}
		}
	case TermVertexToken:
		if int(t.Vertex) < s.g.NumVertices() && s.vertexOK(t.Vertex) {
			if err := fn(t.Vertex, t.Vertex); err != nil {
				return err
			}
		}
	}
	return nil
}
