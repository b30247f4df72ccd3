package cypher

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/graph"
)

// Value is a runtime value: vertex, edge, path, list, string, int or bool.
type Value struct {
	Kind ValueKind
	V    graph.VertexID
	E    graph.EdgeID
	P    *PathValue
	L    []Value
	S    string
	I    int64
	B    bool
}

// ValueKind tags runtime values.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindVertex
	KindEdge
	KindPath
	KindList
	KindString
	KindInt
	KindBool
)

// PathValue is a materialized path binding.
type PathValue struct {
	Verts []graph.VertexID
	Edges []graph.EdgeID
}

// Equal is deep value equality.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindVertex:
		return v.V == o.V
	case KindEdge:
		return v.E == o.E
	case KindPath:
		if len(v.P.Edges) != len(o.P.Edges) || len(v.P.Verts) != len(o.P.Verts) {
			return false
		}
		for i := range v.P.Edges {
			if v.P.Edges[i] != o.P.Edges[i] {
				return false
			}
		}
		for i := range v.P.Verts {
			if v.P.Verts[i] != o.P.Verts[i] {
				return false
			}
		}
		return true
	case KindList:
		if len(v.L) != len(o.L) {
			return false
		}
		for i := range v.L {
			if !v.L[i].Equal(o.L[i]) {
				return false
			}
		}
		return true
	case KindString:
		return v.S == o.S
	case KindInt:
		return v.I == o.I
	case KindBool:
		return v.B == o.B
	}
	return false
}

// Options bound evaluation cost (the baseline is exponential by design).
type Options struct {
	// Timeout aborts evaluation with ErrTimeout (0 = no limit): it is a
	// context.WithTimeout around the evaluation's context.
	Timeout time.Duration
	// MaxRows aborts when an intermediate binding table exceeds this many
	// rows (0 = no limit).
	MaxRows int
	// MaxPathLen caps variable-length pattern expansion (0 = number of
	// graph edges, i.e. effectively unbounded on a DAG).
	MaxPathLen int
}

// ErrTimeout is returned when evaluation exceeds its deadline — Timeout's or
// its context's — the practical rendering of the paper's ">12 hours on
// Pd100".
var ErrTimeout = errors.New("cypher: evaluation deadline exceeded")

// ErrRowBudget is returned when an intermediate result exceeds MaxRows.
var ErrRowBudget = errors.New("cypher: row budget exceeded")

// Evaluator executes parsed queries over a property graph.
type Evaluator struct {
	g    *graph.Graph
	opts Options

	// vertexLabel resolves node-pattern label names ("E") to graph labels.
	vertexLabel func(string) (graph.Label, bool)
	// relLabel resolves relationship type names ("U") to graph labels.
	relLabel func(string) (graph.Label, bool)
	// labelName renders a vertex's label for labels(n).
	labelName func(graph.Label) string
	// relName renders an edge's label for type(r).
	relName func(graph.Label) string

	done  <-chan struct{} // the evaluation's context's Done (nil: never)
	ctx   context.Context
	steps uint64

	// naive turns planning off: planPattern stands down, and the DFS
	// enumerates every path the rows give, unpruned. It is the oracle the
	// planner's tests hold it to, and the baseline CypherVC2 times. Nothing
	// else sets it.
	naive bool
}

// NewEvaluator builds an evaluator with explicit label resolvers over a
// snapshot (graph.Freeze); it panics on a live graph, which keeps no
// adjacency rows.
func NewEvaluator(g *graph.Graph, vertexLabel, relLabel func(string) (graph.Label, bool),
	labelName, relName func(graph.Label) string, opts Options) *Evaluator {
	g.MustBeFrozen("cypher.NewEvaluator")
	return &Evaluator{
		g:           g,
		opts:        opts,
		vertexLabel: vertexLabel,
		relLabel:    relLabel,
		labelName:   labelName,
		relName:     relName,
	}
}

// row is one binding of variables to values.
type row map[string]Value

func (r row) clone() row {
	out := make(row, len(r)+2)
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Result is the RETURN projection: one []Value per row.
type Result struct {
	Rows [][]Value
}

// Run parses and evaluates a query under ctx (see Eval).
func (ev *Evaluator) Run(ctx context.Context, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ev.Eval(ctx, q)
}

// Eval evaluates a parsed query. It stops once ctx is done, with ErrTimeout
// past a deadline and with ctx's error otherwise (a server passes the
// request's context, so a client that hangs up stops the evaluation it
// started).
func (ev *Evaluator) Eval(ctx context.Context, q *Query) (*Result, error) {
	if ev.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ev.opts.Timeout)
		defer cancel()
	}
	ev.ctx, ev.done = ctx, ctx.Done()
	rows := []row{{}}
	var err error
	for _, cl := range q.Clauses {
		switch c := cl.(type) {
		case MatchClause:
			rows, err = ev.evalMatch(c, rows)
		case WithClause:
			rows, err = ev.evalWith(c, rows)
		}
		if err != nil {
			return nil, err
		}
	}
	res := &Result{}
	for _, r := range rows {
		if err := ev.stepBudget(); err != nil {
			return nil, err
		}
		proj := make([]Value, 0, len(q.Return))
		for _, e := range q.Return {
			v, err := ev.evalExpr(e, r)
			if err != nil {
				return nil, err
			}
			proj = append(proj, v)
		}
		res.Rows = append(res.Rows, proj)
	}
	return res, nil
}

func (ev *Evaluator) checkBudget(n int) error {
	if err := ev.stopped(); err != nil {
		return err
	}
	if ev.opts.MaxRows > 0 && n > ev.opts.MaxRows {
		return ErrRowBudget
	}
	return nil
}

// stepBudget counts work — DFS steps, and rows filtered, carried or
// projected — between context checks, so neither an exponential expansion
// nor a large binding table outruns the deadline.
func (ev *Evaluator) stepBudget() error {
	ev.steps++
	if ev.steps&0xfff != 0 {
		return nil
	}
	return ev.stopped()
}

// stopped returns, once the evaluation's context is done, ErrTimeout past
// its deadline and its error otherwise.
func (ev *Evaluator) stopped() error {
	select {
	case <-ev.done:
		if err := ev.ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("cypher: evaluation stopped: %w", err)
		}
		return ErrTimeout
	default:
		return nil
	}
}

func (ev *Evaluator) evalWith(c WithClause, rows []row) ([]row, error) {
	out := make([]row, 0, len(rows))
	for _, r := range rows {
		if err := ev.stepBudget(); err != nil {
			return nil, err
		}
		nr := make(row, len(c.Vars))
		for _, v := range c.Vars {
			val, ok := r[v]
			if !ok {
				return nil, fmt.Errorf("cypher: WITH references unbound variable %q", v)
			}
			nr[v] = val
		}
		out = append(out, nr)
	}
	return out, nil
}

// evalMatch expands every pattern against every current row — the naive
// "materialize all paths per path variable, then join" plan.
func (ev *Evaluator) evalMatch(c MatchClause, rows []row) ([]row, error) {
	// idConstraints: var name -> allowed vertex ids, mined from the WHERE
	// clause to seed enumeration (mirrors "we always use id to seek the
	// nodes" in the paper's setup).
	seeds := mineIDConstraints(c.Where)

	cur := rows
	for _, pat := range c.Patterns {
		var next []row
		blocks := ev.patternRows(pat)
		for _, r := range cur {
			expanded, err := ev.expandPattern(pat, blocks, r, seeds)
			if err != nil {
				return nil, err
			}
			next = append(next, expanded...)
			if err := ev.checkBudget(len(next)); err != nil {
				return nil, err
			}
		}
		cur = next
	}
	if c.Where == nil {
		return cur, nil
	}
	out := cur[:0:0]
	for _, r := range cur {
		if err := ev.stepBudget(); err != nil {
			return nil, err
		}
		v, err := ev.evalExpr(c.Where, r)
		if err != nil {
			return nil, err
		}
		if v.Kind == KindBool && v.B {
			out = append(out, r)
		}
	}
	return out, nil
}

// mineIDConstraints extracts id(x) = n / id(x) IN [..] conjuncts.
func mineIDConstraints(e Expr) map[string][]graph.VertexID {
	out := make(map[string][]graph.VertexID)
	var walk func(Expr)
	walk = func(e Expr) {
		be, ok := e.(BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case "AND":
			walk(be.L)
			walk(be.R)
		case "=", "IN":
			call, ok := be.L.(CallExpr)
			if !ok || call.Fn != "id" || len(call.Args) != 1 {
				return
			}
			vr, ok := call.Args[0].(VarExpr)
			if !ok {
				return
			}
			switch rhs := be.R.(type) {
			case NumberExpr:
				out[vr.Name] = append(out[vr.Name], graph.VertexID(rhs.Value))
			case ListExpr:
				for _, item := range rhs.Items {
					if n, ok := item.(NumberExpr); ok {
						out[vr.Name] = append(out[vr.Name], graph.VertexID(n.Value))
					}
				}
			}
		}
	}
	walk(e)
	return out
}

// expandPattern enumerates all bindings of one path pattern compatible with
// an existing row, reading each relationship's blocks (patternRows). The
// planner's prune sets (plan.go) cut enumeration branches that provably
// cannot complete; the surviving rows and their order are identical to the
// unplanned DFS.
func (ev *Evaluator) expandPattern(pat PathPattern, blocks [][2][]graph.Rows, base row, seeds map[string][]graph.VertexID) ([]row, error) {
	var out []row

	plan := ev.planPattern(pat, base, seeds)
	if plan != nil && plan.empty {
		return nil, nil
	}

	// candidates for the first node.
	first := pat.Nodes[0]
	cands, err := ev.nodeCandidates(first, base, seeds)
	if err != nil {
		return nil, err
	}

	maxLen := ev.opts.MaxPathLen
	if maxLen <= 0 {
		maxLen = ev.g.NumEdges()
	}

	var verts []graph.VertexID
	var edgesAcc []graph.EdgeID

	var matchFrom func(ni int, r row) error
	var expandRel func(ni int, hops int, rp RelPattern, cur graph.VertexID, r row) error

	bindNode := func(np NodePattern, v graph.VertexID, r row) (row, bool) {
		// Mined id(x) constraints can carry ids outside the graph; they
		// bind nothing.
		if int(v) >= ev.g.NumVertices() {
			return nil, false
		}
		if np.Label != "" {
			l, ok := ev.vertexLabel(np.Label)
			if !ok || ev.g.VertexLabel(v) != l {
				return nil, false
			}
		}
		if np.Var != "" {
			if bound, ok := r[np.Var]; ok {
				if bound.Kind != KindVertex || bound.V != v {
					return nil, false
				}
				return r, true
			}
			nr := r.clone()
			nr[np.Var] = Value{Kind: KindVertex, V: v}
			return nr, true
		}
		return r, true
	}

	matchFrom = func(ni int, r row) error {
		if ni == len(pat.Rels) {
			// Pattern complete: bind the path variable.
			final := r
			if pat.PathVar != "" {
				final = r.clone()
				final[pat.PathVar] = Value{Kind: KindPath, P: &PathValue{
					Verts: append([]graph.VertexID(nil), verts...),
					Edges: append([]graph.EdgeID(nil), edgesAcc...),
				}}
			}
			out = append(out, final)
			return ev.checkBudget(len(out))
		}
		return expandRel(ni, 0, pat.Rels[ni], verts[len(verts)-1], r)
	}

	expandRel = func(ni, hops int, rp RelPattern, cur graph.VertexID, r row) error {
		if err := ev.stepBudget(); err != nil {
			return err
		}
		minHops, maxHops := 1, 1
		if rp.VarLen {
			minHops = rp.MinHops
			maxHops = rp.MaxHops
			if maxHops == 0 {
				maxHops = maxLen
			}
		}
		if hops >= minHops && plan.allowedOK(ni+1, cur) {
			// Try to close the relationship at the current vertex (which
			// is already the last element of verts).
			nr, ok := bindNode(pat.Nodes[ni+1], cur, r)
			if ok {
				if err := matchFrom(ni+1, nr); err != nil {
					return err
				}
			}
		}
		if hops == maxHops {
			return nil
		}
		step := func(e graph.EdgeID, nxt graph.VertexID) error {
			// Planner prune: nxt provably on no admissible binding of this
			// relationship.
			if !plan.pathOK(ni, nxt) {
				return nil
			}
			// Cypher relationship isomorphism: edges on a path are distinct.
			for _, used := range edgesAcc {
				if used == e {
					return nil
				}
			}
			edgesAcc = append(edgesAcc, e)
			verts = append(verts, nxt)
			err := expandRel(ni, hops+1, rp, nxt, r)
			verts = verts[:len(verts)-1]
			edgesAcc = edgesAcc[:len(edgesAcc)-1]
			return err
		}
		if err := ev.iterRelEdges(cur, blocks[ni][0], step); err != nil {
			return err
		}
		return ev.iterRelEdges(cur, blocks[ni][1], step)
	}

	for _, v := range cands {
		if !plan.allowedOK(0, v) {
			continue
		}
		r, ok := bindNode(first, v, base)
		if !ok {
			continue
		}
		verts = append(verts[:0], v)
		edgesAcc = edgesAcc[:0]
		if err := matchFrom(0, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nodeCandidates picks the starting vertex set for pattern expansion:
// an already-bound variable, an id-constraint seed, a label scan, or a
// full scan.
func (ev *Evaluator) nodeCandidates(np NodePattern, base row, seeds map[string][]graph.VertexID) ([]graph.VertexID, error) {
	if np.Var != "" {
		if bound, ok := base[np.Var]; ok {
			if bound.Kind != KindVertex {
				return nil, fmt.Errorf("cypher: variable %q is not a vertex", np.Var)
			}
			return []graph.VertexID{bound.V}, nil
		}
		if ids, ok := seeds[np.Var]; ok {
			return ids, nil
		}
	}
	if np.Label != "" {
		if l, ok := ev.vertexLabel(np.Label); ok {
			return ev.g.VerticesWithLabel(l), nil
		}
		return nil, nil
	}
	all := make([]graph.VertexID, ev.g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	return all, nil
}

// evalExpr evaluates an expression under a row.
func (ev *Evaluator) evalExpr(e Expr, r row) (Value, error) {
	switch x := e.(type) {
	case NumberExpr:
		return Value{Kind: KindInt, I: x.Value}, nil
	case StringExpr:
		return Value{Kind: KindString, S: x.Value}, nil
	case VarExpr:
		v, ok := r[x.Name]
		if !ok {
			return Value{}, fmt.Errorf("cypher: unbound variable %q", x.Name)
		}
		return v, nil
	case ListExpr:
		out := Value{Kind: KindList}
		for _, item := range x.Items {
			v, err := ev.evalExpr(item, r)
			if err != nil {
				return Value{}, err
			}
			out.L = append(out.L, v)
		}
		return out, nil
	case IndexExpr:
		base, err := ev.evalExpr(x.E, r)
		if err != nil {
			return Value{}, err
		}
		idx, err := ev.evalExpr(x.Index, r)
		if err != nil {
			return Value{}, err
		}
		if base.Kind != KindList || idx.Kind != KindInt {
			return Value{}, fmt.Errorf("cypher: bad index expression")
		}
		if idx.I < 0 || int(idx.I) >= len(base.L) {
			return Value{Kind: KindNull}, nil
		}
		return base.L[idx.I], nil
	case NotExpr:
		v, err := ev.evalExpr(x.E, r)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindBool, B: !(v.Kind == KindBool && v.B)}, nil
	case BinaryExpr:
		return ev.evalBinary(x, r)
	case CallExpr:
		return ev.evalCall(x, r)
	case ExtractExpr:
		list, err := ev.evalExpr(x.List, r)
		if err != nil {
			return Value{}, err
		}
		if list.Kind != KindList {
			return Value{}, fmt.Errorf("cypher: extract over non-list")
		}
		// Each item binds x in r itself, and r gets its own binding of x
		// (or none) back before extract returns: no value evalExpr returns
		// refers to the table, so no copy of it is needed.
		prev, bound := r[x.Var]
		out := Value{Kind: KindList, L: make([]Value, 0, len(list.L))}
		for _, item := range list.L {
			r[x.Var] = item
			var v Value
			if v, err = ev.evalExpr(x.Body, r); err != nil {
				break
			}
			out.L = append(out.L, v)
		}
		if bound {
			r[x.Var] = prev
		} else {
			delete(r, x.Var)
		}
		if err != nil {
			return Value{}, err
		}
		return out, nil
	}
	return Value{}, fmt.Errorf("cypher: unsupported expression %T", e)
}

// evalBinary evaluates a binary operator. AND and OR evaluate their right
// operand only when the left does not decide the result, so a WHERE
// conjunction costs a row that fails its first conjunct only that conjunct.
func (ev *Evaluator) evalBinary(x BinaryExpr, r row) (Value, error) {
	l, err := ev.evalExpr(x.L, r)
	if err != nil {
		return Value{}, err
	}
	switch {
	case x.Op == "AND" && !truthy(l):
		return Value{Kind: KindBool}, nil
	case x.Op == "OR" && truthy(l):
		return Value{Kind: KindBool, B: true}, nil
	}
	rv, err := ev.evalExpr(x.R, r)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "AND", "OR":
		return Value{Kind: KindBool, B: truthy(rv)}, nil
	case "=":
		return Value{Kind: KindBool, B: l.Equal(rv)}, nil
	case "<>":
		return Value{Kind: KindBool, B: !l.Equal(rv)}, nil
	case "IN":
		if rv.Kind != KindList {
			return Value{}, fmt.Errorf("cypher: IN requires a list")
		}
		for _, item := range rv.L {
			if l.Equal(item) {
				return Value{Kind: KindBool, B: true}, nil
			}
		}
		return Value{Kind: KindBool, B: false}, nil
	}
	return Value{}, fmt.Errorf("cypher: unsupported operator %q", x.Op)
}

func truthy(v Value) bool { return v.Kind == KindBool && v.B }

func (ev *Evaluator) evalCall(x CallExpr, r row) (Value, error) {
	arg := func(i int) (Value, error) {
		if i >= len(x.Args) {
			return Value{}, fmt.Errorf("cypher: %s: missing argument", x.Fn)
		}
		return ev.evalExpr(x.Args[i], r)
	}
	switch x.Fn {
	case "id":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		switch v.Kind {
		case KindVertex:
			return Value{Kind: KindInt, I: int64(v.V)}, nil
		case KindEdge:
			return Value{Kind: KindInt, I: int64(v.E)}, nil
		}
		return Value{}, fmt.Errorf("cypher: id() of non-element")
	case "labels":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindVertex {
			return Value{}, fmt.Errorf("cypher: labels() of non-vertex")
		}
		name := ev.labelName(ev.g.VertexLabel(v.V))
		return Value{Kind: KindList, L: []Value{{Kind: KindString, S: name}}}, nil
	case "type":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindEdge {
			return Value{}, fmt.Errorf("cypher: type() of non-edge")
		}
		return Value{Kind: KindString, S: ev.relName(ev.g.EdgeLabel(v.E))}, nil
	case "length":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		switch v.Kind {
		case KindPath:
			return Value{Kind: KindInt, I: int64(len(v.P.Edges))}, nil
		case KindList:
			return Value{Kind: KindInt, I: int64(len(v.L))}, nil
		}
		return Value{}, fmt.Errorf("cypher: length() of non-path")
	case "nodes":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindPath {
			return Value{}, fmt.Errorf("cypher: nodes() of non-path")
		}
		out := Value{Kind: KindList, L: make([]Value, 0, len(v.P.Verts))}
		for _, vert := range v.P.Verts {
			out.L = append(out.L, Value{Kind: KindVertex, V: vert})
		}
		return out, nil
	case "relationships":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindPath {
			return Value{}, fmt.Errorf("cypher: relationships() of non-path")
		}
		out := Value{Kind: KindList, L: make([]Value, 0, len(v.P.Edges))}
		for _, e := range v.P.Edges {
			out.L = append(out.L, Value{Kind: KindEdge, E: e})
		}
		return out, nil
	}
	return Value{}, fmt.Errorf("cypher: unknown function %q", x.Fn)
}

// String renders a value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindVertex:
		return fmt.Sprintf("(%d)", v.V)
	case KindEdge:
		return fmt.Sprintf("[%d]", v.E)
	case KindPath:
		parts := make([]string, 0, len(v.P.Verts))
		for _, vert := range v.P.Verts {
			parts = append(parts, fmt.Sprintf("(%d)", vert))
		}
		return strings.Join(parts, "-")
	case KindList:
		parts := make([]string, 0, len(v.L))
		for _, item := range v.L {
			parts = append(parts, item.String())
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindString:
		return v.S
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	}
	return "null"
}
