package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
)

// edit replaces src[off:end] with text.
type edit struct {
	off, end int
	text     string
}

// mutant is one small change to one file. Its id names it independently of
// line numbers, so a verdict recorded for it survives edits elsewhere in the
// file: the enclosing function, the operator, the text before and after,
// and an ordinal among the file's mutants with the same four.
type mutant struct {
	file  string // module-relative, slash-separated
	line  int
	col   int
	fn    string
	op    string
	orig  string
	repl  string
	ord   int
	edits []edit
}

func (m *mutant) id() string {
	return fmt.Sprintf("%s %s: %s -> %s #%d", m.fn, m.op, m.orig, m.repl, m.ord)
}

// apply returns src with the mutant's edits made.
func (m *mutant) apply(src []byte) []byte {
	es := slices.Clone(m.edits)
	slices.SortFunc(es, func(a, b edit) int { return b.off - a.off })
	out := slices.Clone(src)
	for _, e := range es {
		out = slices.Concat(out[:e.off], []byte(e.text), out[e.end:])
	}
	return out
}

// The operators.
var swaps = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.LAND: token.LOR, token.LOR: token.LAND,
}

// generate lists the mutants of one Go source file, in source order.
func generate(name string, src []byte) ([]*mutant, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	g := &generator{fset: fset, src: src, name: name, seen: map[string]int{}}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			g.fn = funcName(d)
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			g.fn = "(package)"
		}
		g.walk(d)
	}
	return g.out, nil
}

type generator struct {
	fset  *token.FileSet
	src   []byte
	name  string
	fn    string
	funcs []*ast.FuncType // enclosing function signatures, innermost last
	out   []*mutant
	seen  map[string]int // ordinal counter per fn/op/orig/repl
}

// walk visits n's subtree and emits its mutants.
func (g *generator) walk(n ast.Node) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				g.funcs = g.funcs[:len(g.funcs)-1]
			}
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			g.funcs = append(g.funcs, n.Type)
		case *ast.FuncLit:
			g.funcs = append(g.funcs, n.Type)
		case *ast.BinaryExpr:
			g.binary(n)
		case *ast.BasicLit:
			g.literal(n, stack)
		case *ast.IfStmt:
			g.add(n.Cond.Pos(), "negate", "if "+g.text(n.Cond), "if !("+g.text(n.Cond)+")",
				edit{g.off(n.Cond.Pos()), g.off(n.Cond.Pos()), "!("},
				edit{g.off(n.Cond.End()), g.off(n.Cond.End()), ")"})
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && !blankOnly(n.Lhs) {
				g.deleteStmt(n)
			}
		case *ast.IncDecStmt:
			g.deleteStmt(n)
		case *ast.ExprStmt:
			if _, ok := n.X.(*ast.CallExpr); ok {
				g.deleteStmt(n)
			}
		case *ast.BranchStmt:
			to := map[token.Token]token.Token{token.BREAK: token.CONTINUE, token.CONTINUE: token.BREAK}[n.Tok]
			if to != token.ILLEGAL {
				g.add(n.Pos(), "branch", n.Tok.String(), to.String(),
					edit{g.off(n.TokPos), g.off(n.TokPos) + len(n.Tok.String()), to.String()})
			}
		case *ast.ReturnStmt:
			g.zeroReturn(n)
		}
		return true
	})
}

func (g *generator) binary(n *ast.BinaryExpr) {
	if to, ok := swaps[n.Op]; ok {
		op := "cmp"
		if n.Op == token.LAND || n.Op == token.LOR {
			op = "logic"
		}
		at := g.off(n.OpPos)
		g.add(n.OpPos, op, g.text(n), g.text(n.X)+" "+to.String()+" "+g.text(n.Y),
			edit{at, at + len(n.Op.String()), to.String()})
	}
	if n.Op == token.ADD || n.Op == token.SUB {
		if isOne(n.Y) {
			g.add(n.OpPos, "offset", g.text(n), g.text(n.X), edit{g.off(n.X.End()), g.off(n.Y.End()), ""})
		} else if n.Op == token.ADD && isOne(n.X) {
			g.add(n.OpPos, "offset", g.text(n), g.text(n.Y), edit{g.off(n.X.Pos()), g.off(n.Y.Pos()), ""})
		}
	}
}

// literal emits an integer literal's ±1. A 1 that is the offset of an
// x+1 or x-1 gets no 0, which the offset operator's dropped term already is.
func (g *generator) literal(n *ast.BasicLit, stack []ast.Node) {
	if n.Kind != token.INT {
		return
	}
	v, err := strconv.ParseUint(n.Value, 0, 64)
	if err != nil {
		return
	}
	at, end := g.off(n.Pos()), g.off(n.End())
	g.add(n.Pos(), "lit", n.Value, strconv.FormatUint(v+1, 10), edit{at, end, strconv.FormatUint(v+1, 10)})
	if v == 1 && len(stack) >= 2 {
		if b, ok := stack[len(stack)-2].(*ast.BinaryExpr); ok && (b.Op == token.ADD || b.Op == token.SUB) {
			return
		}
	}
	down := "(-1)"
	if v > 0 {
		down = strconv.FormatUint(v-1, 10)
	}
	g.add(n.Pos(), "lit", n.Value, down, edit{at, end, down})
}

func (g *generator) deleteStmt(s ast.Stmt) {
	g.add(s.Pos(), "delete", g.text(s), "(deleted)", edit{g.off(s.Pos()), g.off(s.End()), ""})
}

// zeroReturn makes a return statement return its function's zero values.
func (g *generator) zeroReturn(r *ast.ReturnStmt) {
	if len(r.Results) == 0 || len(g.funcs) == 0 {
		return
	}
	ft := g.funcs[len(g.funcs)-1]
	if ft.Results == nil {
		return
	}
	var zeros []string
	for _, f := range ft.Results.List {
		for range max(1, len(f.Names)) {
			zeros = append(zeros, zeroOf(f.Type, g.text(f.Type)))
		}
	}
	orig := make([]string, len(r.Results))
	for i, e := range r.Results {
		orig[i] = g.text(e)
	}
	if slices.Equal(orig, zeros) {
		return
	}
	from, to := r.Results[0].Pos(), r.Results[len(r.Results)-1].End()
	repl := strings.Join(zeros, ", ")
	g.add(r.Pos(), "zero", "return "+strings.Join(orig, ", "), "return "+repl, edit{g.off(from), g.off(to), repl})
}

// zeroOf is the source text of type t's zero value.
func zeroOf(t ast.Expr, text string) string {
	switch t := t.(type) {
	case *ast.Ident:
		switch t.Name {
		case "bool":
			return "false"
		case "string":
			return `""`
		case "error", "any":
			return "nil"
		case "int", "int8", "int16", "int32", "int64", "uint", "uint8", "uint16", "uint32", "uint64",
			"uintptr", "byte", "rune", "float32", "float64":
			return "0"
		}
	case *ast.StarExpr, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType:
		return "nil"
	case *ast.ArrayType:
		if t.Len == nil {
			return "nil"
		}
	}
	return "*new(" + text + ")"
}

func (g *generator) add(pos token.Pos, op, orig, repl string, es ...edit) {
	p := g.fset.Position(pos)
	m := &mutant{file: g.name, line: p.Line, col: p.Column, fn: g.fn, op: op,
		orig: oneLine(orig), repl: oneLine(repl), edits: es}
	key := m.fn + "\x00" + m.op + "\x00" + m.orig + "\x00" + m.repl
	g.seen[key]++
	m.ord = g.seen[key]
	g.out = append(g.out, m)
}

func (g *generator) off(p token.Pos) int { return g.fset.Position(p).Offset }

func (g *generator) text(n ast.Node) string { return string(g.src[g.off(n.Pos()):g.off(n.End())]) }

// oneLine collapses a snippet's whitespace and cuts it to 60 runes, so an
// id fits on one line of the verdict file.
func oneLine(s string) string {
	r := []rune(strings.Join(strings.Fields(s), " "))
	if len(r) > 60 {
		return string(r[:57]) + "..."
	}
	return string(r)
}

func isOne(e ast.Expr) bool {
	l, ok := e.(*ast.BasicLit)
	return ok && l.Kind == token.INT && l.Value == "1"
}

func blankOnly(lhs []ast.Expr) bool {
	for _, e := range lhs {
		if id, ok := e.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// funcName is "Name" or "Recv.Name" for a method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := ""
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return recv + "." + d.Name.Name
}
