package cypher

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/prov"
)

// PROV adapter: resolves the one-letter PROV conventions used in the
// paper's queries ((b:E), [:U|G*]) against the prov package's interned
// labels, and renders the paper's Query 1 for a given (Vsrc, Vdst).

// NewProvEvaluator builds an evaluator over a PROV graph.
func NewProvEvaluator(p *prov.Graph, opts Options) *Evaluator {
	vertexLabel := func(name string) (graph.Label, bool) {
		switch strings.ToUpper(name) {
		case "E":
			return p.KindLabel(prov.KindEntity), true
		case "A":
			return p.KindLabel(prov.KindActivity), true
		case "U":
			return p.KindLabel(prov.KindAgent), true
		}
		return 0, false
	}
	relLabel := func(name string) (graph.Label, bool) {
		switch strings.ToUpper(name) {
		case "U":
			return p.RelLabel(prov.RelUsed), true
		case "G":
			return p.RelLabel(prov.RelGen), true
		case "S":
			return p.RelLabel(prov.RelAssoc), true
		case "A":
			return p.RelLabel(prov.RelAttr), true
		case "D":
			return p.RelLabel(prov.RelDeriv), true
		}
		return 0, false
	}
	trim := func(l graph.Label) string {
		name := p.PG().Dict().Name(l)
		if i := strings.IndexByte(name, ':'); i >= 0 {
			return name[i+1:]
		}
		return name
	}
	return NewEvaluator(p.PG(), vertexLabel, relLabel, trim, trim, opts)
}

func idList(vs []graph.VertexID) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Query1 renders the paper's handcrafted Cypher query for L(SimProv)
// (Sec. III.B.2, "Query 1"): the first MATCH materializes all ancestry
// paths p1 from a source b to a destination e1; the second MATCH finds the
// other half p2 and joins on node-by-node label equality and edge-by-edge
// type equality.
func Query1(src, dst []graph.VertexID) string {
	return fmt.Sprintf(`match p1=(b:E)<-[:U|G*]-(e1:E)
where id(b) in %s and id(e1) in %s
with p1
match p2=(c:E)<-[:U|G*]-(e2:E)
where id(e2) in %s and
  extract(x in nodes(p1) | labels(x)[0])
    = extract(x in nodes(p2) | labels(x)[0]) and
  extract(x in relationships(p1) | type(x))
    = extract(x in relationships(p2) | type(x))
return p2`, idList(src), idList(dst), idList(dst))
}

// CypherVC2 runs Query 1 and post-processes the returned p2 paths into the
// VC2 vertex set (every vertex on a similar path), for cross-checking
// against the native solvers.
//
// Note: Query 1 as written in the paper compares whole-path label
// sequences, so a returned p2 shares only its length pattern with p1; the
// joined pairs are exactly the Ee answer pairs, and the union of vertices
// on all returned p2 paths (plus all p1 paths of matching lengths, which
// the first clause already enumerated from the sources) is VC2.
func CypherVC2(p *prov.Graph, src, dst []graph.VertexID, opts Options) (map[graph.VertexID]bool, error) {
	ev := NewProvEvaluator(p, opts)
	q := fmt.Sprintf(`match p1=(b:E)<-[:U|G*]-(e1:E)
where id(b) in %s and id(e1) in %s
with p1
match p2=(c:E)<-[:U|G*]-(e2:E)
where id(e2) in %s and
  extract(x in nodes(p1) | labels(x)[0])
    = extract(x in nodes(p2) | labels(x)[0]) and
  extract(x in relationships(p1) | type(x))
    = extract(x in relationships(p2) | type(x))
return p1, p2`, idList(src), idList(dst), idList(dst))
	res, err := ev.Run(context.Background(), q)
	if err != nil {
		return nil, err
	}
	out := make(map[graph.VertexID]bool)
	for _, row := range res.Rows {
		for _, v := range row {
			if v.Kind == KindPath {
				for _, vert := range v.P.Verts {
					out[vert] = true
				}
			}
		}
	}
	// Degenerate overlap: a vertex in both Vsrc and Vdst matches with the
	// zero-length palindrome, which the Cypher * (min 1 hop) pattern
	// cannot express; add it the way the paper's system would special-case.
	dstSet := make(map[graph.VertexID]bool, len(dst))
	for _, d := range dst {
		dstSet[d] = true
	}
	for _, s := range src {
		if dstSet[s] {
			out[s] = true
		}
	}
	return out, nil
}
