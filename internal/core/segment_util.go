package core

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// NewSegment builds a segment directly from an explicit vertex set: VS is
// the (deduplicated) vertex list and ES every provenance edge among them.
// This is how externally delimited segments (e.g. the Sd generator's, or a
// per-commit slice) enter PgSum without going through a PgSeg query.
func NewSegment(p *prov.Graph, vertices []graph.VertexID) *Segment {
	s := &Segment{P: p, vset: bitmap.NewBitset(p.NumVertices())}
	for _, v := range vertices {
		s.vset.Add(uint32(v))
	}
	s.Vertices = setToVertices(s.vset)
	s.Rules = make([]Rule, len(s.Vertices)) // all RuleQuery
	g := p.PG()
	for _, v := range s.Vertices {
		for _, e := range g.Out(v) {
			if s.vset.Contains(uint32(g.Dst(e))) {
				s.Edges = append(s.Edges, e)
			}
		}
	}
	sort.Slice(s.Edges, func(i, j int) bool { return s.Edges[i] < s.Edges[j] })
	return s
}

// displayName renders a vertex for human-readable output.
func displayName(p *prov.Graph, v graph.VertexID) string {
	if n := p.Name(v); n != "" {
		return n
	}
	return fmt.Sprintf("%v#%d", p.KindOf(v), v)
}

// Render writes a compact text description of the segment: the query
// vertices, then each induced vertex with its rule, then the edges.
func (s *Segment) Render(w io.Writer) {
	fmt.Fprintf(w, "segment: |V|=%d |E|=%d\n", len(s.Vertices), len(s.Edges))
	fmt.Fprintf(w, "  src: %s\n", nameList(s.P, s.Src))
	fmt.Fprintf(w, "  dst: %s\n", nameList(s.P, s.Dst))
	byRule := map[Rule][]graph.VertexID{}
	for i, v := range s.Vertices {
		byRule[s.Rules[i]] = append(byRule[s.Rules[i]], v)
	}
	for _, r := range []Rule{RuleC1, RuleC2, RuleC3, RuleC4} {
		if vs := byRule[r]; len(vs) > 0 {
			fmt.Fprintf(w, "  %s: %s\n", r, nameList(s.P, vs))
		}
	}
	for _, e := range s.Edges {
		g := s.P.PG()
		fmt.Fprintf(w, "  %s -[%s]-> %s\n",
			displayName(s.P, g.Src(e)), s.P.RelOf(e), displayName(s.P, g.Dst(e)))
	}
}

func nameList(p *prov.Graph, vs []graph.VertexID) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = displayName(p, v)
	}
	return strings.Join(names, ", ")
}

// WriteDOT renders the segment as graphviz DOT.
func (s *Segment) WriteDOT(w io.Writer) error {
	subset := make(map[graph.VertexID]bool, len(s.Vertices))
	for _, v := range s.Vertices {
		subset[v] = true
	}
	return s.P.PG().WriteDOT(w, graph.DOTOptions{
		NameProp: prov.PropName,
		Subset:   subset,
		VertexShape: map[string]string{
			"v:E": "ellipse",
			"v:A": "box",
			"v:U": "house",
		},
	})
}

// Render writes the summary graph in a readable adjacency form, annotating
// vertices with member counts and edges with frequencies (Fig. 2(e)).
func (p *Psg) Render(w io.Writer) {
	fmt.Fprintf(w, "psg: %d nodes (from %d vertices in %d segments), %d edges, cr=%.3f\n",
		len(p.Nodes), p.InputVertices, p.Segments, len(p.Edges), p.CompactionRatio())
	for i, n := range p.Nodes {
		fmt.Fprintf(w, "  [%d] %s x%d\n", i, n.Label, len(n.Members))
	}
	for _, e := range p.Edges {
		fmt.Fprintf(w, "  [%d] -[%s %d%%]-> [%d]\n", e.From, e.Rel, int(e.Freq*100+0.5), e.To)
	}
}

// WriteDOT renders the summary graph as graphviz DOT with frequency-labeled
// edges.
func (p *Psg) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph psg {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	for i, n := range p.Nodes {
		// The label quoted as graph.WriteDOT's %q does (an aggregated property
		// value may hold quotes, backslashes or newlines), reopened for the
		// member count on a line of its own.
		q := strconv.Quote(n.Label)
		fmt.Fprintf(w, "  n%d [label=%s\\nx%d\"];\n", i, q[:len(q)-1], len(n.Members))
	}
	for _, e := range p.Edges {
		fmt.Fprintf(w, "  n%d -> n%d [label=\"%s %d%%\"];\n", e.From, e.To, e.Rel, int(e.Freq*100+0.5))
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
