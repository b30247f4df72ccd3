// Package psum implements the pSum baseline the paper compares PgSum
// against (Sec. V, "Summarization Operator"; Wu et al., "Summarizing answer
// graphs induced by keyword queries", PVLDB 2013).
//
// pSum summarizes a set of answer graphs from keyword search queries. It
// works on UNDIRECTED graphs and preserves paths between keyword vertices.
// Following the paper's adaptation, each PgSeg segment gets a conceptual
// (start, end) keyword vertex pair: start connects to every 0-in-degree
// vertex, end to every 0-out-degree vertex. Vertices are then merged by a
// stable partition refinement over undirected neighborhoods (a
// bisimulation-style criterion), which preserves all label paths between
// the keyword pair but — unlike PgSum — cannot exploit directed in-trace /
// out-trace equivalence, so it merges less on workflow-shaped graphs.
package psum

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Options configure the baseline; it reuses PgSum's property aggregation so
// both summarizers see the same vertex labels.
type Options struct {
	K core.Aggregation
}

// Result is the pSum summary: the merged node count is what the compaction
// ratio compares.
type Result struct {
	// Nodes is the number of summary nodes.
	Nodes int
	// InputVertices is the total number of segment vertex occurrences.
	InputVertices int
	// Classes maps each occurrence (segment index, vertex) to its summary
	// node id.
	Classes map[[2]int]int
}

// CompactionRatio returns nodes / input vertices.
func (r *Result) CompactionRatio() float64 {
	if r.InputVertices == 0 {
		return 1
	}
	return float64(r.Nodes) / float64(r.InputVertices)
}

// label computes the aggregated vertex label (kind + kept properties),
// matching PgSum's base color.
func label(p *prov.Graph, v graph.VertexID, k core.Aggregation) string {
	kind := p.KindOf(v)
	var keys []string
	switch kind {
	case prov.KindEntity:
		keys = k.Entity
	case prov.KindActivity:
		keys = k.Activity
	case prov.KindAgent:
		keys = k.Agent
	}
	var b strings.Builder
	b.WriteString(kind.String())
	for _, key := range keys {
		b.WriteByte('|')
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(p.PG().VertexProp(v, key).AsString())
	}
	return b.String()
}

// Summarize runs the baseline over a set of segments.
func Summarize(segs []*core.Segment, opts Options) *Result {
	// Build the undirected multigraph over all occurrences plus one
	// (start, end) keyword pair per the adaptation (shared across
	// segments so cross-segment merging is possible, as with PgSum).
	type node struct {
		color int
		adj   []int // neighbor node indices (undirected, with edge color folded into neighbor color during refinement)
	}
	var nodes []node
	colorIDs := map[string]int{}
	intern := func(sig string) int {
		if id, ok := colorIDs[sig]; ok {
			return id
		}
		id := len(colorIDs)
		colorIDs[sig] = id
		return id
	}

	occID := map[[2]int]int{}
	addNode := func(sig string) int {
		id := len(nodes)
		nodes = append(nodes, node{color: intern(sig)})
		return id
	}
	start := addNode("__start__")
	end := addNode("__end__")

	total := 0
	for si, s := range segs {
		g := s.P.PG()
		inDeg := map[graph.VertexID]int{}
		outDeg := map[graph.VertexID]int{}
		edges := s.Edges()
		for _, e := range edges {
			outDeg[g.Src(e)]++
			inDeg[g.Dst(e)]++
		}
		for _, v := range s.Vertices() {
			id := addNode(label(s.P, v, opts.K))
			occID[[2]int{si, int(v)}] = id
			total++
			if inDeg[v] == 0 {
				nodes[start].adj = append(nodes[start].adj, id)
				nodes[id].adj = append(nodes[id].adj, start)
			}
			if outDeg[v] == 0 {
				nodes[end].adj = append(nodes[end].adj, id)
				nodes[id].adj = append(nodes[id].adj, end)
			}
		}
		for _, e := range edges {
			f := occID[[2]int{si, int(g.Src(e))}]
			t := occID[[2]int{si, int(g.Dst(e))}]
			nodes[f].adj = append(nodes[f].adj, t)
			nodes[t].adj = append(nodes[t].adj, f)
		}
	}

	// Stable partition refinement over undirected neighbor color sets:
	// iterate until the coloring stabilizes (coarsest stable partition
	// refining the initial labels).
	colors := make([]int, len(nodes))
	for i, nd := range nodes {
		colors[i] = nd.color
	}
	for iter := 0; iter < len(nodes); iter++ {
		next := make([]int, len(nodes))
		sigIDs := map[string]int{}
		changedStructure := false
		for i, nd := range nodes {
			neigh := make([]int, 0, len(nd.adj))
			for _, a := range nd.adj {
				neigh = append(neigh, colors[a])
			}
			sort.Ints(neigh)
			// Neighbor color SET (not multiset): pSum merges vertices whose
			// neighborhoods look alike regardless of multiplicity, which is
			// what keeps keyword paths intact on undirected answer graphs.
			uniq := neigh[:0]
			prev := -1
			for _, c := range neigh {
				if c != prev {
					uniq = append(uniq, c)
					prev = c
				}
			}
			var b strings.Builder
			for _, c := range uniq {
				b.WriteByte(',')
				b.WriteString(itoa(c))
			}
			sig := itoa(colors[i]) + ";" + b.String()
			id, ok := sigIDs[sig]
			if !ok {
				id = len(sigIDs)
				sigIDs[sig] = id
			}
			next[i] = id
		}
		same := countDistinct(colors) == countDistinct(next)
		colors = next
		if same && !changedStructure {
			break
		}
	}

	classes := make(map[[2]int]int, total)
	for occ, id := range occID {
		classes[occ] = colors[id]
	}
	distinct := map[int]bool{}
	for _, c := range classes {
		distinct[c] = true
	}
	return &Result{Nodes: len(distinct), InputVertices: total, Classes: classes}
}

func countDistinct(xs []int) int {
	m := map[int]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return len(m)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}
