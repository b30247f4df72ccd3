package difftest

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// rowOracle is the naive adjacency a snapshot's rows must equal, read
// straight off the edge columns (Src, Dst, EdgeLabel): every vertex's out-
// and in-edges in ascending edge id, as the append order leaves them.
type rowOracle struct{ out, in [][]graph.EdgeID }

func rowsOf(g *graph.Graph) rowOracle {
	o := rowOracle{out: make([][]graph.EdgeID, g.NumVertices()), in: make([][]graph.EdgeID, g.NumVertices())}
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		o.out[g.Src(id)] = append(o.out[g.Src(id)], id)
		o.in[g.Dst(id)] = append(o.in[g.Dst(id)], id)
	}
	return o
}

// row returns v's neighbors and edge ids over label l in one direction.
func (o rowOracle) row(g *graph.Graph, v graph.VertexID, l graph.Label, out bool) (nbrs []graph.VertexID, eids []graph.EdgeID) {
	mixed, end := o.in[v], g.Src
	if out {
		mixed, end = o.out[v], g.Dst
	}
	for _, e := range mixed {
		if g.EdgeLabel(e) == l {
			nbrs, eids = append(nbrs, end(e)), append(eids, e)
		}
	}
	return nbrs, eids
}

// diff asserts that the snapshot fz's rows — every label's rows in both
// directions, with the label's edge count — are the oracle's.
func (o rowOracle) diff(fz *graph.Graph) error {
	count := make([]int, fz.Dict().Len())
	for e := 0; e < fz.NumEdges(); e++ {
		count[fz.EdgeLabel(graph.EdgeID(e))]++
	}
	for l, n := range count {
		if got := fz.EdgesWithLabel(graph.Label(l)); got != n {
			return fmt.Errorf("EdgesWithLabel(%d) = %d, the columns hold %d", l, got, n)
		}
	}
	for v := range o.out {
		id := graph.VertexID(v)
		for l := 0; l < fz.Dict().Len(); l++ {
			for _, out := range []bool{true, false} {
				fn, fe := fz.Rows(graph.Label(l), out).Row(id)
				wn, we := o.row(fz, id, graph.Label(l), out)
				if !slices.Equal(fn, wn) || !slices.Equal(fe, we) {
					return fmt.Errorf("row (%d, %d, out=%v) = (%v,%v), the columns give (%v,%v)", v, l, out, fn, fe, wn, we)
				}
			}
		}
	}
	return nil
}
