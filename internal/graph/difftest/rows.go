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

// diff asserts that the snapshot fz's rows — every label's rows in both
// directions, with the label's edge count — are the oracle's.
func (o rowOracle) diff(fz *graph.Graph) error {
	nl := fz.Dict().Len()
	count := make([]int, nl)
	for e := 0; e < fz.NumEdges(); e++ {
		count[fz.EdgeLabel(graph.EdgeID(e))]++
	}
	for l, n := range count {
		if got := fz.EdgesWithLabel(graph.Label(l)); got != n {
			return fmt.Errorf("EdgesWithLabel(%d) = %d, the columns hold %d", l, got, n)
		}
	}
	// One vertex's rows in one direction, split by label from its edges in
	// ascending id.
	nbrs, eids := make([][]graph.VertexID, nl), make([][]graph.EdgeID, nl)
	for v := range o.out {
		id := graph.VertexID(v)
		for _, out := range []bool{true, false} {
			mixed, end := o.in[v], fz.Src
			if out {
				mixed, end = o.out[v], fz.Dst
			}
			for l := range nbrs {
				nbrs[l], eids[l] = nbrs[l][:0], eids[l][:0]
			}
			for _, e := range mixed {
				l := fz.EdgeLabel(e)
				nbrs[l], eids[l] = append(nbrs[l], end(e)), append(eids[l], e)
			}
			for l := range nbrs {
				fn, fe := fz.Rows(graph.Label(l), out).Row(id)
				if !slices.Equal(fn, nbrs[l]) || !slices.Equal(fe, eids[l]) {
					return fmt.Errorf("row (%d, %d, out=%v) = (%v,%v), the columns give (%v,%v)", v, l, out, fn, fe, nbrs[l], eids[l])
				}
			}
		}
	}
	return nil
}
