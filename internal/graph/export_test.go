package graph

// PropStoreBytes is what the packed property store of g's lineage holds at
// capacity: the key name table, the string arena and both kinds' run
// bounds, key words and value slots. The writer's key-to-id map, O(keys),
// is not counted.
func PropStoreBytes(g *Graph) int {
	s := &g.props
	n := 16*cap(s.names) + cap(s.arena)
	for _, name := range s.names {
		n += len(name)
	}
	for _, r := range []*propRuns{&s.v, &s.e} {
		n += 4*cap(r.off) + 4*cap(r.key) + 8*cap(r.val)
	}
	return n
}

// PropMapsHeld counts the Props maps g holds for its vertices and edges.
func PropMapsHeld(g *Graph) int {
	n := 0
	for _, tail := range [][]Props{g.vTail, g.eTail} {
		for _, p := range tail {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// columnRows is the test oracle for a snapshot's adjacency rows: every
// vertex's out- and in-edges read straight off the edge columns, in
// ascending edge id.
type columnRows struct{ out, in [][]EdgeID }

func columnRowsOf(g *Graph) columnRows {
	r := columnRows{out: make([][]EdgeID, g.NumVertices()), in: make([][]EdgeID, g.NumVertices())}
	for e := range g.eLabel {
		r.out[g.eSrc[e]] = append(r.out[g.eSrc[e]], EdgeID(e))
		r.in[g.eDst[e]] = append(r.in[g.eDst[e]], EdgeID(e))
	}
	return r
}

// neighbors is the oracle's row of v for label l: the targets of its
// out-edges (out) or the sources of its in-edges.
func (r columnRows) neighbors(g *Graph, v VertexID, l Label, out bool) []VertexID {
	var nbrs []VertexID
	if out {
		for _, e := range r.out[v] {
			if g.eLabel[e] == l {
				nbrs = append(nbrs, g.eDst[e])
			}
		}
		return nbrs
	}
	for _, e := range r.in[v] {
		if g.eLabel[e] == l {
			nbrs = append(nbrs, g.eSrc[e])
		}
	}
	return nbrs
}

// outDegree sums v's out-rows over every label of snapshot g.
func outDegree(g *Graph, v VertexID) int {
	n := 0
	for l := 0; l < g.Dict().Len(); l++ {
		nbrs, _ := g.Rows(Label(l), true).Row(v)
		n += len(nbrs)
	}
	return n
}
