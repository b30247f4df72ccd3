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
