package graph

// EdgesWithLabel returns the number of edges carrying the label, read off
// the snapshot's out-block (every edge has one out- and one in-occurrence,
// so the count serves both directions). The count is exact on full and
// extended snapshots alike, so the Cypher planner can order labels and
// price pattern anchors without touching a row. It is 0 for a label the
// snapshot does not know.
func (g *Graph) EdgesWithLabel(l Label) int {
	return g.index().rel(l, true).edges()
}
