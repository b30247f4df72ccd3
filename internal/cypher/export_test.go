package cypher

import "repro/internal/prov"

// NewNaiveProvEvaluator is NewProvEvaluator with planning off: no prune
// sets, only the unpruned DFS over the per-label rows. It is the oracle the
// planner tests hold the planner to.
func NewNaiveProvEvaluator(p *prov.Graph, opts Options) *Evaluator {
	ev := NewProvEvaluator(p, opts)
	ev.naive = true
	return ev
}
