package graph

import "sync/atomic"

// EdgesWithLabel returns the number of edges carrying the label, read off
// the snapshot's out-block (every edge has one out- and one in-occurrence,
// so the count serves both directions). The count is exact on full and
// extended snapshots alike, so the Cypher planner can order labels and
// price pattern anchors without touching a row. It is 0 on a live graph
// and for a label the snapshot does not know.
func (g *Graph) EdgesWithLabel(l Label) int {
	if g.csr == nil {
		return 0
	}
	return g.csr.rel(l, true).edges()
}

// Row-read instrumentation. The query engines' contract is that a
// boundary excluding a relation (or a planner proving a label irrelevant)
// skips that label's CSR blocks outright — no row of an excluded block is
// ever fetched. Tests pin that contract by installing a hook that observes
// every per-label row read on frozen snapshots. The hook is test-only: the
// hot path pays one atomic pointer load, which is a plain MOV on the
// architectures we run, and nil-skips in steady state.
var rowReadHook atomic.Pointer[func(Label, bool)]

// SetRowReadHook installs fn to observe every per-label CSR row read
// (label, direction) on frozen graphs, returning a restore function that
// removes it. Passing nil clears the hook. Intended for tests only. The hook
// runs on whichever goroutine reads the row, and one core.Engine.Segment
// reads rows on several goroutines at once, so the hook must be safe for
// concurrent use (atomics or a mutex).
func SetRowReadHook(fn func(label Label, out bool)) (restore func()) {
	if fn == nil {
		rowReadHook.Store(nil)
		return func() {}
	}
	p := &fn
	rowReadHook.Store(p)
	return func() { rowReadHook.CompareAndSwap(p, nil) }
}

func hookRowRead(label Label, out bool) {
	if fn := rowReadHook.Load(); fn != nil {
		(*fn)(label, out)
	}
}
