package core

// The oracles of oracle_test.go, exposed to the external tests
// (which can import gen without an import cycle).
var (
	DenseSummarize    = denseSummarize
	StringClassLabels = stringClassLabels
)

// ClassLabels returns classify's class of every occurrence, segment by
// segment.
func ClassLabels(segs []*Segment, opts SumOptions) []int {
	return newSumInput(segs, opts).labels
}
