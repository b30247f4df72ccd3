package core

import (
	"testing"

	"repro/internal/prov"
)

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

// DeepRunnersAgree is the white-box runner agreement of tstrunners_test.go in
// its deep mode (level-synchronous runner as reference, sweep windows
// checked). It returns |VC2| and the widest sweep window seen, in words.
func DeepRunnersAgree(t *testing.T, label string, live *prov.Graph, q Query, opts Options) (vc2, maxWords int) {
	t.Helper()
	ref, seen := runnersAgreeOn(t, label, live, q, opts, true)
	return len(ref), seen.maxWords
}
