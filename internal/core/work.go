package core

import (
	"context"
	"time"
)

// Work is the record of one request through PgSeg and PgSum. It carries
// the done channel of the request's context, which the walks poll where a
// request can spend time (each fork-join claim, every few thousand pops of
// a closure or vertices of a sweep pass, expansion, PgSum's simulation pair
// loop and each merge phase), what the calls did and where PgSum's time
// went. A call whose request is done stops, returns the context's error and
// leaves no pooled set behind. One record may serve several calls of one
// request, one at a time; its counts add up across them.
//
// The zero Work is a background record: its done channel never closes. The
// calls that take no record (Engine.Segment, Engine.AdjustExpand,
// Summarize) run with one.
type Work struct {
	ctx  context.Context
	done <-chan struct{}

	// Rows counts the relation rows PgSeg fetched, by relation and
	// direction.
	Rows RowCounts
	// EdgeEntries counts the edge entries PgSeg's edge induction read: E
	// per call, one scan of the edge columns.
	EdgeEntries int
	// Sims, Topos and Phases count what PgSum solved: simulation
	// preorders, Kahn sorts and merge-phase scans.
	Sims, Topos, Phases int
	// SimPairs counts the node pairs PgSum's simulations tested, SimWalks
	// those of two distinct nodes that passed the signature test, whose arc
	// lists were walked.
	SimPairs, SimWalks int

	// stages is PgSum's wall time by stage, each lap charged the time since
	// the last.
	stages [numSumStages]time.Duration
	last   time.Time
}

// NewWork returns the record of a request that runs under ctx.
func NewWork(ctx context.Context) *Work { return &Work{ctx: ctx, done: ctx.Done()} }

// Err returns the context's error once the request is done, nil before.
func (w *Work) Err() error {
	if stopped(w.done) {
		return w.ctx.Err()
	}
	return nil
}

// record adds what ad read to w.
func (w *Work) record(ad *adjacency) {
	w.Rows.add(&ad.rows)
	w.EdgeEntries += ad.entries
}

// pollMask spaces the polls of the walks that step vertex by vertex: one
// every 4096 steps.
const pollMask = 1<<12 - 1

// stopped reports whether done is closed; a nil channel never is.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// sumStage is one stage of a Summarize call.
type sumStage int

const (
	stageInput    sumStage = iota // g0 and classify
	stageBuild                    // quotient rebuilds
	stageSim                      // simulations, with their Kahn sorts
	stageMerge                    // merge-phase scans
	stageAssemble                 // the Psg
	numSumStages
)

// lap charges the time since the last lap to stage s.
func (w *Work) lap(s sumStage) {
	now := time.Now()
	w.stages[s] += now.Sub(w.last)
	w.last = now
}
