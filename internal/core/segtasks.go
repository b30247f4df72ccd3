package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/graph"
	"repro/internal/prov"
)

// The stages of a PgSeg solve that read only the query and the snapshot —
// the VC2 solve and the two ancestry closures — never read each other's
// output, and SimProvTst's destination classes are independent runs. Segment
// therefore runs them as the tasks of one fork-join, in this order:
//
//   - the VC2 work: one task per destination class under SimProvTst, the
//     whole solve as one task under SimProvAlg or CflrB (and under
//     SimProvTst for a property-match query, which vc2Solver hands to
//     SimProvAlg);
//   - the forward ancestry closure of Vdst, then the backward one of Vsrc.
//
// Class runs come first, so on a one-class query one worker solves VC2 while
// another walks both closures, and on a two-class query the four tasks
// balance. VC1 and the support seed (the closures' intersection and union,
// directPaths), VC2 (the union of the workers' sets) and induce are formed on
// the caller after the join. SimilarPaths runs the VC2 tasks on the caller
// alone, so Fig. 5a-d stays a single-thread measurement of each solver.

// segTasks is one query's task list.
type segTasks struct {
	e        *Engine
	ad       *adjacency
	src, dst []graph.VertexID // src deduplicated, dst as given
	rank     prov.Rank        // the snapshot's order of being

	// classes are SimProvTst's destination classes, one task each; nil when
	// SimProvAlg or CflrB solves, whose single VC2 task leaves algVC2 and err.
	classes *tstClasses
	algVC2  *bitmap.Bitset
	err     error
	nVC2    int

	// closures adds the two ancestry closure tasks after the VC2 ones, which
	// leave fwd (from Dst) and bwd (from Src).
	closures bool
	fwd, bwd *bitmap.Bitset
}

// segWorker is what one worker owns: its SimProvTst runner, built on its
// first class (a runner carries per-query state, so no two workers share
// one), its pooled share of VC2, on which each class's Remove/run/restore
// handshake runs, and the adjacency Segment's tasks read through, counting
// the worker's rows (padded: no two workers' counters share a cache line).
type segWorker struct {
	r   *tstSweepState
	out *bitmap.Bitset
	ad  adjacency
	_   [64]byte
}

// vc2Shares pools the workers' VC2 sets, emptied into VC2 after the join.
var vc2Shares sync.Pool

// errAncestryCycle refuses a query on a graph whose ancestry has a cycle:
// L(SimProv) is defined on a DAG, and the sweep and SimProvAlg's early stop
// walk an order of being that such a graph does not have.
var errAncestryCycle = fmt.Errorf("%w: its ancestry (U, G) edges form a cycle", ErrNotDAG)

func (e *Engine) newSegTasks(q Query, ad *adjacency, closures bool) (segTasks, error) {
	rank, ok := e.P.OrderOfBeing()
	if !ok {
		return segTasks{}, errAncestryCycle
	}
	t := segTasks{e: e, ad: ad, src: dedupVertices(q.Src), dst: q.Dst, rank: rank, nVC2: 1, closures: closures}
	if e.vc2Solver() == SolverTst {
		// The grouping deduplicates the destinations as it sorts.
		t.classes = e.tstClasses(t.src, t.dst, ad)
		t.nVC2 = t.classes.len()
	}
	return t, nil
}

func (t *segTasks) len() int {
	if t.closures {
		return t.nVC2 + 2
	}
	return t.nVC2
}

// do runs task i on worker w, reading rows through ad: w's own under
// Segment, the query's under SimilarPaths (whose worker stays on its stack).
func (t *segTasks) do(w *segWorker, ad *adjacency, i int) {
	switch {
	case i == t.nVC2:
		t.fwd = t.e.ancestryClosure(t.dst, ad, true)
	case i > t.nVC2:
		t.bwd = t.e.ancestryClosure(t.src, ad, false)
	case t.classes == nil:
		t.algVC2, t.err = t.e.solveFacts(t.src, dedupVertices(t.dst), ad, t.rank)
	default:
		if w.r == nil {
			w.r = t.e.newTstSweep(ad, t.src, t.rank)
		}
		if w.out == nil {
			w.out = vc2Share(t.e.P.NumVertices())
		}
		t.classes.run(i, w.r.run, w.out)
	}
}

// vc2 returns VC2 once every task has run: the union of the workers' shares,
// which go back to their pool. It adds the workers' rows to the query's.
func (t *segTasks) vc2(ws []segWorker) (*bitmap.Bitset, error) {
	for _, w := range ws {
		for r, n := range w.ad.rows {
			t.ad.rows[r][0] += n[0]
			t.ad.rows[r][1] += n[1]
		}
	}
	if t.classes == nil {
		return t.algVC2, t.err
	}
	tstClassPool.Put(t.classes)
	vc2 := bitmap.NewBitset(t.e.P.NumVertices())
	for _, w := range ws {
		if w.out != nil {
			vc2.UnionWith(w.out)
			w.out.Clear()
			vc2Shares.Put(w.out)
		}
	}
	return vc2, nil
}

// vc2Share returns an empty n-bit set, pooled when one of that size is free.
func vc2Share(n int) *bitmap.Bitset {
	if b, ok := vc2Shares.Get().(*bitmap.Bitset); ok && b.Bytes() == (n+63)/64*8 {
		return b
	}
	return bitmap.NewBitset(n)
}

// forkJoin calls task(w, i) once for every i in [0, n) on workers workers:
// worker 0 is the calling goroutine, the others start for this call, and each
// claims the next i from one atomic counter until none is left. It returns
// once every worker has. A panic in a task stops further claims and is raised
// again, with the same value, on the caller after the join, so net/http's
// per-handler recovery still catches a solver bug and no worker outlives the
// call.
func forkJoin(workers, n int, task func(w, i int)) {
	var next atomic.Int64
	var failed atomic.Pointer[any]
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				failed.CompareAndSwap(nil, &r)
				next.Store(int64(n))
			}
		}()
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			task(w, int(i))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if r := failed.Load(); r != nil {
		panic(*r)
	}
}
