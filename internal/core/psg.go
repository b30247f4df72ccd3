package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/prov"
)

// PgSum evaluation (paper Sec. IV.B): initialize the provenance summary
// graph Psg as g0, the class-labeled disjoint union of the input segments,
// then repeatedly merge vertices under the Lemma 5 conditions —
//
//	(1) u 'sin  v  (mutual in-simulation),
//	(2) u 'sout v  (mutual out-simulation),
//	(3) u <=sin v and u <=sout v (both-way dominance),
//
// each of which guarantees no path label is added; merging never removes
// paths, so the Psg invariant (identical path-label language) holds. A
// cycle guard keeps the result a DAG as the Psg definition requires.

// PsgNode is one summary vertex: an equivalence-class-labeled group of
// segment vertex occurrences.
type PsgNode struct {
	// Class is the equivalence class id under (K, Rk).
	Class int
	// Label is a human-readable class name (kind, aggregated properties,
	// and a provenance-type discriminator).
	Label string
	// Members lists the merged occurrences as (segment index, vertex id).
	Members [][2]int
}

// PsgEdge is a summary edge annotated with its appearance frequency across
// segments (paper's gamma).
type PsgEdge struct {
	From, To int
	Rel      prov.Rel
	Freq     float64
}

// Psg is the provenance summary graph.
type Psg struct {
	Nodes []PsgNode
	Edges []PsgEdge
	// InputVertices is the size of g0 (total vertex occurrences across the
	// input segments), the denominator of the compaction ratio.
	InputVertices int
	// Segments is |S|.
	Segments int
	// Rounds is the number of merge rounds performed.
	Rounds int
}

// CompactionRatio returns cr = |M| / |g0 vertices| (paper Sec. V); lower
// is better.
func (p *Psg) CompactionRatio() float64 {
	if p.InputVertices == 0 {
		return 1
	}
	return float64(len(p.Nodes)) / float64(p.InputVertices)
}

// slab hands out zeroed slices cut from one buffer and takes them all back
// at once. A buffer that runs out mid-call is replaced (slices handed out
// keep the old one); reset then leaves one that holds exactly what the call
// asked for, so a warm call allocates nothing and the pool retains no more
// than its largest call used — retained bytes are live heap, which the GC's
// pacing doubles into RSS.
type slab[T any] struct {
	buf         []T
	used, asked int
}

func (s *slab[T]) take(n int) []T {
	s.asked += n
	if s.used+n > len(s.buf) {
		s.buf, s.used = make([]T, max(n, s.asked/2)), 0
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	clear(out)
	return out
}

func (s *slab[T]) reset() {
	if s.asked > len(s.buf) {
		s.buf = make([]T, s.asked)
	}
	s.used, s.asked = 0, 0
}

// arena is the scratch of one graph generation.
type arena struct {
	i32 slab[int32]
	u64 slab[uint64]
}

func (a *arena) reset() {
	a.i32.reset()
	a.u64.reset()
}

// sumScratch is everything one Summarize allocates apart from its result.
// call lasts the call (g0); quotient k lives in round[k&1] with the
// simulations and merge state computed on it, and is taken back when
// quotient k+2 is built.
type sumScratch struct {
	call  arena
	round [2]arena
	text  []byte   // classify's signature under construction, then the class names
	parts []uint64 // a signature's sorted neighbor multiset
	work  *Work    // the call's request
	probe *sumProbe
}

// sumProbe watches one Summarize call from a test: it sees every phase the
// merge loop skips as idle and every quotient it builds. A call without one
// pays a nil check per phase.
type sumProbe struct {
	skipped func(g *flatGraph, cond mergeCondition)
	built   func(g, q *flatGraph, cond mergeCondition)
}

var sumPool = sync.Pool{New: func() any { return new(sumScratch) }}

func (sc *sumScratch) release() {
	sc.call.reset()
	sc.round[0].reset()
	sc.round[1].reset()
	sc.work, sc.probe = nil, nil
	sumPool.Put(sc)
}

// sumInput is g0: the class-labeled disjoint union of the input segments.
// Its nodes are the vertex occurrences, numbered segment by segment in
// Segment.Vertices order; it is also the graph the first merge phase runs
// on.
type sumInput struct {
	segs  []*Segment
	mem   *arena   // the call's arena
	base  []int32  // occurrences of segment i are base[i]..base[i+1]-1
	ids   int      // vertex ids in the segments are below ids
	edges []uint64 // the segment edges as (tail, rel, head) keys; assemble's key buffer afterwards
	g     *flatGraph
	names []string // display name of each class
}

// newInput builds g0 by counting sort: one dense vertex id -> occurrence
// table, rewritten segment by segment (Segment.Vertices is ascending, so its
// last id bounds the table), the edges bucketed into out and in runs, then
// classify over those runs and the labels written into the arcs.
func newInput(sc *sumScratch, segs []*Segment, opts SumOptions) (*sumInput, error) {
	mem := &sc.call
	in := &sumInput{segs: segs, mem: mem, base: mem.i32.take(len(segs) + 1)}
	nv, ne := 0, 0
	for _, s := range segs {
		nv += len(s.Vertices)
		ne += len(s.Edges)
		if len(s.Vertices) > 0 {
			in.ids = max(in.ids, int(s.Vertices[len(s.Vertices)-1])+1)
		}
	}
	if nv > sumIDMask || len(segs) > sumIDMask || ne > math.MaxInt32 {
		return nil, fmt.Errorf("core: PgSum over %d vertices and %d edges in %d segments (at most %d, %d, %d)", nv, ne, len(segs), sumIDMask, math.MaxInt32, sumIDMask)
	}
	occOf := mem.i32.take(in.ids) // occurrence + 1
	in.edges = mem.u64.take(ne)[:0]
	for i, s := range segs {
		in.base[i+1] = in.base[i] + int32(len(s.Vertices))
		for j, v := range s.Vertices {
			occOf[v] = in.base[i] + int32(j) + 1
		}
		g := s.P.PG()
		for _, e := range s.Edges {
			from, to := g.Src(e), g.Dst(e)
			// An entry at or below base[i] is an earlier segment's, or unset.
			if int(max(from, to)) >= in.ids || occOf[from] <= in.base[i] || occOf[to] <= in.base[i] {
				return nil, fmt.Errorf("core: PgSum segment %d: edge %d has an end outside the segment's vertices", i, e)
			}
			in.edges = append(in.edges, packEdge(occOf[from]-1, uint8(s.P.RelOf(e)), occOf[to]-1))
		}
	}
	in.g = newFlatGraph(mem, sc.work, nv, in.edges)
	cls := classify(sc, in, opts)
	in.g.setLabels(cls.colors, len(cls.base))
	in.names = classNames(sc, cls.base, cls.baseName)
	// g0 itself lasts the call; what the first phases compute on it goes
	// where the second quotient will be built, and is dead by then.
	in.g.mem = &sc.round[1]
	return in, nil
}

// Summarize evaluates PgSum(S, K, Rk) and returns the summary graph. It
// returns ErrNotDAG when the union of the segments has a cycle.
func Summarize(segs []*Segment, opts SumOptions) (*Psg, error) {
	return SummarizeWork(new(Work), segs, opts)
}

// SummarizeWork is Summarize for the request w records: it adds what it
// solved and the time of each stage to w, and once w's request is done it
// stops and returns the context's error.
func SummarizeWork(w *Work, segs []*Segment, opts SumOptions) (*Psg, error) {
	return summarize(w, segs, opts, nil)
}

// summarize is SummarizeWork watched by probe (nil for none).
func summarize(w *Work, segs []*Segment, opts SumOptions, probe *sumProbe) (*Psg, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("core: PgSum needs at least one segment")
	}
	sc := sumPool.Get().(*sumScratch)
	defer sc.release()
	sc.work, sc.probe, w.last = w, probe, time.Now()
	g0, err := newInput(sc, segs, opts)
	if err != nil {
		return nil, err
	}

	// nodeOf maps each occurrence to its current Psg node (dense ids).
	nodeOf := sc.call.i32.take(g0.g.numNodes())
	for i := range nodeOf {
		nodeOf[i] = int32(i)
	}
	w.lap(stageInput)
	cur, rounds, err := sc.mergeLoop(g0.g, nodeOf, opts.MaxRounds)
	if err != nil {
		return nil, err
	}
	psg := g0.assemble(cur.numNodes(), nodeOf, rounds)
	w.lap(stageAssemble)
	return psg, nil
}

// mergeLoop merges g0 one Lemma 5 condition per phase, renaming nodeOf
// along every merge, until a round merges nothing or maxRounds (0: no
// limit) rounds have run. It returns the last quotient and the number of
// rounds. The first quotient is built in sc.round[0] from what was computed
// on g0, so that must live elsewhere (newInput puts it in sc.round[1]).
//
// Batching a single condition is sound (see mergePhase); mixing conditions
// in one batch can weave cycles through the quotient, so phases alternate
// with graph rebuilds until a full round makes no progress. A phase that
// merges nothing leaves cur — and the simulations memoized on it — in place
// for the next phase, and is not run on cur again. An equivalence phase
// hands its quotient the simulation preorder it solved and, when it can,
// the order the simulation walked, and the quotient starts with that phase
// idle (flatGraph.quotient has the proof). A skipped phase counts as one
// that merged nothing, so Rounds is what running it would give. No phase
// starts once the request is done.
func (sc *sumScratch) mergeLoop(g0 *flatGraph, nodeOf []int32, maxRounds int) (*flatGraph, int, error) {
	w, probe := sc.work, sc.probe
	cur, built, rounds := g0, 0, 0
	for maxRounds == 0 || rounds < maxRounds {
		progressed := false
		for _, phase := range []mergeCondition{condInEquiv, condOutEquiv, condDominance} {
			if cur.idle&(1<<phase) != 0 {
				if probe != nil && probe.skipped != nil {
					probe.skipped(cur, phase)
				}
				continue
			}
			if err := w.Err(); err != nil {
				return nil, 0, err
			}
			w.Phases++
			remap, numNew, err := mergePhase(cur, phase)
			w.lap(stageMerge)
			if err != nil {
				return nil, 0, err
			}
			if remap == nil {
				cur.idle |= 1 << phase
				continue
			}
			progressed = true
			for i, nd := range nodeOf {
				nodeOf[i] = remap[nd]
			}
			mem := &sc.round[built&1] // holds cur's predecessor, or nothing yet
			mem.reset()
			q := cur.quotient(mem, remap, numNew, phase)
			w.lap(stageBuild)
			if probe != nil && probe.built != nil {
				probe.built(cur, q, phase)
			}
			cur, built = q, built+1
		}
		rounds++
		if !progressed {
			break
		}
	}
	return cur, rounds, nil
}

// classNames returns the display name of every class: the name of its base
// color, with (t1), (t2), ... appended in class order where several classes
// share one (same kind + aggregated properties, different provenance type —
// Fig. 2(e)). The suffixed names are cut from one string.
func classNames(sc *sumScratch, base []int32, baseName []string) []string {
	mem := &sc.call
	sharers, rank := mem.i32.take(len(baseName)), mem.i32.take(len(baseName))
	for _, b := range base {
		sharers[b]++
	}
	buf, end := sc.text[:0], mem.i32.take(len(base))
	for cl, b := range base {
		if sharers[b] > 1 {
			rank[b]++
			buf = append(append(buf, baseName[b]...), " (t"...)
			buf = append(strconv.AppendInt(buf, int64(rank[b]), 10), ')')
		}
		end[cl] = int32(len(buf))
	}
	sc.text = buf
	all, start := string(buf), int32(0)
	names := make([]string, len(base))
	for cl, b := range base {
		names[cl] = baseName[b]
		if sharers[b] > 1 {
			names[cl] = all[start:end[cl]]
		}
		start = end[cl]
	}
	return names
}

// mergeCondition selects which Lemma 5 condition a phase applies.
type mergeCondition int

const (
	// condInEquiv merges mutual in-simulation classes (condition 1). A
	// whole batch is sound: members share their in-path-label language, so
	// no merge adds labels, and a cycle among merged groups would force
	// the longest-in-path length to strictly increase around the cycle
	// while being constant within each group — impossible in a DAG.
	condInEquiv mergeCondition = iota
	// condOutEquiv is the dual (condition 2).
	condOutEquiv
	// condDominance merges u into a node that both in- and out-dominates
	// it (condition 3); sound per-pair, but cycles can appear across
	// independent merges, so this phase maintains quotient reachability
	// and skips cycle-forming merges.
	condDominance
)

// mergePhase applies one batch of merges under a single Lemma 5 condition,
// on the graph's (memoized) simulations. It returns a remap from old node
// ids to new dense node ids, numbered by each group's smallest member, and
// the new node count; remap is nil when nothing merged.
func mergePhase(g *flatGraph, cond mergeCondition) (remap []int32, numNew int, err error) {
	n := g.numNodes()
	parent := g.mem.i32.take(n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merged := false

	switch cond {
	case condInEquiv, condOutEquiv:
		sim, err := g.sim(cond == condOutEquiv)
		if err != nil {
			return nil, 0, err
		}
		simEquivClasses(g, sim, func(u, v int32) {
			parent[find(v)] = find(u)
			merged = true
		})
	case condDominance:
		simIn, err := g.sim(false)
		if err != nil {
			return nil, 0, err
		}
		simOut, err := g.sim(true)
		if err != nil {
			return nil, 0, err
		}
		var guard *reachGuard // built on the first candidate pair
		for u := int32(0); int(u) < n && err == nil; u++ {
			cl := g.class(g.label[u])
			eachPos(simIn.of(g, u), simOut.of(g, u), func(i int) bool {
				v := cl[i]
				if v == u || find(v) == find(u) {
					return true
				}
				if guard == nil {
					if guard, err = newGuard(g); err != nil {
						return false
					}
				}
				if guard.wouldCycle(int(find(u)), int(find(v))) {
					return true // try another dominator
				}
				guard.union(int(find(u)), int(find(v)))
				parent[find(u)] = find(v)
				merged = true
				return false
			})
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if !merged {
		return nil, n, nil
	}
	remap = g.mem.i32.take(n)
	dense := g.mem.i32.take(n) // root -> new id + 1
	for v := range remap {
		r := find(int32(v))
		if dense[r] == 0 {
			numNew++
			dense[r] = int32(numNew)
		}
		remap[v] = dense[r] - 1
	}
	return remap, numNew, nil
}

// reachGuard tracks reachability in the evolving quotient graph so the
// dominance phase never merges two order-related groups. Groups are keyed
// by their union-find representative at call time.
type reachGuard struct {
	members []*bitmap.Bitset // group -> original nodes inside
	desc    []*bitmap.Bitset // group -> original nodes reachable from it
	anc     []*bitmap.Bitset // group -> original nodes that reach it
	owner   []int            // original node -> current group rep
}

func newGuard(g *flatGraph) (*reachGuard, error) {
	n := g.numNodes()
	if bytes := 3 * uint64(n) * uint64((n+63)/64*8); bytes > sumBudget {
		return nil, &BudgetError{bytes}
	}
	rg := &reachGuard{
		members: make([]*bitmap.Bitset, n),
		desc:    make([]*bitmap.Bitset, n),
		anc:     make([]*bitmap.Bitset, n),
		owner:   make([]int, n),
	}
	for v := 0; v < n; v++ {
		rg.owner[v] = v
		rg.members[v] = bitmap.NewBitset(n)
		rg.members[v].Add(uint32(v))
	}
	// Sources first; g is a DAG (its simulations exist, and so does the
	// order they walked).
	topo, _ := g.topo(false)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		s := bitmap.NewBitset(n)
		for _, arc := range g.out.of(v) {
			s.Add(uint32(arcFar(arc)))
			s.UnionWith(rg.desc[arcFar(arc)])
		}
		rg.desc[v] = s
	}
	for _, v := range topo {
		s := bitmap.NewBitset(n)
		for _, arc := range g.in.of(v) {
			s.Add(uint32(arcFar(arc)))
			s.UnionWith(rg.anc[arcFar(arc)])
		}
		rg.anc[v] = s
	}
	return rg, nil
}

// wouldCycle reports whether merging groups a and b would create a cycle:
// some member of one group reaches a member of the other.
func (rg *reachGuard) wouldCycle(a, b int) bool {
	return rg.desc[a].Intersects(rg.members[b]) || rg.desc[b].Intersects(rg.members[a])
}

// union merges group a into group b and propagates the combined
// reachability to all ancestor and descendant groups (a merge makes
// everything above either group reach everything below both).
func (rg *reachGuard) union(a, b int) {
	rg.members[b].UnionWith(rg.members[a])
	rg.desc[b].UnionWith(rg.desc[a])
	rg.anc[b].UnionWith(rg.anc[a])
	rg.members[a] = rg.members[b]
	rg.desc[a] = rg.desc[b]
	rg.anc[a] = rg.anc[b]
	// Propagate: every node that reaches the merged group now reaches the
	// group and its combined descendants; every node reachable from it
	// gains the group and its combined ancestors.
	descPlus := rg.desc[b].Clone()
	descPlus.UnionWith(rg.members[b])
	ancPlus := rg.anc[b].Clone()
	ancPlus.UnionWith(rg.members[b])
	rg.anc[b].Iterate(func(x uint32) bool {
		rg.desc[rg.owner[x]].UnionWith(descPlus)
		return true
	})
	rg.desc[b].Iterate(func(x uint32) bool {
		rg.anc[rg.owner[x]].UnionWith(ancPlus)
		return true
	})
	rg.members[b].Iterate(func(x uint32) bool {
		rg.owner[x] = b
		return true
	})
}

// assemble builds the output structure from the final occurrence-to-node
// map.
func (in *sumInput) assemble(numNodes int, nodeOf []int32, rounds int) *Psg {
	psg := &Psg{
		Nodes:         make([]PsgNode, numNodes),
		InputVertices: len(nodeOf),
		Segments:      len(in.segs),
		Rounds:        rounds,
	}
	// Members are cut from one array after counting; off counts each node's
	// lifted edges on the same pass (bucket ends at off[nd+1] once filled).
	out := in.g.out
	size, off := in.mem.i32.take(numNodes), in.mem.i32.take(numNodes+2)
	for i, nd := range nodeOf {
		size[nd]++
		off[nd+2] += out.off[i+1] - out.off[i]
	}
	members := make([][2]int, len(nodeOf))
	for nd := range psg.Nodes {
		psg.Nodes[nd].Members, members = members[:0:size[nd]], members[size[nd]:]
		off[nd+2] += off[nd+1]
	}
	// One summary edge per (from, to, rel), supported by the distinct
	// segments among the edges lifted onto it: bucket the g0 arcs by their
	// tail's node as (to, rel, seg) keys and sort each short bucket.
	keys := in.edges[:len(out.arc)]
	for seg, s := range in.segs {
		for j, v := range s.Vertices {
			i := in.base[seg] + int32(j)
			pn := &psg.Nodes[nodeOf[i]]
			if len(pn.Members) == 0 {
				pn.Class = int(in.g.label[i])
				pn.Label = in.names[pn.Class]
			}
			pn.Members = append(pn.Members, [2]int{seg, int(v)})
			for _, a := range out.of(i) {
				keys[off[nodeOf[i]+1]] = packEdge(nodeOf[arcFar(a)], arcRel(a), int32(seg))
				off[nodeOf[i]+1]++
			}
		}
	}
	if len(keys) > 0 {
		psg.Edges = make([]PsgEdge, 0, len(keys))
	}
	for from := 0; from < numNodes; from++ {
		run := keys[off[from]:off[from+1]]
		slices.Sort(run)
		for i := 0; i < len(run); {
			edge, support := run[i]>>sumIDBits, 1
			for i++; i < len(run) && run[i]>>sumIDBits == edge; i++ {
				if run[i] != run[i-1] {
					support++
				}
			}
			to, rel, _ := unpackEdge(run[i-1])
			psg.Edges = append(psg.Edges, PsgEdge{
				From: from,
				To:   int(to),
				Rel:  prov.Rel(rel),
				Freq: float64(support) / float64(len(in.segs)),
			})
		}
	}
	return psg
}
