package server

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// segCache is an LRU cache of segmentation results keyed by canonicalized
// query. PgSeg is the service's dominant workload and its CFL-reachability
// solve is the expensive part, so repeated identical queries are served from
// here. The cache is guarded by its own mutex (separate from the store's
// write mutex) so cache bookkeeping never serializes solver work.
//
// Entries are tagged with the epoch they were last validated at; all
// resident entries share that epoch (the invariant advance maintains). On
// ingest commit the cache is revalidated against the delta instead of being
// dropped wholesale: the graph is append-only, so a cached segment's answer
// can only change if a newly appended edge is incident to a vertex in the
// segment's support set (its ancestry closures, its vertices, its expansion
// seeds — see core.Segment.Support). Entries the delta touches are purged
// (they fall back to a full re-solve on the next request); the rest are
// re-tagged with the new epoch and re-pointed at the new snapshot, the
// incremental revalidation pass that only ever scans edges past the old
// watermark.
type segCache struct {
	mu    sync.Mutex
	cap   int
	epoch uint64     // the epoch every resident entry is valid at
	ll    *list.List // front = most recently used
	byK   map[string]*list.Element

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64 // entries purged because an ingest delta touched them
	revalidations atomic.Uint64 // entries carried to a new epoch untouched
}

type cacheEntry struct {
	key string
	seg *core.Segment
	// relOK is the admitted-relations mask of the query's boundary: delta
	// edges of an excluded relationship type cannot appear in any traversal
	// of this query and are skipped during revalidation.
	relOK [8]bool
}

func newSegCache(capacity int) *segCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &segCache{
		cap: capacity,
		ll:  list.New(),
		byK: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached segment for key validated at the reader's epoch,
// if any, and records a hit or miss. A reader pinned to an older snapshot
// than the cache's epoch misses (it must not be served results that may
// reference vertices past its watermark).
func (c *segCache) get(key string, epoch uint64) (*core.Segment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch == c.epoch {
		if el, ok := c.byK[key]; ok {
			c.ll.MoveToFront(el)
			c.hits.Add(1)
			return el.Value.(*cacheEntry).seg, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// add inserts a result solved against the given epoch, unless the cache has
// advanced since (a writer committed after the solver loaded its snapshot),
// in which case the possibly stale result is dropped.
func (c *segCache) add(key string, seg *core.Segment, relOK [8]bool, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return
	}
	if el, ok := c.byK[key]; ok {
		en := el.Value.(*cacheEntry)
		en.seg, en.relOK = seg, relOK
		c.ll.MoveToFront(el)
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheEntry{key: key, seg: seg, relOK: relOK})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*cacheEntry).key)
	}
}

// advance moves the cache from epoch old to ep, revalidating every entry
// against the ingest delta (the edges in [old.Edges, ep.Edges)). Called by
// the store with the write mutex held, before the new epoch is published.
//
// The delta scan itself runs without the cache mutex so a bulk ingest never
// stalls concurrent reader lookups: once the epoch counter is bumped every
// get misses anyway (no reader holds the new epoch until the store
// publishes it, which happens only after advance returns), and no add can
// land (solves in flight carry the old epoch). Entries and their support
// sets are immutable outside the mutex.
func (c *segCache) advance(ep, old *Epoch) {
	c.mu.Lock()
	c.epoch = ep.N
	entries := make([]*cacheEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*cacheEntry))
	}
	c.mu.Unlock()

	stale := make([]bool, len(entries))
	rebased := make([]*core.Segment, len(entries))
	for i, en := range entries {
		if deltaTouches(en, ep, old) {
			stale[i] = true
			continue
		}
		// Still exact at the new epoch: re-point the segment at the new
		// snapshot (a fresh shallow copy, so readers holding the old one are
		// unaffected).
		rebased[i] = en.seg.Rebase(ep.P)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i, en := range entries {
		el, ok := c.byK[en.key]
		if !ok || el.Value.(*cacheEntry) != en {
			continue // entry was replaced or evicted meanwhile
		}
		if stale[i] {
			c.ll.Remove(el)
			delete(c.byK, en.key)
			c.invalidations.Add(1)
			continue
		}
		en.seg = rebased[i]
		c.revalidations.Add(1)
	}
}

// reset purges every entry and rebases the cache at epoch. Snapshot
// resets (a follower re-seeding from a leader checkpoint) break the
// append-only continuity delta revalidation relies on, so nothing can be
// carried over.
func (c *segCache) reset(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	c.invalidations.Add(uint64(c.ll.Len()))
	c.ll.Init()
	c.byK = make(map[string]*list.Element, c.cap)
}

// deltaTouches reports whether any edge ingested since the entry's last
// validation is incident to the entry's support set. The support set is the
// soundness boundary: on an append-only graph every path or SimProv
// derivation the query result depends on enters the post-solve region
// through a support vertex, so an untouched support means an unchanged
// answer. New vertices can never be support members (the set is frozen at
// solve time), so only the delta's old-side endpoints are probed.
func deltaTouches(en *cacheEntry, ep, old *Epoch) bool {
	sup := en.seg.Support()
	if sup == nil {
		return true // not a revalidatable segment; purge conservatively
	}
	p := ep.P
	g := p.PG()
	for e := old.Edges; e < ep.Edges; e++ {
		eid := graph.EdgeID(e)
		if !en.relOK[p.RelOf(eid)] {
			continue
		}
		if sup.Contains(uint32(g.Src(eid))) || sup.Contains(uint32(g.Dst(eid))) {
			return true
		}
	}
	return false
}

// len returns the current entry count.
func (c *segCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a snapshot of cache counters, surfaced via /stats and
// /metrics.
type CacheStats struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Invalidations counts entries purged because an ingest delta touched
	// their support set; Revalidations counts entries carried across an
	// ingest untouched (served afterwards without a re-solve).
	Invalidations uint64 `json:"invalidations"`
	Revalidations uint64 `json:"revalidations"`
}

func (c *segCache) stats() CacheStats {
	return CacheStats{
		Entries:       c.len(),
		Capacity:      c.cap,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Revalidations: c.revalidations.Load(),
	}
}

// segKey canonicalizes a segmentation query + solver options into a cache
// key. Queries that differ only in the order of, or repeats in, their vertex
// lists, excluded relationship types, or expansion specs map to the same key:
// core treats every one of them as a set. Queries
// carrying programmatic filters (VertexFilters/EdgeFilters) are not
// canonicalizable and must bypass the cache; HTTP requests never produce
// them.
func segKey(q core.Query, opts core.Options) (string, bool) {
	if len(q.Boundary.VertexFilters) > 0 || len(q.Boundary.EdgeFilters) > 0 {
		return "", false
	}
	var b strings.Builder
	b.WriteString("s=")
	b.WriteString(opts.Solver.String())
	fmt.Fprintf(&b, "|x=%v|p=%s,%s", opts.VC1ExcludeDerivations, opts.MatchActivityProp, opts.MatchEntityProp)
	b.WriteString("|src=")
	writeSortedIDs(&b, q.Src)
	b.WriteString("|dst=")
	writeSortedIDs(&b, q.Dst)
	b.WriteString("|rels=")
	rels := make([]int, 0, len(q.Boundary.ExcludeRels))
	for _, r := range q.Boundary.ExcludeRels {
		rels = append(rels, int(r))
	}
	slices.Sort(rels)
	for _, r := range slices.Compact(rels) {
		fmt.Fprintf(&b, "%d,", r)
	}
	exps := make([]string, 0, len(q.Boundary.Expansions))
	for _, ex := range q.Boundary.Expansions {
		var eb strings.Builder
		writeSortedIDs(&eb, ex.Within)
		exps = append(exps, fmt.Sprintf("%s:%d", eb.String(), ex.K))
	}
	slices.Sort(exps)
	b.WriteString("|exp=")
	b.WriteString(strings.Join(slices.Compact(exps), ";"))
	return b.String(), true
}

// writeSortedIDs writes the distinct ids of vs in ascending order.
func writeSortedIDs(b *strings.Builder, vs []graph.VertexID) {
	ids := slices.Clone(vs)
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		fmt.Fprintf(b, "%d,", id)
	}
}
