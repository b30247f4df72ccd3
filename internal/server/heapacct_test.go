package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Exact heap accounting of a served store. The store's live heap is the
// HeapAlloc a forced collection leaves after building it; the split per
// structure walks the store's fields (unexported ones too) and counts every
// allocation once, in the size class the allocator gives it: a slice's
// backing array at its capacity, a string's bytes, a struct behind a
// pointer. A map's own tables are not visible to reflection, so each
// structure's maps are dropped after its walk, their entries kept alive, and
// what the collector frees is their tables: the store is thrown away once it
// is accounted. Nothing is sampled.

// sizeClasses are the Go allocator's small-object size classes.
var sizeClasses = []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048,
	2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880,
	12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768}

// allocSize is the heap bytes an allocation of n bytes occupies. Pointer-free
// objects under 16 B share 16-byte blocks (the tiny allocator), so they count
// at their own size.
func allocSize(n uintptr, pointerFree bool) uintptr {
	switch {
	case n == 0:
		return 0
	case n < 16 && pointerFree:
		return n
	case n > 32768:
		return (n + 8191) &^ 8191
	}
	for _, c := range sizeClasses {
		if c >= n {
			return c
		}
	}
	return n
}

// heapCounter attributes allocations to structures: the first structure to
// reach an allocation owns it.
type heapCounter struct {
	seen map[uintptr]uintptr // allocation start → bytes counted
	maps []reflect.Value     // maps first reached by the structure being walked
	// propMaps counts the graph.Props maps reached so far.
	propMaps int
}

var propsType = reflect.TypeOf(graph.Props(nil))

// structure walks roots, the fields that hold a structure, and returns the
// bytes first reached from them.
func (h *heapCounter) structure(roots ...reflect.Value) int {
	h.maps = h.maps[:0]
	n := uintptr(0)
	for _, r := range roots {
		n += h.walk(r)
	}
	return int(n) + h.mapTables()
}

// writable strips the read-only flag reflection puts on values reached
// through unexported fields, so their maps can be ranged and rebuilt.
func writable(v reflect.Value) reflect.Value {
	if v.CanAddr() && !v.CanInterface() {
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	return v
}

// alloc records bytes at start and returns how many are new.
func (h *heapCounter) alloc(start, bytes uintptr) uintptr {
	if start == 0 || bytes == 0 {
		return 0
	}
	old := h.seen[start]
	if bytes <= old {
		return 0
	}
	h.seen[start] = bytes
	return bytes - old
}

func (h *heapCounter) walk(v reflect.Value) uintptr {
	v = writable(v)
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		t := v.Type().Elem()
		n := h.alloc(v.Pointer(), allocSize(t.Size(), !hasPointers(t)))
		if n == 0 {
			return 0
		}
		return n + h.walk(v.Elem())
	case reflect.Struct:
		if p, ok := atomicPointer(v); ok {
			return h.walk(p)
		}
		n := uintptr(0)
		for i := 0; i < v.NumField(); i++ {
			n += h.walk(v.Field(i))
		}
		return n
	case reflect.Array:
		n := uintptr(0)
		if hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += h.walk(v.Index(i))
			}
		}
		return n
	case reflect.Slice:
		if v.Cap() == 0 {
			return 0
		}
		et := v.Type().Elem()
		n := h.alloc(v.Pointer(), allocSize(uintptr(v.Cap())*et.Size(), !hasPointers(et)))
		if hasPointers(et) {
			for i := 0; i < v.Len(); i++ {
				n += h.walk(v.Index(i))
			}
		}
		return n
	case reflect.String:
		if v.Len() == 0 {
			return 0
		}
		return h.alloc(uintptr(unsafe.Pointer(unsafe.StringData(v.String()))), allocSize(uintptr(v.Len()), true))
	case reflect.Map:
		if v.IsNil() || h.alloc(v.Pointer(), 1) == 0 {
			return 0
		}
		if v.Type() == propsType {
			h.propMaps++
		}
		h.maps = append(h.maps, v)
		n := uintptr(0)
		for it := v.MapRange(); it.Next(); {
			n += h.walk(it.Key()) + h.walk(it.Value())
		}
		return n - 1
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return h.walk(v.Elem())
	}
	return 0
}

// atomicPointer follows a sync/atomic.Pointer[T] to its *T.
func atomicPointer(v reflect.Value) (reflect.Value, bool) {
	t := v.Type()
	if t.PkgPath() != "sync/atomic" || !strings.HasPrefix(t.Name(), "Pointer[") {
		return reflect.Value{}, false
	}
	elem := t.Field(0).Type.Elem() // the [0]*T field
	p := writable(v.FieldByName("v")).Interface().(unsafe.Pointer)
	return reflect.NewAt(elem.Elem(), p), true
}

// hasPointers reports whether values of t hold pointers the walk follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Interface,
		reflect.UnsafePointer, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// mapTables returns the bytes of the tables of the maps the last structure
// reached: what a collection frees once the fields holding them are cleared,
// with every key and value kept alive.
func (h *heapCounter) mapTables() int {
	if len(h.maps) == 0 {
		return 0
	}
	var entries []reflect.Value
	for _, m := range h.maps {
		for it := m.MapRange(); it.Next(); {
			entries = append(entries, it.Key(), it.Value())
		}
	}
	before := liveHeap()
	for _, m := range h.maps {
		m.SetZero()
	}
	clear(h.maps)
	after := liveHeap()
	runtime.KeepAlive(entries)
	return int(before - after)
}

// liveHeap returns the bytes of live heap objects after two full
// collections: the second empties what the first left in sync.Pool victim
// caches (the reply buffers earlier tests pooled).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapShare is one row of a store's heap account.
type heapShare struct {
	name  string
	bytes int
}

// storeHeap builds a served Pd store of about n vertices whose reply column
// holds every vertex and edge, and accounts its live heap per structure. The
// last row is what no listed structure reaches (the cache, counters, the
// store's shell).
func storeHeap(t *testing.T, n int) (shares []heapShare, total, vertices, propMaps int) {
	t.Helper()
	before := liveHeap()
	st := NewStore(gen.Pd(gen.PdConfig{N: n, Seed: 1}), 0)
	ep := st.Epoch()
	if err := writeSegmentJSON(&tally{}, ep.replies, wholeSegment(ep.P, nil), false, ""); err != nil {
		t.Fatal(err)
	}
	total = int(liveHeap() - before)

	field := func(v any, name string) reflect.Value {
		return writable(reflect.Indirect(reflect.ValueOf(v)).FieldByName(name))
	}
	live, snap := st.rec.P.PG(), ep.P.PG()
	h := &heapCounter{seen: make(map[uintptr]uintptr)}
	// The shells (the store, the epoch, the two graphs) belong to no
	// structure below: mark them seen so no walk enters them.
	for _, p := range []unsafe.Pointer{unsafe.Pointer(st), unsafe.Pointer(ep), unsafe.Pointer(live), unsafe.Pointer(snap)} {
		h.seen[uintptr(p)] = ^uintptr(0)
	}
	add := func(name string, roots ...reflect.Value) {
		shares = append(shares, heapShare{name, h.structure(roots...)})
	}
	add("property storage", field(live, "props"), field(live, "vTail"), field(live, "eTail"),
		field(live, "packer"), field(snap, "props"))
	add("CSR blocks", field(snap, "csr"))
	add("dictionary and label index", field(live, "dict"), field(live, "byLabel"),
		field(snap, "dict"), field(snap, "byLabel"))
	add("recorder index", field(st.rec, "versions"), field(st.rec, "agents"))
	add("reply column", field(ep.replies, "recs"))
	add("element columns", field(live, "vLabel"), field(live, "eLabel"), field(live, "eSrc"), field(live, "eDst"))
	attributed := 0
	for _, s := range shares {
		attributed += s.bytes
	}
	shares = append(shares, heapShare{"rest", total - attributed})
	runtime.KeepAlive(st)
	return shares, total, ep.Vertices, h.propMaps
}

// TestHeapAccounting reports a served Pd store's live heap per structure
// (Pd-20000; Pd-100000 too outside -short) and holds it to its budgets: at
// most 380 B per vertex in all (the live graph keeps no adjacency rows, and
// its snapshot's per-label CSR blocks are its only adjacency index), at most 100 B per vertex of
// packed properties, and no graph.Props map left once the graph is frozen.
func TestHeapAccounting(t *testing.T) {
	sizes := []int{20000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			shares, total, nv, propMaps := storeHeap(t, n)
			var b strings.Builder
			fmt.Fprintf(&b, "Pd-%d (%d vertices): %.2f MB live, %.0f B/vertex\n", n, nv, float64(total)/1e6, float64(total)/float64(nv))
			for _, s := range shares {
				fmt.Fprintf(&b, "  %-28s %8.3f MB %7.1f B/vertex\n", s.name, float64(s.bytes)/1e6, float64(s.bytes)/float64(nv))
			}
			t.Log(b.String())
			if total > 380*nv {
				t.Errorf("the store holds %d B for %d vertices, over 380 B/vertex", total, nv)
			}
			if shares[0].bytes > 100*nv {
				t.Errorf("property storage holds %d B for %d vertices, over 100 B/vertex", shares[0].bytes, nv)
			}
			if propMaps != 0 {
				t.Errorf("%d graph.Props maps survive the store's freeze", propMaps)
			}
			if rest := shares[len(shares)-1].bytes; rest < 0 {
				t.Errorf("the structures account for %d B more than the store's live heap", -rest)
			}
		})
	}
}

// segHotPool draws the seg_hot pool on p: k distinct queries, each of two
// consecutive entities at a uniform rank in the first half of the entity
// order and two in the last half, in the benchmark's poolSeed order.
func segHotPool(p *prov.Graph, k int) []core.Query {
	ents := p.Entities()
	half := len(ents)/2 - 1
	rng := rand.New(rand.NewSource(20190001)) // benchmark/workload.go poolSeed
	seen := map[[2]int]bool{}
	var qs []core.Query
	for len(qs) < k {
		a, b := rng.Intn(half), len(ents)-2-rng.Intn(half)
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		qs = append(qs, core.Query{
			Src: []graph.VertexID{ents[a], ents[a+1]},
			Dst: []graph.VertexID{ents[b], ents[b+1]},
		})
	}
	return qs
}

// residentBytes sums the sizes of c's resident entries.
func residentBytes(c *segCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		n += el.Value.(*cacheEntry).bytes()
	}
	return n
}

// TestCacheEntryBytes fills a Pd-20000 store's cache with the 64-query
// seg_hot pool and accounts its entries with the exact walker: each holds at
// most 32 KB (id lists of a segment's vertices and edges alone would be ~170
// KB, so no entry keeps them). A segment Store.Segment solves for the
// library is held to the same 32 KB: no solved segment carries id lists or a
// vertex set. The cache's byte count (CacheStats.Bytes) matches the entries
// it holds through evictions and an ingest that purges some of them and
// revalidates the rest.
func TestCacheEntryBytes(t *testing.T) {
	const pool = 64
	p := gen.Pd(gen.PdConfig{N: 20000, Seed: 1})
	qs := segHotPool(p, pool)
	st := NewStore(p, 0)
	for _, q := range qs {
		if _, cached, err := st.segmentAt(new(core.Work), st.Epoch(), q, core.Options{}, true); err != nil || cached {
			t.Fatalf("cold solve: cached=%v err=%v", cached, err)
		}
	}
	stats := st.cache.stats()
	if stats.Entries != pool || stats.Bytes != residentBytes(st.cache) {
		t.Fatalf("%d entries counted at %d bytes; want %d entries, %d bytes", stats.Entries, stats.Bytes, pool, residentBytes(st.cache))
	}

	h := &heapCounter{seen: make(map[uintptr]uintptr)}
	h.seen[uintptr(unsafe.Pointer(st.Epoch().P))] = ^uintptr(0) // the snapshot every entry points at
	field := func(name string) reflect.Value {
		return writable(reflect.ValueOf(st.cache).Elem().FieldByName(name))
	}
	held := h.structure(field("ll"), field("byK"))
	perEntry := held / pool
	t.Logf("Pd-20000 seg_hot pool: %d entries hold %.1f KB (%.1f KB per entry); the cache counts %.1f KB", pool, float64(held)/1e3, float64(perEntry)/1e3, float64(stats.Bytes)/1e3)
	if perEntry > 32<<10 {
		t.Errorf("a cache entry holds %d bytes, over 32 KB", perEntry)
	}
	if stats.Bytes > held || 4*stats.Bytes < 3*held {
		t.Errorf("the cache counts %d bytes for entries that hold %d", stats.Bytes, held)
	}

	seg, cached, err := st.Segment(qs[0], core.Options{}, false)
	if err != nil || cached {
		t.Fatalf("library solve: cached=%v err=%v", cached, err)
	}
	lib := &heapCounter{seen: map[uintptr]uintptr{uintptr(unsafe.Pointer(st.Epoch().P)): ^uintptr(0)}}
	if n := lib.structure(reflect.ValueOf(seg)); n > 32<<10 {
		t.Errorf("a segment Store.Segment solves holds %d bytes, over 32 KB", n)
	} else {
		t.Logf("a segment Store.Segment solves holds %.1f KB", float64(n)/1e3)
	}

	// Evictions, then a purge.
	small := NewStore(p, pool/4)
	for _, q := range qs {
		if _, _, err := small.segmentAt(new(core.Work), small.Epoch(), q, core.Options{}, true); err != nil {
			t.Fatal(err)
		}
	}
	if s := small.cache.stats(); s.Entries != pool/4 || s.Bytes != residentBytes(small.cache) {
		t.Fatalf("after evictions: %d entries counted at %d bytes, resident %d", s.Entries, s.Bytes, residentBytes(small.cache))
	}
	// A write that uses an entity in some resident entry's support, not in
	// all of them.
	var touched graph.VertexID
	for _, e := range p.Entities() {
		n := 0
		for el := small.cache.ll.Front(); el != nil; el = el.Next() {
			if el.Value.(*cacheEntry).seg.Support().Contains(uint32(e)) {
				n++
			}
		}
		if n > 0 && n < pool/4 {
			touched = e
			break
		}
	}
	if touched == 0 {
		t.Fatal("no entity is in some resident supports and not all")
	}
	if err := small.Update(func(rec *prov.Recorder) error {
		rec.Run("writer", "touch", []graph.VertexID{touched}, []string{"out"})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := small.cache.stats()
	if s.Invalidations == 0 || s.Entries == 0 || s.Bytes != residentBytes(small.cache) {
		t.Fatalf("after an ingest: %d purged, %d left counted at %d bytes, resident %d", s.Invalidations, s.Entries, s.Bytes, residentBytes(small.cache))
	}
}
