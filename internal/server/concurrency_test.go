package server

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prov"
)

// checkSegmentConsistent asserts a segment response is internally
// consistent with one snapshot: the counts match the payload, every edge
// endpoint is a listed vertex, and every id is below the response's own
// vertex horizon (vertex ids are dense, so a mixed-epoch response would
// reference ids past the epoch it claims).
func checkSegmentConsistent(t *testing.T, r *SegmentResponse) {
	t.Helper()
	if r.NumVertices != len(r.Vertices) || r.NumEdges != len(r.Edges) {
		t.Errorf("segment counts disagree with payload: %d/%d vs %d/%d",
			r.NumVertices, r.NumEdges, len(r.Vertices), len(r.Edges))
		return
	}
	in := make(map[uint32]bool, len(r.Vertices))
	for _, v := range r.Vertices {
		in[v.ID] = true
	}
	for _, e := range r.Edges {
		if !in[e.Src] || !in[e.Dst] {
			t.Errorf("segment edge %d (%d->%d) references a vertex outside the segment", e.ID, e.Src, e.Dst)
			return
		}
	}
}

// TestIngestVersusReadsUnderRace hammers Store.Update via /ingest while
// readers issue /segment, /adjust and /metrics. Under -race this is the
// epoch-swap soundness proof for the incremental freeze path on the commit
// hot loop; the assertions check every response is internally consistent
// with some single epoch (monotone watermarks per epoch, self-contained
// segments).
func TestIngestVersusReadsUnderRace(t *testing.T) {
	ts, store, ids := newTestServer(t)
	const (
		writers = 2
		readers = 3
		rounds  = 25
	)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := IngestRequest{Ops: []IngestOp{
					{Op: "agent", Agent: fmt.Sprintf("w%d", w)},
					{Op: "run", Agent: fmt.Sprintf("w%d", w), Command: "hammer",
						Inputs:  []uint32{uint32(ids["dataset"])},
						Outputs: []string{fmt.Sprintf("art-%d-%d", w, i)}},
				}}
				var resp IngestResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/ingest", req, &resp); code != http.StatusOK {
					t.Errorf("ingest status %d", code)
					return
				}
				if resp.Edges == 0 || resp.Vertices == 0 {
					t.Error("ingest reply missing commit watermark")
					return
				}
			}
		}()
	}

	seg := SegmentRequest{
		Src: []uint32{uint32(ids["dataset"])},
		Dst: []uint32{uint32(ids["model-v2"])},
	}
	adj := AdjustRequest{Segment: seg, ExcludeKinds: []string{"U"}}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// vertices/edges per observed epoch, to catch a torn epoch
			// (same N, different watermark) and non-monotone swaps.
			seen := map[uint64][2]int{}
			maxEpoch := uint64(0)
			for i := 0; i < rounds; i++ {
				var sr SegmentResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/segment", seg, &sr); code != http.StatusOK {
					t.Errorf("segment status %d", code)
					return
				}
				checkSegmentConsistent(t, &sr)

				var ar SegmentResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/adjust", adj, &ar); code != http.StatusOK {
					t.Errorf("adjust status %d", code)
					return
				}
				checkSegmentConsistent(t, &ar)
				for _, v := range ar.Vertices {
					if v.Kind == "U" {
						t.Error("adjust response leaked an excluded agent")
						return
					}
				}

				var m MetricsResponse
				if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
					t.Errorf("metrics status %d", code)
					return
				}
				if got, ok := seen[m.Epoch]; ok && (got[0] != m.Vertices || got[1] != m.Edges) {
					t.Errorf("epoch %d reported two watermarks: %v vs %d/%d", m.Epoch, got, m.Vertices, m.Edges)
					return
				}
				seen[m.Epoch] = [2]int{m.Vertices, m.Edges}
				if m.Epoch < maxEpoch {
					t.Errorf("epoch went backwards: %d after %d", m.Epoch, maxEpoch)
					return
				}
				maxEpoch = m.Epoch
			}
		}()
	}
	wg.Wait()

	// Every committed batch built its snapshot by extending the previous
	// epoch: the hammer loop must never have fallen back to a full rebuild
	// (the only full build is NewStore's epoch 0).
	fs := store.Metrics().Freeze
	if fs.Full != 1 {
		t.Errorf("commit path fell back to full rebuilds: %+v", fs)
	}
	if fs.Incremental != uint64(writers*rounds) {
		t.Errorf("incremental freeze count: want %d, got %+v", writers*rounds, fs)
	}

	// Cross-epoch watermark monotonicity over everything any reader saw.
	var m MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.Epoch != uint64(writers*rounds) {
		t.Errorf("final epoch: want %d, got %d", writers*rounds, m.Epoch)
	}
}

// TestCacheAcrossBackToBackIngests pins down the interleaving where two
// commits land between a reader's snapshot load (the "cache lookup" half)
// and the cache's epoch tag check: entries must survive exactly the deltas
// that leave their support untouched, chained across *consecutive* commits;
// and a reader pinned to a pre-commit epoch must neither be served a
// newer-epoch entry nor poison the cache with its stale solve.
func TestCacheAcrossBackToBackIngests(t *testing.T) {
	p, ids := testLifecycle()
	store := NewStore(p, 16)
	q := core.Query{
		Src: []graph.VertexID{ids["dataset"]},
		Dst: []graph.VertexID{ids["model-v2"]},
	}
	// side commits one disconnected batch (new agent, no inputs): its delta
	// cannot touch any existing support set.
	side := func(i int) {
		t.Helper()
		if err := store.Update(func(rec *prov.Recorder) error {
			rec.Run(fmt.Sprintf("side%d", i), "side-work", nil, []string{fmt.Sprintf("side-art-%d", i)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// fresh solves q against the current snapshot with no cache involved.
	fresh := func() *core.Segment {
		t.Helper()
		seg, err := core.NewEngine(store.Epoch().P, core.Options{}).Segment(q)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}

	// Prime the cache, then pin the pre-commit epoch the way a slow reader
	// (or a multi-segment /summarize) would.
	if _, cached, err := store.Segment(q, core.Options{}, true); err != nil || cached {
		t.Fatalf("prime: cached=%v err=%v", cached, err)
	}
	ep0 := store.Epoch()

	// Two back-to-back commits, both support-untouching: the entry must be
	// revalidated across BOTH advances and still be served as a hit, with a
	// result identical to a fresh solve at the new epoch.
	side(1)
	side(2)
	seg, cached, err := store.Segment(q, core.Options{}, true)
	if err != nil || !cached {
		t.Fatalf("entry did not survive two untouching commits: cached=%v err=%v", cached, err)
	}
	want := fresh()
	if !slices.Equal(seg.VertexRuns, want.VertexRuns) || !slices.Equal(seg.EdgeRuns, want.EdgeRuns) {
		t.Fatal("revalidated entry diverged from a fresh solve at the new epoch")
	}
	if cs := store.Metrics().Cache; cs.Revalidations != 2 || cs.Invalidations != 0 {
		t.Fatalf("want 2 revalidations across back-to-back commits, got %+v", cs)
	}

	// The pinned reader resolves the same query at its old epoch: the
	// resident entry is tagged two epochs ahead, so serving it would leak
	// future state — the lookup must miss and re-solve against ep0.
	segStale, cachedStale, err := store.segmentAt(new(core.Work), ep0, q, core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if cachedStale {
		t.Fatal("reader pinned at an old epoch was served a newer-epoch cache entry")
	}
	if segStale.P != ep0.P {
		t.Fatal("stale-epoch solve ran against the wrong snapshot")
	}
	// And its stale add must not have displaced the current-epoch entry.
	if _, cached, _ := store.Segment(q, core.Options{}, true); !cached {
		t.Fatal("stale-epoch solve poisoned the current-epoch cache entry")
	}

	// Back-to-back pair where only the SECOND delta touches the support
	// set: the chained revalidation must purge the entry (a lookup that
	// only checked the first delta would wrongly serve it).
	side(3)
	if err := store.Update(func(rec *prov.Recorder) error {
		rec.Run("alice", "retrain", []graph.VertexID{ids["model-v2"]}, []string{"model"})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seg, cached, err = store.Segment(q, core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("entry survived a chained commit pair whose second delta touched its support")
	}
	want = fresh()
	if !slices.Equal(seg.VertexRuns, want.VertexRuns) || !slices.Equal(seg.EdgeRuns, want.EdgeRuns) {
		t.Fatal("re-solve after purge diverged from a fresh solve")
	}
	if cs := store.Metrics().Cache; cs.Invalidations != 1 {
		t.Fatalf("want 1 invalidation from the touching delta, got %+v", cs)
	}
}
