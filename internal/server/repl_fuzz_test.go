package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/repl"
	"repro/internal/wal"
)

// FuzzWALStream points a follower applier at arbitrary bytes served as a
// replication stream. The contract under fuzz is the WAL's own resumability
// contract: whatever the leader (or an attacker, or a flaky network) puts on
// the wire, the applier never panics, and the store lands on exactly the
// longest contiguous, applicable epoch prefix of the stream — computed here
// by an independent decode-and-apply over a bare graph. A torn frame, a bad
// CRC, a malformed meta payload, an epoch gap or an undecodable delta may
// end the stream early; none of them may move the published snapshot past
// the prefix or leave it internally inconsistent.
//
// The checkpoint (re-seed) path is announced out-of-band via the
// X-Repl-Snapshot header, which raw bytes cannot forge, so this fuzz covers
// the delta path; the re-seed path is pinned by TestReplCheckpointSeedAndReseed.

// fuzzMetaFrame renders one meta frame as ServeStream would ship it.
func fuzzMetaFrame(leaderEpoch uint64, nanos int64) []byte {
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:8], leaderEpoch)
	binary.LittleEndian.PutUint64(p[8:16], uint64(nanos))
	var buf bytes.Buffer
	if err := wal.WriteFrame(&buf, repl.MetaEpoch, p[:]); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzLeaderStream captures a real leader's wire stream for n epochs: the
// opening meta frame followed by every published delta, framed exactly as
// ServeStream ships them. The seed corpus under testdata/fuzz/FuzzWALStream
// holds checked-in copies of these shapes so the nightly fuzzer starts from
// real protocol bytes.
func fuzzLeaderStream(tb testing.TB, n int) []byte {
	tb.Helper()
	leader := NewStore(prov.New(), 8)
	defer leader.Close()
	h := leader.EnableRepl()
	for i := 0; i < n; i++ {
		if err := leader.Update(func(rec *prov.Recorder) error {
			rec.Snapshot(fmt.Sprintf("seed-%d", i))
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	buf.Write(fuzzMetaFrame(h.Head(), 1))
	for ep := uint64(0); ep < h.Head(); {
		e, res := h.WaitNext(ep, time.Second, nil)
		if res != repl.WaitReady {
			tb.Fatalf("hub drain stalled: %v at epoch %d", res, ep)
		}
		if err := wal.WriteFrame(&buf, e.Epoch, e.Payload); err != nil {
			tb.Fatal(err)
		}
		ep = e.Epoch
	}
	return buf.Bytes()
}

// fuzzStreamSeeds is the seed set: a real stream, its torn/corrupt/replayed
// mutations, and degenerate shapes.
func fuzzStreamSeeds(tb testing.TB) [][]byte {
	full := fuzzLeaderStream(tb, 6)
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x20
	return [][]byte{
		{},
		full,
		full[:len(full)-3], // torn tail mid-frame
		corrupt,            // CRC failure mid-stream
		append(append([]byte(nil), full...), full...), // epoch restart: gap refused
		fuzzMetaFrame(3, 0),                           // heartbeat only, no deltas
		append(fuzzMetaFrame(1, 1), 0xde, 0xad),       // meta then garbage
	}
}

func FuzzWALStream(f *testing.F) {
	for _, seed := range fuzzStreamSeeds(f) {
		f.Add(seed)
	}

	// One shared leader endpoint per worker process; each iteration swaps in
	// its input as the response body. Iterations within a worker run
	// sequentially, so the pointer cannot race.
	var cur atomic.Pointer[[]byte]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := cur.Load(); p != nil {
			_, _ = w.Write(*p)
		}
	}))
	f.Cleanup(ts.Close)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference: decode the stream independently and apply each delta to
		// a bare graph, stopping exactly where the applier's contract says
		// the stream ends — frame error, malformed meta, epoch gap, or a
		// delta the graph refuses.
		ref := prov.New()
		refEpoch := uint64(0)
		fr := wal.NewFrameReader(bytes.NewReader(data))
	decode:
		for {
			epoch, payload, err := fr.Next()
			switch {
			case err != nil:
				break decode
			case epoch == repl.MetaEpoch:
				if len(payload) != 16 {
					break decode
				}
			case epoch != refEpoch+1:
				break decode
			default:
				if ref.PG().ApplyDelta(bytes.NewReader(payload)) != nil {
					break decode
				}
				refEpoch = epoch
			}
		}

		cur.Store(&data)
		fol := newFollowerStore(DefaultStore, RegistryOptions{Leader: ts.URL, CacheCap: 4})
		defer fol.Close()
		_ = fol.followOnce(context.Background(), ts.Client())

		ep := fol.Epoch()
		if ep.N != refEpoch {
			t.Fatalf("follower landed at epoch %d, reference prefix ends at %d", ep.N, refEpoch)
		}
		if ep.Vertices != ep.P.NumVertices() || ep.Edges != ep.P.NumEdges() {
			t.Fatalf("published snapshot inconsistent: counts %d/%d, graph %d/%d",
				ep.Vertices, ep.Edges, ep.P.NumVertices(), ep.P.NumEdges())
		}
		if ep.Vertices != ref.NumVertices() || ep.Edges != ref.NumEdges() {
			t.Fatalf("follower diverged from reference at epoch %d: %d/%d vs %d/%d",
				refEpoch, ep.Vertices, ep.Edges, ref.NumVertices(), ref.NumEdges())
		}
	})
}
