package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/graph"
)

// writeRecords appends the given (epoch, payload) pairs to a fresh log at
// path and closes it, returning the raw file bytes.
func writeRecords(t *testing.T, path string, recs [][]byte) []byte {
	t.Helper()
	lg, err := OpenLog(path, 0, nil)
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	for i, p := range recs {
		appendOne(t, lg, uint64(i+1), p)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appendOne frames a single record through the batch call (the only append
// there is) and fsyncs it.
func appendOne(t *testing.T, lg *Log, epoch uint64, payload []byte) {
	t.Helper()
	if _, err := lg.AppendBatchTimed([]Record{{Epoch: epoch, Payload: payload}}); err != nil {
		t.Fatalf("append epoch %d: %v", epoch, err)
	}
	if err := lg.Sync(); err != nil {
		t.Fatalf("sync epoch %d: %v", epoch, err)
	}
}

func replayAll(t *testing.T, data []byte) ([][]byte, ReplayInfo) {
	t.Helper()
	var got [][]byte
	info, err := Replay(bytes.NewReader(data), func(epoch uint64, payload []byte) error {
		if int(epoch) != len(got)+1 {
			t.Fatalf("epoch %d out of order (want %d)", epoch, len(got)+1)
		}
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, info
}

func TestLogRoundTrip(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), {}, []byte("gamma with a longer payload"), {0x00, 0xff}}
	data := writeRecords(t, filepath.Join(t.TempDir(), "w.log"), recs)
	got, info := replayAll(t, data)
	if info.Torn || info.Records != len(recs) || info.GoodBytes != int64(len(data)) {
		t.Fatalf("info = %+v, want %d records over %d bytes", info, len(recs), len(data))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch: %q vs %q", i, got[i], recs[i])
		}
	}
}

// TestAppendBatchRoundTrip: a grouped append is byte-compatible with the
// same records appended one by one — replay cannot tell them apart — and
// one Sync covers the whole group.
func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		{Epoch: 1, Payload: []byte("alpha")},
		{Epoch: 2, Payload: []byte{}},
		{Epoch: 3, Payload: []byte("gamma with a longer payload")},
		{Epoch: 4, Payload: bytes.Repeat([]byte{0xab}, 9000)},
	}
	var stats statCounters
	lg, err := OpenLog(filepath.Join(dir, "batch.log"), 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.AppendBatchTimed(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := lg.AppendBatchTimed(recs); err != nil {
		t.Fatal(err)
	}
	if got := stats.fsyncs.Load(); got != 0 {
		t.Fatalf("append paid %d fsyncs, want none before Sync", got)
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stats.fsyncs.Load(); got != 1 { // one for the whole group (Close syncs uncounted)
		t.Fatalf("batch of %d paid %d counted fsyncs, want 1", len(recs), got)
	}
	if got := stats.records.Load(); got != uint64(len(recs)) {
		t.Fatalf("record counter %d, want %d", got, len(recs))
	}

	batched, err := os.ReadFile(filepath.Join(dir, "batch.log"))
	if err != nil {
		t.Fatal(err)
	}
	var single [][]byte
	for _, r := range recs {
		single = append(single, r.Payload)
	}
	serial := writeRecords(t, filepath.Join(dir, "serial.log"), single)
	if !bytes.Equal(batched, serial) {
		t.Fatal("grouped append is not byte-identical to serial appends")
	}
	got, info := replayAll(t, batched)
	if info.Torn || info.Records != len(recs) {
		t.Fatalf("replay info %+v", info)
	}
	for i, r := range recs {
		if !bytes.Equal(got[i], r.Payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestAppendBatchOversizedRecord: a batch containing an over-limit record
// is refused before any byte is written.
func TestAppendBatchOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.log")
	lg, err := OpenLog(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	// make of maxRecordLen bytes is a large but untouched mapping: the limit
	// check fires on len() before any framing writes to it.
	_, err = lg.AppendBatchTimed([]Record{{Epoch: 1, Payload: []byte("ok")}, {Epoch: 2, Payload: make([]byte, maxRecordLen)}})
	if err == nil {
		t.Fatal("oversized batch accepted")
	}
	data, _ := os.ReadFile(path)
	if len(data) != 0 {
		t.Fatalf("refused batch still wrote %d bytes", len(data))
	}
}

// TestManagerAppendBatch drives the manager-level group append end to end:
// bootstrap, one grouped append, recovery replays every member in order.
func TestManagerAppendBatch(t *testing.T) {
	dir := t.TempDir()
	m, rcv, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rcv.Fresh {
		t.Fatalf("fresh dir: %+v", rcv)
	}
	g := graph.New()
	if err := m.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendBatch(makeDeltaBatch(t, g, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	var epochs []uint64
	_, rcv2, err := Open(Options{Dir: dir, OnRecord: func(epoch uint64, firstNewVertex int) error {
		epochs = append(epochs, epoch)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rcv2.Epoch != 3 || rcv2.Replayed != 3 || rcv2.TornTail {
		t.Fatalf("recovery after grouped append: %+v", rcv2)
	}
	for i, e := range epochs {
		if e != uint64(i+1) {
			t.Fatalf("replay order: %v", epochs)
		}
	}
}

// makeDeltaBatch grows g by n single-vertex deltas and returns them as a
// record batch with consecutive epochs.
func makeDeltaBatch(t *testing.T, g *graph.Graph, n int) []Record {
	t.Helper()
	var recs []Record
	for i := 0; i < n; i++ {
		baseD, baseV, baseE := g.Dict().Len(), g.NumVertices(), g.NumEdges()
		g.AddVertex(g.Dict().Intern(fmt.Sprintf("L%d", i)))
		var buf bytes.Buffer
		if err := g.EncodeDelta(&buf, baseD, baseV, baseE); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{Epoch: uint64(i + 1), Payload: append([]byte(nil), buf.Bytes()...)})
	}
	return recs
}

// TestLogTornTail truncates the log at every byte offset: replay must
// return exactly the records whose frames fit, flag everything else torn,
// and never error or panic.
func TestLogTornTail(t *testing.T) {
	recs := [][]byte{[]byte("one"), []byte("two-two"), []byte("33333")}
	data := writeRecords(t, filepath.Join(t.TempDir(), "w.log"), recs)
	// Frame boundaries: prefix sums of 8-byte header + 8-byte epoch + payload.
	bounds := []int64{0}
	for _, r := range recs {
		bounds = append(bounds, bounds[len(bounds)-1]+int64(frameHeaderLen+bodyHeaderLen+len(r)))
	}
	for cut := 0; cut <= len(data); cut++ {
		got, info := replayAll(t, data[:cut])
		wantN := 0
		for _, b := range bounds[1:] {
			if int64(cut) >= b {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: %d records, want %d", cut, len(got), wantN)
		}
		if info.GoodBytes != bounds[wantN] {
			t.Fatalf("cut %d: GoodBytes %d, want %d", cut, info.GoodBytes, bounds[wantN])
		}
		if wantTorn := int64(cut) != bounds[wantN]; info.Torn != wantTorn {
			t.Fatalf("cut %d: Torn=%v, want %v", cut, info.Torn, wantTorn)
		}
	}
}

// TestLogCorruptRecord flips one byte at every offset: replay stops at (or
// before) the record containing the flip and never panics.
func TestLogCorruptRecord(t *testing.T) {
	recs := [][]byte{[]byte("aaaa"), []byte("bbbbbbbb"), []byte("cc")}
	data := writeRecords(t, filepath.Join(t.TempDir(), "w.log"), recs)
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		var n int
		info, err := Replay(bytes.NewReader(mut), func(epoch uint64, payload []byte) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		// The flip corrupts exactly one frame; all records before it must
		// survive, nothing after it may be read (a corrupt length field can
		// also swallow the rest of the file, which is fine — it's torn).
		if !info.Torn && n != len(recs) {
			t.Fatalf("off %d: not torn but only %d records", off, n)
		}
	}
}

func TestOpenLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	data := writeRecords(t, path, [][]byte{[]byte("keep"), []byte("gone")})
	// Chop mid-way through the second record, reopen at the good prefix,
	// append a replacement; replay must see keep + replacement.
	_, info := replayAll(t, data[:len(data)-3])
	if info.Records != 1 || !info.Torn {
		t.Fatalf("setup: %+v", info)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := OpenLog(path, info.GoodBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, lg, 2, []byte("replacement"))
	lg.Close()
	reread, _ := os.ReadFile(path)
	got, info := replayAll(t, reread)
	if info.Torn || len(got) != 2 || string(got[0]) != "keep" || string(got[1]) != "replacement" {
		t.Fatalf("after reopen: %+v %q", info, got)
	}
}

// --- manager tests ---

// testGraph builds a small prov-shaped graph the manager can checkpoint.
func testGraph(n int) *graph.Graph {
	g := graph.New()
	l := g.Dict().Intern("v")
	el := g.Dict().Intern("e")
	for i := 0; i < n; i++ {
		v := g.AddVertex(l)
		g.SetVertexProp(v, "name", graph.String(fmt.Sprintf("n%d", i)))
		if i > 0 {
			g.AddEdge(v, v-1, el)
		}
	}
	return g
}

// appendBatch mutates g with one batch and appends the delta at epoch.
func appendBatch(t *testing.T, m *Manager, g *graph.Graph, epoch uint64, extra int) (baseDict, baseV, baseE int) {
	t.Helper()
	baseDict, baseV, baseE = g.Dict().Len(), g.NumVertices(), g.NumEdges()
	l, _ := g.Dict().Lookup("v")
	el, _ := g.Dict().Lookup("e")
	for i := 0; i < extra; i++ {
		v := g.AddVertex(l)
		if int(v) > 0 {
			g.AddEdge(v, 0, el)
		}
	}
	var buf bytes.Buffer
	if err := g.EncodeDelta(&buf, baseDict, baseV, baseE); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendBatch([]Record{{Epoch: epoch, Payload: buf.Bytes()}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	return
}

func openDir(t *testing.T, dir string) (*Manager, *Recovery) {
	t.Helper()
	m, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return m, rec
}

func TestManagerBootstrapAndRecover(t *testing.T) {
	dir := t.TempDir()
	m, rec := openDir(t, dir)
	if !rec.Fresh {
		t.Fatalf("fresh dir not reported fresh: %+v", rec)
	}
	g := testGraph(5)
	if err := m.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, m, g, 1, 3)
	appendBatch(t, m, g, 2, 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec2 := openDir(t, dir)
	defer m2.Close()
	if rec2.Fresh || rec2.Epoch != 2 || rec2.Replayed != 2 || rec2.TornTail {
		t.Fatalf("recovery: %+v", rec2)
	}
	if rec2.Graph.NumVertices() != g.NumVertices() || rec2.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("recovered %d/%d, want %d/%d", rec2.Graph.NumVertices(), rec2.Graph.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	// Ingest resumes on the recovered state.
	appendBatch(t, m2, rec2.Graph, 3, 1)
}

func TestManagerCheckpointRotateAndCleanup(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDir(t, dir)
	g := testGraph(4)
	if err := m.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	for ep := uint64(1); ep <= 3; ep++ {
		appendBatch(t, m, g, ep, 2)
	}
	// Checkpoint at epoch 3: rotate then write, as the store does.
	if err := m.Rotate(3); err != nil {
		t.Fatal(err)
	}
	fz := g.Freeze()
	if err := m.Checkpoint(fz, 3); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, m, g, 4, 2)
	st := m.StatsSnapshot()
	if st.Checkpoints != 2 || st.LastCheckpointEpoch != 3 || st.Records != 4 {
		t.Fatalf("stats: %+v", st)
	}
	m.Close()

	// Old checkpoint-0 and wal-0 must be gone.
	for _, name := range []string{checkpointName(0), logName(0)} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("obsolete file %s survived cleanup", name)
		}
	}
	m2, rec := openDir(t, dir)
	defer m2.Close()
	if rec.CheckpointEpoch != 3 || rec.Epoch != 4 || rec.Replayed != 1 {
		t.Fatalf("recovery after checkpoint: %+v", rec)
	}
	if rec.Graph.NumVertices() != g.NumVertices() {
		t.Fatalf("recovered shape mismatch")
	}
}

// TestManagerCrashBetweenRotateAndCheckpoint models the crash window where
// the new log exists but its checkpoint was never written: recovery must
// chain the old checkpoint through both logs.
func TestManagerCrashBetweenRotateAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDir(t, dir)
	g := testGraph(3)
	if err := m.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, m, g, 1, 2)
	appendBatch(t, m, g, 2, 2)
	if err := m.Rotate(2); err != nil {
		t.Fatal(err)
	}
	// Crash here: no Checkpoint(., 2). Records keep landing in wal-2.
	appendBatch(t, m, g, 3, 4)
	m.Close()

	m2, rec := openDir(t, dir)
	defer m2.Close()
	if rec.CheckpointEpoch != 0 || rec.Epoch != 3 || rec.Replayed != 3 {
		t.Fatalf("chained recovery: %+v", rec)
	}
	if rec.Graph.NumVertices() != g.NumVertices() || rec.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("chained recovery shape mismatch")
	}
}

func TestManagerRejectsEpochGap(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDir(t, dir)
	g := testGraph(2)
	if err := m.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, m, g, 1, 1)
	// Skip epoch 2: append a (structurally valid) delta labeled epoch 3.
	appendBatch(t, m, g, 3, 1)
	m.Close()
	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrRecovery) {
		t.Fatalf("epoch gap: want ErrRecovery, got %v", err)
	}
}

func TestManagerLogsWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName(0)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrRecovery) {
		t.Fatalf("want ErrRecovery, got %v", err)
	}
}

func TestDirHasState(t *testing.T) {
	dir := t.TempDir()
	if has, err := DirHasState(dir); err != nil || has {
		t.Fatalf("empty dir: has=%v err=%v", has, err)
	}
	if has, err := DirHasState(filepath.Join(dir, "missing")); err != nil || has {
		t.Fatalf("missing dir: has=%v err=%v", has, err)
	}
	m, _ := openDir(t, dir)
	if err := m.Bootstrap(testGraph(1)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if has, err := DirHasState(dir); err != nil || !has {
		t.Fatalf("bootstrapped dir: has=%v err=%v", has, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round-trip: %q vs %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestManagerTickerFailureIsSticky: under SyncInterval a failed background
// flush means batches acknowledged since the last good one may not be
// durable. The manager must not swallow it: the next AppendBatch and Sync
// report that first failure, and the counter shows it.
func TestManagerTickerFailureIsSticky(t *testing.T) {
	m, _, err := Open(Options{Dir: t.TempDir(), Policy: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	if err := m.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	recs := makeDeltaBatch(t, g, 2)
	if _, err := m.AppendBatch(recs[:1]); err != nil {
		t.Fatal(err)
	}
	// Pull the file out from under the ticker: its next fsync fails.
	m.log.mu.Lock()
	m.log.f.Close()
	m.log.mu.Unlock()
	select {
	case <-m.tickerDone: // the ticker stops at its first failure
	case <-time.After(10 * time.Second):
		t.Fatal("ticker survived a failing fsync")
	}
	if _, err := m.AppendBatch(recs[1:]); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after a failed background fsync: %v, want the fsync's error", err)
	}
	if err := m.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("sync after a failed background fsync: %v, want the fsync's error", err)
	}
	if st := m.StatsSnapshot(); st.SyncFailures != 1 || st.Records != 1 {
		t.Fatalf("stats after the failure: %+v, want 1 sync failure and 1 record", st)
	}
	if err := m.Close(); err == nil {
		t.Fatal("Close sealed a log whose file is gone")
	}
}
