package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/difftest"
	"repro/internal/prov"
	"repro/internal/wal"
)

// Kill-replay differential harness, in the style of internal/graph/difftest:
// a deterministic ingest script runs against a durable store, the process
// "crashes" at an arbitrary byte of the write-ahead log (a SIGKILL leaves
// exactly a byte prefix of the fsynced log, possibly mid-record), and
// recovery must reconstruct a store indistinguishable from an uncrashed run
// of the same epoch prefix — graph rows, dictionary, label index,
// core.Segment results, and lifecycle recorder state — and then resume
// ingest to the same final state.

// scriptBatch is one committed ingest batch of wire-level ops.
type scriptBatch []IngestOp

// randomScript derives nBatches deterministic batches from seed. Run inputs
// reference entity vertex ids, which are themselves deterministic, so the
// same script replays identically on any store.
func randomScript(seed int64, nBatches int) []scriptBatch {
	rng := rand.New(rand.NewSource(seed))
	scratch := prov.NewRecorder()
	var entities []uint32
	agents := []string{"alice", "bob", "carol"}
	artifacts := []string{"data.csv", "train.py", "model.bin", "eval.json", "notes.md"}
	script := make([]scriptBatch, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		n := 1 + rng.Intn(3)
		var batch scriptBatch
		for i := 0; i < n; i++ {
			switch r := rng.Intn(10); {
			case r < 1:
				batch = append(batch, IngestOp{Op: "agent", Agent: agents[rng.Intn(len(agents))]})
			case r < 3:
				batch = append(batch, IngestOp{
					Op: "import", Agent: agents[rng.Intn(len(agents))],
					Artifact: artifacts[rng.Intn(len(artifacts))], URL: "http://example/x",
				})
			case r < 5:
				batch = append(batch, IngestOp{Op: "snapshot", Artifact: artifacts[rng.Intn(len(artifacts))]})
			default:
				var inputs []uint32
				for k := 0; k < rng.Intn(3) && len(entities) > 0; k++ {
					inputs = append(inputs, entities[rng.Intn(len(entities))])
				}
				outs := []string{artifacts[rng.Intn(len(artifacts))]}
				if rng.Intn(3) == 0 {
					outs = append(outs, artifacts[rng.Intn(len(artifacts))])
				}
				batch = append(batch, IngestOp{
					Op: "run", Agent: agents[rng.Intn(len(agents))],
					Command: fmt.Sprintf("cmd-%d", b), Inputs: inputs, Outputs: outs,
				})
			}
		}
		// Track the entity population by replaying onto the scratch recorder.
		for _, id := range applyScriptOps(scratch, batch) {
			entities = append(entities, uint32(id))
		}
		script = append(script, batch)
	}
	return script
}

// applyScriptOps replays one batch through a recorder (the handleIngest op
// switch) and returns the entity vertices it created.
func applyScriptOps(rec *prov.Recorder, batch scriptBatch) []graph.VertexID {
	var ents []graph.VertexID
	for _, op := range batch {
		switch op.Op {
		case "agent":
			rec.Agent(op.Agent)
		case "import":
			ents = append(ents, rec.Import(op.Agent, op.Artifact, op.URL))
		case "snapshot":
			ents = append(ents, rec.Snapshot(op.Artifact))
		case "run":
			_, outs := rec.Run(op.Agent, op.Command, toVertexIDs(op.Inputs), op.Outputs)
			ents = append(ents, outs...)
		}
	}
	return ents
}

// ingestBatch commits one script batch through the store's write path.
func ingestBatch(t *testing.T, s *Store, batch scriptBatch) {
	t.Helper()
	if err := s.Update(func(rec *prov.Recorder) error {
		applyScriptOps(rec, batch)
		return nil
	}); err != nil {
		t.Fatalf("ingest batch: %v", err)
	}
}

// refRun replays the whole script on a memory-only store, returning the
// store plus the frozen snapshot at every epoch (index j = after j batches).
func refRun(t *testing.T, script []scriptBatch) (*Store, []*prov.Graph) {
	t.Helper()
	s := NewStore(prov.New(), 16)
	snaps := []*prov.Graph{s.Epoch().P}
	for _, b := range script {
		ingestBatch(t, s, b)
		snaps = append(snaps, s.Epoch().P)
	}
	return s, snaps
}

// diffStores asserts the recovered store is indistinguishable from the
// reference snapshot at the same epoch: snapshot rows/dict/labels via
// difftest.DiffSnapshots, PgSeg results over deterministic queries via
// difftest.DiffSegments, and the lifecycle recorder's artifact/agent
// indexes.
func diffStores(refP *prov.Graph, refRec *prov.Recorder, got *Store, artifacts, agents []string) error {
	gotP := got.Epoch().P
	if err := difftest.DiffSnapshots(refP.PG(), gotP.PG()); err != nil {
		return fmt.Errorf("snapshot diff: %w", err)
	}
	ents := refP.Entities()
	rng := rand.New(rand.NewSource(int64(len(ents))))
	for qi := 0; qi < 6 && len(ents) >= 2; qi++ {
		q := core.Query{
			Src: []graph.VertexID{ents[rng.Intn(len(ents))]},
			Dst: []graph.VertexID{ents[rng.Intn(len(ents))]},
		}
		if qi%3 == 1 {
			q.Boundary.ExcludeRels = []prov.Rel{prov.Rel(rng.Intn(5))}
		}
		if err := difftest.DiffSegments(refP, gotP, q); err != nil {
			return fmt.Errorf("segment diff (query %d): %w", qi, err)
		}
	}
	if refRec != nil {
		for _, a := range artifacts {
			rv, gv := refRec.Versions(a), got.rec.Versions(a)
			if len(rv) != len(gv) {
				return fmt.Errorf("artifact %q: %d versions vs %d recovered", a, len(rv), len(gv))
			}
			for i := range rv {
				if rv[i] != gv[i] {
					return fmt.Errorf("artifact %q version %d: %d vs %d", a, i, rv[i], gv[i])
				}
			}
		}
		for _, name := range agents {
			rid, rok := refRec.AgentNamed(name)
			gid, gok := got.rec.AgentNamed(name)
			if rok != gok || rid != gid {
				return fmt.Errorf("agent %q: (%d,%v) vs (%d,%v)", name, rid, rok, gid, gok)
			}
		}
	}
	return nil
}

var scriptArtifacts = []string{"data.csv", "train.py", "model.bin", "eval.json", "notes.md"}
var scriptAgents = []string{"alice", "bob", "carol"}

// refRecorderAt rebuilds the reference recorder state after j batches.
func refRecorderAt(script []scriptBatch, j int) *prov.Recorder {
	rec := prov.NewRecorder()
	for _, b := range script[:j] {
		applyScriptOps(rec, b)
	}
	return rec
}

// walRecordBoundaries parses the frame layout of a log file independently
// of the wal package's replayer: offsets after each complete record.
func walRecordBoundaries(data []byte) []int64 {
	bounds := []int64{0}
	off := int64(0)
	for int(off)+8 <= len(data) {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if int(off)+8+int(n) > len(data) {
			break
		}
		off += 8 + n
		bounds = append(bounds, off)
	}
	return bounds
}

// openRecoveredAt materializes a crash image — checkpoint files plus the
// active log truncated at cut — in a fresh directory and recovers from it.
func openRecoveredAt(t *testing.T, srcDir, activeLog string, walData []byte, cut int, caseDir string) (*Store, *wal.Recovery) {
	t.Helper()
	if err := os.MkdirAll(caseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == activeLog {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(caseDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(caseDir, activeLog), walData[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s, rcv, err := openDurable(caseDir, "", RegistryOptions{CacheCap: 16}, nil, func() (*prov.Graph, error) {
		t.Fatalf("cut %d: recovery fell back to seeding a fresh graph", cut)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("cut %d: recover: %v", cut, err)
	}
	return s, rcv
}

// TestKillReplayRecovery is the acceptance gate: interrupting the durable
// store at every (sampled) byte of the WAL — including mid-record — must
// recover a store byte-identical to the uncrashed run at the prefix epoch,
// and ingest must resume from there to the uncrashed final state.
func TestKillReplayRecovery(t *testing.T) {
	nBatches := 12
	if testing.Short() {
		nBatches = 8
	}
	script := randomScript(1, nBatches)
	refStore, refSnaps := refRun(t, script)
	defer refStore.Close()

	// The "victim" run: durable, fsync=always, no checkpoints (so the whole
	// history is one log and every cut point is interesting). No Close —
	// the crash leaves whatever bytes the appends fsynced.
	crashDir := t.TempDir()
	victim, rcv, err := openDurable(crashDir, "", RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rcv.Fresh {
		t.Fatalf("fresh dir not fresh: %+v", rcv)
	}
	for _, b := range script {
		ingestBatch(t, victim, b)
	}
	activeLog := "wal-" + fmt.Sprintf("%016x", 0) + ".log"
	walData, err := os.ReadFile(filepath.Join(crashDir, activeLog))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walRecordBoundaries(walData)
	if len(bounds) != nBatches+1 {
		t.Fatalf("expected %d records in the log, found %d", nBatches, len(bounds)-1)
	}

	// Cut points: every record boundary, its neighbors (torn header), a
	// mid-record byte, plus a uniform sample of the rest.
	cuts := map[int]bool{0: true, len(walData): true}
	for i, b := range bounds {
		cuts[int(b)] = true
		if int(b)+1 <= len(walData) {
			cuts[int(b)+1] = true
		}
		if i+1 < len(bounds) {
			cuts[int((b+bounds[i+1])/2)] = true
		}
	}
	stride := len(walData) / 150
	if stride < 1 {
		stride = 1
	}
	for c := 0; c <= len(walData); c += stride {
		cuts[c] = true
	}

	caseRoot := t.TempDir()
	caseID := 0
	prevEpoch := int64(-1)
	var cutList []int
	for c := range cuts {
		cutList = append(cutList, c)
	}
	// Ascending cuts let us assert the recovered epoch is monotone.
	for i := 0; i < len(cutList); i++ {
		for j := i + 1; j < len(cutList); j++ {
			if cutList[j] < cutList[i] {
				cutList[i], cutList[j] = cutList[j], cutList[i]
			}
		}
	}

	for _, cut := range cutList {
		caseID++
		s, rcv := openRecoveredAt(t, crashDir, activeLog, walData, cut, filepath.Join(caseRoot, fmt.Sprintf("c%d", caseID)))
		ep := s.Epoch()
		r := int(ep.N)

		// The recovered epoch is exactly the number of complete records the
		// cut preserved (fsync=always: every committed batch has a full
		// frame; a torn frame is the uncommitted tail).
		wantR := 0
		for _, b := range bounds[1:] {
			if int64(cut) >= b {
				wantR++
			}
		}
		if r != wantR {
			t.Fatalf("cut %d: recovered epoch %d, want %d", cut, r, wantR)
		}
		if int64(r) < prevEpoch {
			t.Fatalf("cut %d: recovered epoch went backwards (%d after %d)", cut, r, prevEpoch)
		}
		prevEpoch = int64(r)
		if rcv.Replayed != r || rcv.TornTail != (int64(cut) != bounds[wantR]) {
			t.Fatalf("cut %d: recovery report %+v, want %d replayed, torn=%v", cut, rcv, r, int64(cut) != bounds[wantR])
		}
		if err := diffStores(refSnaps[r], refRecorderAt(script, r), s, scriptArtifacts, scriptAgents); err != nil {
			t.Fatalf("cut %d (epoch %d): %v", cut, r, err)
		}

		// Resume: the remaining script must drive the recovered store to
		// the uncrashed final state (checked at record-boundary cuts and a
		// sample of torn ones; the state diff above already covers all).
		if int64(cut) == bounds[wantR] || caseID%7 == 0 {
			for _, b := range script[r:] {
				ingestBatch(t, s, b)
			}
			if got := int(s.Epoch().N); got != nBatches {
				t.Fatalf("cut %d: resumed to epoch %d, want %d", cut, got, nBatches)
			}
			if err := diffStores(refSnaps[nBatches], refRecorderAt(script, nBatches), s, scriptArtifacts, scriptAgents); err != nil {
				t.Fatalf("cut %d: resumed state: %v", cut, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
	victim.Close()
}

// TestKillReplayGroupCommit extends the kill-replay harness to the group
// commit path: concurrent writers coalesce into multi-record commit groups
// (made deterministic via commitHold), the log is cut at sampled offsets
// INSIDE committed groups — record boundaries interior to a group, torn
// headers, mid-record bytes — and recovery must land on an exact prefix of
// the publish order: the recovered epoch equals the number of complete
// records the cut preserved, and the recovered state equals replaying
// exactly those deltas. No epoch may ever surface whose delta was not
// durable at the cut.
func TestKillReplayGroupCommit(t *testing.T) {
	const (
		writersK = 4
		rounds   = 4
	)
	crashDir := t.TempDir()
	victim, rcv, err := openDurable(crashDir, "", RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rcv.Fresh {
		t.Fatalf("fresh store: %+v", rcv)
	}
	holdCommits(t, victim, victim.Close)

	// Each round stages writersK concurrent batches (via the shared
	// stageWriters helper) and releases them as one commit group. Batch
	// contents are deterministic per (round, writer) and reference nothing
	// outside themselves, so any realized order is valid — the WAL records
	// the one that happened.
	for r := 0; r < rounds; r++ {
		done := make(chan error, writersK)
		stageWriters(t, victim, writersK, done, func(w int, rec *prov.Recorder) {
			rec.Import("alice", fmt.Sprintf("art-r%d-w%d", r, w), "http://x")
			rec.Snapshot(fmt.Sprintf("snap-r%d-w%d", r, w))
		})
		victim.commitHold <- struct{}{}
		for w := 0; w < writersK; w++ {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	gs := victim.Metrics().WAL.GroupCommit
	if gs.Groups != rounds || gs.Records != writersK*rounds || gs.Max != writersK {
		t.Fatalf("groups did not form as scripted: %+v", gs)
	}

	activeLog := "wal-" + fmt.Sprintf("%016x", 0) + ".log"
	walData, err := os.ReadFile(filepath.Join(crashDir, activeLog))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walRecordBoundaries(walData)
	if len(bounds) != writersK*rounds+1 {
		t.Fatalf("log holds %d records, want %d", len(bounds)-1, writersK*rounds)
	}
	// The publish order, straight from the log.
	var payloads [][]byte
	if _, err := wal.ReplayFile(filepath.Join(crashDir, activeLog), func(epoch uint64, payload []byte) error {
		if epoch != uint64(len(payloads)+1) {
			return fmt.Errorf("log epoch %d at position %d", epoch, len(payloads))
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// refAt replays the first n published deltas onto an empty graph — the
	// only states recovery is allowed to land on.
	refAt := func(n int) (*prov.Graph, *prov.Recorder) {
		t.Helper()
		g := prov.New()
		rec := prov.WrapRecorder(g)
		for _, p := range payloads[:n] {
			first := g.PG().NumVertices()
			if err := g.PG().ApplyDelta(bytes.NewReader(p)); err != nil {
				t.Fatalf("reference delta: %v", err)
			}
			rec.IndexFrom(graph.VertexID(first))
		}
		return g.Freeze(), rec
	}
	var artifacts, agents []string
	for r := 0; r < rounds; r++ {
		for w := 0; w < writersK; w++ {
			artifacts = append(artifacts, fmt.Sprintf("art-r%d-w%d", r, w), fmt.Sprintf("snap-r%d-w%d", r, w))
		}
	}
	agents = []string{"alice"}

	// Cut points: every record boundary (including those interior to a
	// group), their torn-header neighbors, a mid-record byte, plus a stride
	// sample.
	cuts := map[int]bool{0: true, len(walData): true}
	for i, b := range bounds {
		cuts[int(b)] = true
		if int(b)+1 <= len(walData) {
			cuts[int(b)+1] = true
		}
		if i+1 < len(bounds) {
			cuts[int((b+bounds[i+1])/2)] = true
		}
	}
	stride := len(walData) / 120
	if stride < 1 {
		stride = 1
	}
	for c := 0; c <= len(walData); c += stride {
		cuts[c] = true
	}

	caseRoot := t.TempDir()
	caseID := 0
	for cut := range cuts {
		caseID++
		s, rcv := openRecoveredAt(t, crashDir, activeLog, walData, cut, filepath.Join(caseRoot, fmt.Sprintf("g%d", caseID)))
		wantR := 0
		for _, b := range bounds[1:] {
			if int64(cut) >= b {
				wantR++
			}
		}
		if got := int(s.Epoch().N); got != wantR {
			t.Fatalf("cut %d: recovered epoch %d, want %d (prefix of the publish order)", cut, got, wantR)
		}
		if rcv.Replayed != wantR {
			t.Fatalf("cut %d: recovery report %+v, want %d replayed", cut, rcv, wantR)
		}
		refP, refRec := refAt(wantR)
		if err := diffStores(refP, refRec, s, artifacts[:2*wantR], agents); err != nil {
			t.Fatalf("cut %d (epoch %d): %v", cut, wantR, err)
		}
		// A sampled subset also proves the recovered store (group commit
		// enabled again) accepts new grouped ingest.
		if caseID%9 == 0 {
			if err := s.Update(func(rec *prov.Recorder) error {
				rec.Snapshot("post-recovery")
				return nil
			}); err != nil {
				t.Fatalf("cut %d: resume: %v", cut, err)
			}
			if got := int(s.Epoch().N); got != wantR+1 {
				t.Fatalf("cut %d: resume published epoch %d, want %d", cut, got, wantR+1)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
	victim.Close()
}

// TestKillReplayCoalescedMultiStore extends the kill-replay harness across
// the device-level fsync coalescer: two stores commit multi-writer groups
// whose fsync phase rides shared sync windows, and each store's log is then
// cut at every record boundary, torn-header neighbor and mid-record byte.
// Coalescing shares the BARRIER, never the logs — so each store must still
// recover to an exact prefix of its own publish order, exactly as it would
// with a private fsync, no matter where in a coalesced window the cut falls.
func TestKillReplayCoalescedMultiStore(t *testing.T) {
	const (
		writersK = 3
		rounds   = 3
	)
	root := t.TempDir()
	coal, err := wal.NewCoalescer(root, wal.CoalesceAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer coal.Close()
	names := []string{"alpha", "beta"}
	victims := make([]*Store, len(names))
	for i, name := range names {
		s, rcv, err := openDurable(filepath.Join(root, name), "", RegistryOptions{
			CheckpointEvery: 1 << 30,
			CacheCap:        16,
		}, coal, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rcv.Fresh {
			t.Fatalf("store %s: %+v", name, rcv)
		}
		holdCommits(t, s, s.Close)
		victims[i] = s
	}

	// Each round stages writersK batches on EVERY store, then releases all
	// the holds back-to-back so the committers' deferred syncs land in the
	// coalescer together and can share device windows.
	for r := 0; r < rounds; r++ {
		dones := make([]chan error, len(victims))
		for i, s := range victims {
			i, r := i, r
			dones[i] = make(chan error, writersK)
			stageWriters(t, s, writersK, dones[i], func(w int, rec *prov.Recorder) {
				rec.Import("alice", fmt.Sprintf("%s-art-r%d-w%d", names[i], r, w), "http://x")
			})
		}
		for _, s := range victims {
			s.commitHold <- struct{}{}
		}
		for i := range victims {
			for w := 0; w < writersK; w++ {
				if err := <-dones[i]; err != nil {
					t.Fatalf("round %d store %s: %v", r, names[i], err)
				}
			}
		}
	}
	for i, s := range victims {
		gs := s.Metrics().WAL.GroupCommit
		if gs.Groups != rounds || gs.CoalescedGroups != rounds {
			t.Fatalf("store %s: %d of %d groups coalesced: %+v", names[i], gs.CoalescedGroups, gs.Groups, gs)
		}
	}
	cs := coal.StatsSnapshot()
	if cs.Requests != uint64(len(names)*rounds) || cs.Windows == 0 || cs.Windows > cs.Requests {
		t.Fatalf("coalescer accounting: %+v, want %d requests over >=1 windows", cs, len(names)*rounds)
	}

	// Cut each store's log independently (a crash freezes both logs at one
	// instant, but recovery is per-store, so per-store cut coverage covers
	// every joint crash image).
	activeLog := "wal-" + fmt.Sprintf("%016x", 0) + ".log"
	caseRoot := t.TempDir()
	caseID := 0
	for i, name := range names {
		srcDir := filepath.Join(root, name)
		walData, err := os.ReadFile(filepath.Join(srcDir, activeLog))
		if err != nil {
			t.Fatal(err)
		}
		bounds := walRecordBoundaries(walData)
		if len(bounds) != writersK*rounds+1 {
			t.Fatalf("store %s: log holds %d records, want %d", name, len(bounds)-1, writersK*rounds)
		}
		var payloads [][]byte
		if _, err := wal.ReplayFile(filepath.Join(srcDir, activeLog), func(epoch uint64, payload []byte) error {
			if epoch != uint64(len(payloads)+1) {
				return fmt.Errorf("log epoch %d at position %d", epoch, len(payloads))
			}
			payloads = append(payloads, append([]byte(nil), payload...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		refAt := func(n int) (*prov.Graph, *prov.Recorder) {
			t.Helper()
			g := prov.New()
			rec := prov.WrapRecorder(g)
			for _, p := range payloads[:n] {
				first := g.PG().NumVertices()
				if err := g.PG().ApplyDelta(bytes.NewReader(p)); err != nil {
					t.Fatalf("reference delta: %v", err)
				}
				rec.IndexFrom(graph.VertexID(first))
			}
			return g.Freeze(), rec
		}
		var artifacts []string
		for r := 0; r < rounds; r++ {
			for w := 0; w < writersK; w++ {
				artifacts = append(artifacts, fmt.Sprintf("%s-art-r%d-w%d", name, r, w))
			}
		}

		cuts := map[int]bool{0: true, len(walData): true}
		for j, b := range bounds {
			cuts[int(b)] = true
			if int(b)+1 <= len(walData) {
				cuts[int(b)+1] = true
			}
			if j+1 < len(bounds) {
				cuts[int((b+bounds[j+1])/2)] = true
			}
		}
		for cut := range cuts {
			caseID++
			s, rcv := openRecoveredAt(t, srcDir, activeLog, walData, cut, filepath.Join(caseRoot, fmt.Sprintf("m%d", caseID)))
			wantR := 0
			for _, b := range bounds[1:] {
				if int64(cut) >= b {
					wantR++
				}
			}
			if got := int(s.Epoch().N); got != wantR {
				t.Fatalf("store %s cut %d: recovered epoch %d, want %d (prefix of the publish order)", name, cut, got, wantR)
			}
			if rcv.Replayed != wantR {
				t.Fatalf("store %s cut %d: recovery report %+v", name, cut, rcv)
			}
			refP, refRec := refAt(wantR)
			// Absent artifacts compare equal on both sides, so the full name
			// list is safe at every prefix.
			if err := diffStores(refP, refRec, s, artifacts, []string{"alice"}); err != nil {
				t.Fatalf("store %s cut %d (epoch %d): %v", name, cut, wantR, err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("store %s cut %d: close: %v", name, cut, err)
			}
		}
		if err := victims[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillReplayAcrossCheckpoints crashes a run that checkpointed mid-way:
// recovery must chain the newest checkpoint with the log tail, and cuts in
// the active log must land on checkpoint-or-later epochs.
func TestKillReplayAcrossCheckpoints(t *testing.T) {
	const nBatches = 10
	script := randomScript(2, nBatches)
	refStore, refSnaps := refRun(t, script)
	defer refStore.Close()

	crashDir := t.TempDir()
	// Huge CheckpointEvery disables the background trigger; the test drives
	// checkpoints synchronously at exact epochs instead.
	victim, _, err := openDurable(crashDir, "", RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ckptAt := map[int]bool{3: true, 7: true}
	for j, b := range script {
		ingestBatch(t, victim, b)
		if ckptAt[j+1] {
			if err := victim.checkpointNow(); err != nil {
				t.Fatalf("checkpoint at %d: %v", j+1, err)
			}
		}
	}
	activeLog := "wal-" + fmt.Sprintf("%016x", 7) + ".log"
	walData, err := os.ReadFile(filepath.Join(crashDir, activeLog))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walRecordBoundaries(walData)
	if len(bounds) != nBatches-7+1 {
		t.Fatalf("active log holds %d records, want %d", len(bounds)-1, nBatches-7)
	}

	caseRoot := t.TempDir()
	for cut := 0; cut <= len(walData); cut++ {
		s, rcv := openRecoveredAt(t, crashDir, activeLog, walData, cut, filepath.Join(caseRoot, fmt.Sprintf("c%d", cut)))
		r := int(s.Epoch().N)
		if r < 7 || rcv.CheckpointEpoch != 7 {
			t.Fatalf("cut %d: recovered epoch %d from checkpoint %d, want >=7 from 7", cut, r, rcv.CheckpointEpoch)
		}
		if err := diffStores(refSnaps[r], refRecorderAt(script, r), s, scriptArtifacts, scriptAgents); err != nil {
			t.Fatalf("cut %d (epoch %d): %v", cut, r, err)
		}
		s.Close()
	}
	victim.Close()
}

// TestDurableRestartCycle covers the clean path: ingest, Close (final
// checkpoint), reopen, verify, keep ingesting, with background
// checkpointing enabled at a small cadence.
func TestDurableRestartCycle(t *testing.T) {
	script := randomScript(3, 9)
	refStore, refSnaps := refRun(t, script)
	defer refStore.Close()

	dir := t.TempDir()
	s, _, err := openDurable(dir, "", RegistryOptions{CheckpointEvery: 2, CacheCap: 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range script[:5] {
		ingestBatch(t, s, b)
	}
	if !s.Durable() {
		t.Fatal("durable store says not durable")
	}
	if st := s.Metrics().WAL; st == nil || st.Records != 5 || st.Fsyncs < 5 {
		t.Fatalf("durability stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rcv, err := openDurable(dir, "", RegistryOptions{CheckpointEvery: 2, CacheCap: 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Close checkpointed, so the restart replays nothing.
	if rcv.Fresh || rcv.Epoch != 5 || rcv.Replayed != 0 || rcv.TornTail {
		t.Fatalf("clean restart recovery: %+v", rcv)
	}
	if err := diffStores(refSnaps[5], refRecorderAt(script, 5), s2, scriptArtifacts, scriptAgents); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	// The recovered epoch is installed like any other, so the cache serves
	// it before the first write.
	cachesAt(t, s2, firstToLastEntity(s2.Epoch()), 5)
	for _, b := range script[5:] {
		ingestBatch(t, s2, b)
	}
	if err := diffStores(refSnaps[len(script)], refRecorderAt(script, len(script)), s2, scriptArtifacts, scriptAgents); err != nil {
		t.Fatalf("after resumed ingest: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Memory-only stores report no durability stats and Close is a no-op.
	mem := NewStore(prov.New(), 4)
	if mem.Durable() || mem.Metrics().WAL != nil || mem.Close() != nil {
		t.Fatal("memory-only store leaks durability state")
	}
}

// TestDurableUpdateChecksSchema: Update commits whatever fn appended, and
// fn may append through the raw graph, past prov.AddRel's typing. A batch
// carrying an entity->entity U edge is refused before it is logged or
// published, the store refuses later writes, and the directory recovers to
// the last good epoch.
func TestDurableUpdateChecksSchema(t *testing.T) {
	dir := t.TempDir()
	s, _, err := openDurable(dir, "", RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b graph.VertexID
	if err := s.Update(func(rec *prov.Recorder) error {
		a, b = rec.Snapshot("a"), rec.Snapshot("b")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err = s.Update(func(rec *prov.Recorder) error {
		rec.P.PG().AddEdge(a, b, rec.P.RelLabel(prov.RelUsed))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "used requires A -> E") {
		t.Fatalf("Update with a mistyped U edge: %v, want its typing error", err)
	}
	if ep := s.Epoch(); ep.N != 1 || ep.Edges != 0 {
		t.Fatalf("after the refused batch the store publishes epoch %d with %d edges, want epoch 1 with none", ep.N, ep.Edges)
	}
	if err := s.Update(func(rec *prov.Recorder) error {
		rec.Snapshot("c")
		return nil
	}); err == nil {
		t.Fatal("a store that refused a mistyped batch accepted the next one")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, rcv, err := openDurable(dir, "", RegistryOptions{CacheCap: 4}, nil, nil)
	if err != nil {
		t.Fatalf("recovery after a refused batch: %v", err)
	}
	defer r.Close()
	if ep := r.Epoch(); rcv.Epoch != 1 || ep.Vertices != 2 || ep.Edges != 0 {
		t.Fatalf("recovered epoch %d with %d vertices and %d edges, want epoch 1 with 2 and 0", rcv.Epoch, ep.Vertices, ep.Edges)
	}

	m := NewStore(prov.New(), 4)
	defer m.Close()
	if err := m.Update(func(rec *prov.Recorder) error {
		a, b = rec.Snapshot("a"), rec.Snapshot("b")
		rec.P.PG().AddEdge(a, b, rec.P.RelLabel(prov.RelUsed))
		return nil
	}); err == nil || m.Epoch().N != 0 {
		t.Fatalf("memory-only store: Update with a mistyped U edge returned %v and published epoch %d", err, m.Epoch().N)
	}
}

// TestDurableReplayChecksSchema: a WAL record is a graph delta, appended at
// recovery without prov.AddRel, so replay checks its PROV typing. A record
// carrying an entity->entity U edge fails recovery instead of reaching
// PgSeg's closures, which follow only the rows a vertex's kind can have.
// The write path refuses such a batch, so the log is written by hand.
func TestDurableReplayChecksSchema(t *testing.T) {
	crashImage := func(mistyped bool) string {
		dir := t.TempDir()
		m, rcv, err := wal.Open(wal.Options{Dir: dir})
		if err != nil || !rcv.Fresh {
			t.Fatalf("wal.Open: %v (fresh %v)", err, rcv != nil && rcv.Fresh)
		}
		p := prov.New()
		a, b := p.NewEntity("a"), p.NewEntity("b")
		if err := m.Bootstrap(p.PG()); err != nil {
			t.Fatal(err)
		}
		base, nv, ne := p.PG().Dict().Len(), p.NumVertices(), p.NumEdges()
		if mistyped {
			p.PG().AddEdge(a, b, p.RelLabel(prov.RelUsed))
		} else {
			p.WasDerivedFrom(b, a)
		}
		var buf bytes.Buffer
		if err := p.PG().EncodeDelta(&buf, base, nv, ne); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AppendBatch([]wal.Record{{Epoch: 1, Payload: buf.Bytes()}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	r, rcv, err := openDurable(crashImage(false), "", RegistryOptions{CacheCap: 4}, nil, nil)
	if err != nil {
		t.Fatalf("recovery of a well-typed record: %v", err)
	}
	r.Close()
	if rcv.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1", rcv.Replayed)
	}

	r, _, err = openDurable(crashImage(true), "", RegistryOptions{CacheCap: 4}, nil, nil)
	if err == nil {
		r.Close()
		t.Fatal("recovery replayed a mistyped U edge")
	}
	if !strings.Contains(err.Error(), "epoch 1") || !strings.Contains(err.Error(), "used requires A -> E") {
		t.Fatalf("recovery error %q does not name the record and its typing", err)
	}
}

// TestDurableFsyncPolicies runs every fsync policy through both shapes of
// the commit pipeline: batches publish in order, the daemon stays correct
// (recovery of a cleanly-closed store is exact), and only the barrier — so
// only the crash-loss window — differs: always pays at most one counted
// fsync per batch on the commit path, interval leaves them to the log's
// ticker, never pays none at all before Close.
func TestDurableFsyncPolicies(t *testing.T) {
	script := randomScript(4, 5)
	forEachPipeline(t, func(t *testing.T, shape string, policy wal.SyncPolicy) {
		dir := t.TempDir()
		pl := openPipeline(t, shape, policy, dir)
		s := pl.stores[0]
		before := s.Metrics().WAL
		for i, b := range script {
			ingestBatch(t, s, b)
			if got := s.Epoch().N; got != uint64(i+1) {
				t.Fatalf("batch %d published epoch %d", i, got)
			}
		}
		after := s.Metrics().WAL
		if got := after.GroupCommit.Groups - before.GroupCommit.Groups; got != uint64(len(script)) {
			t.Errorf("%d sequential batches retired %d groups", len(script), got)
		}
		switch fsyncs := after.Fsyncs - before.Fsyncs; policy {
		case wal.SyncAlways:
			if fsyncs == 0 || fsyncs > uint64(len(script)) {
				t.Errorf("%d batches crossed %d barriers, want 1..%d", len(script), fsyncs, len(script))
			}
		case wal.SyncNever:
			if fsyncs != 0 {
				t.Errorf("the commit path paid %d fsyncs under fsync=never", fsyncs)
			}
		}
		if err := pl.close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		pl2 := openPipeline(t, shape, policy, dir)
		defer pl2.close()
		if got := pl2.stores[0].Epoch().N; got != uint64(len(script)) {
			t.Fatalf("recovered epoch %d, want %d", got, len(script))
		}
	})
}

// TestDurableWALFailurePoisonsWrites forces an append failure and asserts
// the store refuses subsequent writes instead of diverging from its log.
func TestDurableWALFailurePoisonsWrites(t *testing.T) {
	dir := t.TempDir()
	s, _, err := openDurable(dir, "", RegistryOptions{CheckpointEvery: 1 << 30, CacheCap: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	script := randomScript(5, 3)
	ingestBatch(t, s, script[0])
	epoch := s.Epoch().N
	// Sever the log out from under the store: the next append's fsync (or
	// write) fails, the batch must stay unpublished, and the store must
	// refuse writes from then on.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	err = s.Update(func(rec *prov.Recorder) error {
		applyScriptOps(rec, script[1])
		return nil
	})
	if err == nil {
		t.Fatal("update succeeded with a dead WAL")
	}
	if got := s.Epoch().N; got != epoch {
		t.Fatalf("failed update published epoch %d", got)
	}
	if err := s.Update(func(rec *prov.Recorder) error { return nil }); err == nil {
		t.Fatal("store accepted writes after WAL failure")
	}
}
