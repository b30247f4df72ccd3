// Package repl ships the write-ahead log: the WAL is already a totally
// ordered, CRC-framed stream of self-describing epoch deltas, so
// replication is "serve those frames over HTTP and apply them on the other
// side through the existing recovery path".
//
// The leader side is a Hub — a bounded in-memory ring of the most recently
// published (epoch, delta) pairs, fed by the store's publish path (group
// committer or inline) — plus ServeStream, which answers
//
//	GET /stores/{name}/wal?from=<epoch>
//
// with a chunked, indefinitely tailing stream of records framed exactly as
// on-disk WAL records (wal.WriteFrame): if the ring still covers
// from+1...head the stream is pure deltas; otherwise it opens with a full
// checkpoint frame (the current epoch snapshot, graph.Save bytes) announced
// by the X-Repl-Snapshot header, then tails deltas from there. Interleaved
// meta frames (a reserved epoch number) carry the leader's head epoch and
// the publish wall-clock of the record that follows, which is what the
// follower's lag metrics feed on; when no commits arrive, periodic meta
// heartbeats keep the follower's view of the leader epoch fresh.
//
// The follower side is Stream (client.go): it decodes the frame stream into
// snapshot / delta / meta events that the serving layer's applier feeds
// through graph.ApplyDelta, prov.Graph.ValidateFrom over the delta and
// prov.Recorder.IndexFrom — the same code path crash recovery replays a
// local log through — and publishes via the same atomic-pointer epoch swap,
// so a follower serves the full lock-free read API at its applied epoch.
//
// Resumability is the WAL's own contract: any byte cut leaves the follower
// with an exact epoch prefix (a torn frame is detected exactly as a torn
// log tail would be, and an epoch gap is refused by the applier), and a
// reconnect with from=<applied> continues where it stopped, falling back to
// a checkpoint only when the ring has moved on.
package repl

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MetaEpoch is the reserved epoch number carried by meta frames. Real
// epochs count committed batches from zero and can never reach it.
const MetaEpoch = math.MaxUint64

// Protocol headers.
const (
	// HeaderSnapshot, on a stream response, announces that the first
	// non-meta frame is a full checkpoint at the given epoch rather than a
	// delta.
	HeaderSnapshot = "X-Repl-Snapshot"
	// HeaderLeaderEpoch, on a stream response, is the leader's head epoch
	// at stream start.
	HeaderLeaderEpoch = "X-Repl-Leader-Epoch"
	// HeaderMinEpoch, on a read request, is the read-your-writes token: the
	// minimum epoch the serving snapshot must have reached (followers wait
	// for their applier, up to a deadline, then 412).
	HeaderMinEpoch = "X-Min-Epoch"
	// HeaderMinEpochWait, on a read request, bounds the HeaderMinEpoch wait
	// in milliseconds (capped server-side).
	HeaderMinEpochWait = "X-Min-Epoch-Wait-Ms"
	// HeaderLeader, on follower responses that punt to the leader (write
	// redirects, read-your-writes timeouts), names the leader's base URL.
	HeaderLeader = "X-Repl-Leader"
)

// metaLen is the meta-frame payload length: u64le leader head epoch, i64le
// publish wall-clock (unix nanos; 0 when unknown).
const metaLen = 16

// Meta is the decoded payload of a meta frame.
type Meta struct {
	// LeaderEpoch is the leader's newest published epoch.
	LeaderEpoch uint64
	// PublishedNanos is the publish wall-clock (unix nanos) of the delta
	// frame that follows, or of the head epoch on heartbeats; 0 if unknown.
	PublishedNanos int64
}

// encodeMeta renders a meta payload.
func encodeMeta(m Meta) []byte {
	var b [metaLen]byte
	binary.LittleEndian.PutUint64(b[0:8], m.LeaderEpoch)
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.PublishedNanos))
	return b[:]
}

// decodeMeta parses a meta payload.
func decodeMeta(p []byte) (Meta, error) {
	if len(p) != metaLen {
		return Meta{}, fmt.Errorf("repl: meta frame of %d bytes (want %d)", len(p), metaLen)
	}
	return Meta{
		LeaderEpoch:    binary.LittleEndian.Uint64(p[0:8]),
		PublishedNanos: int64(binary.LittleEndian.Uint64(p[8:16])),
	}, nil
}
