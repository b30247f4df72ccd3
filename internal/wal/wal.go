// Package wal implements the durability layer behind provd's Store: a
// write-ahead log of per-epoch ingest deltas plus periodic full-graph
// checkpoints, laid out in one data directory.
//
// Log format. A log file is a sequence of framed records:
//
//	u32le payload length | u32le CRC-32 (Castagnoli) of the body | body
//	body = u64le epoch | payload
//
// where payload is opaque to this layer (the manager stores graph deltas,
// see graph.EncodeDelta). The frame makes crash recovery a pure prefix
// scan: a record is accepted only if its full frame is present and its CRC
// matches, so a crash mid-append — a torn length, a torn body — truncates
// cleanly to the last durable record. Records are fsynced per the
// configured policy before the caller publishes the epoch they carry;
// everything after the first invalid frame is by construction unpublished
// and is discarded on recovery.
//
// Directory layout and recovery are in manager.go.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before it is acknowledged: a committed
	// batch survives any crash. This is the default and the only policy
	// under which the durability guarantee is exact.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker: a crash may lose the last
	// interval's batches, but each surviving prefix is still consistent.
	SyncInterval
	// SyncNever leaves flushing to the OS: fastest, loses the most on a
	// crash, still recovers a consistent prefix.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

const (
	frameHeaderLen = 8
	bodyHeaderLen  = 8
	// maxRecordLen bounds a single record body; a length field beyond it is
	// treated as a torn/corrupt frame rather than attempted as a read.
	maxRecordLen = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats are the log's cumulative counters, safe to read concurrently with
// appends. They power the /metrics wal panel.
type Stats struct {
	Records         uint64 `json:"records"`
	Bytes           uint64 `json:"bytes"`
	Fsyncs          uint64 `json:"fsyncs"`
	FsyncLastNanos  int64  `json:"fsync_last_ns"`
	FsyncMaxNanos   int64  `json:"fsync_max_ns"`
	FsyncTotalNanos int64  `json:"fsync_total_ns"`
}

// statCounters is the atomic backing for Stats, shared across log rotations
// so the manager reports totals for the whole process lifetime. fsync's
// count is the fsyncs issued.
type statCounters struct {
	records atomic.Uint64
	bytes   atomic.Uint64
	fsync   obs.Histogram
}

func (c *statCounters) snapshot() Stats {
	f := c.fsync.Snapshot()
	return Stats{
		Records:         c.records.Load(),
		Bytes:           c.bytes.Load(),
		Fsyncs:          f.Count,
		FsyncLastNanos:  f.LastNanos,
		FsyncMaxNanos:   f.MaxNanos,
		FsyncTotalNanos: f.SumNanos,
	}
}

// Log is one open write-ahead log file. Appends are serialized by the
// caller (the store's committer); Sync may race with them (the sync stage,
// the interval ticker) and is internally locked.
type Log struct {
	mu    sync.Mutex
	f     *os.File
	stats *statCounters
}

// ReplayInfo summarizes one log scan.
type ReplayInfo struct {
	// Records is the number of valid records handed to the callback.
	Records int
	// GoodBytes is the file offset after the last valid record; a torn or
	// corrupt tail starts there.
	GoodBytes int64
	// Torn reports whether trailing bytes past GoodBytes were discarded.
	Torn bool
}

// Replay scans framed records from r, invoking fn for each valid record in
// order. It stops at the first torn or corrupt frame (reported via
// ReplayInfo, not an error). Only running out of bytes counts as torn: a
// real read error (say EIO under recovery) is returned as an error, so a
// transiently unreadable log is never mistaken for a short one and
// truncated. An error from fn aborts the scan and is returned. The payload
// slice passed to fn is only valid during the call.
func Replay(r io.Reader, fn func(epoch uint64, payload []byte) error) (ReplayInfo, error) {
	var info ReplayInfo
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHeaderLen]byte
	var bb bytes.Buffer
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return info, nil
			}
			if err == io.ErrUnexpectedEOF {
				info.Torn = true
				return info, nil
			}
			return info, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n < bodyHeaderLen || n > maxRecordLen {
			info.Torn = true
			return info, nil
		}
		// Copy incrementally rather than make([]byte, n) up front: in a
		// corrupt file n is arbitrary bytes, and a hostile length must fail
		// at EOF without first committing a gigabyte allocation.
		bb.Reset()
		if _, err := io.CopyN(&bb, br, int64(n)); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				info.Torn = true
				return info, nil
			}
			return info, err
		}
		body := bb.Bytes()
		if crc32.Checksum(body, crcTable) != crc {
			info.Torn = true
			return info, nil
		}
		epoch := binary.LittleEndian.Uint64(body[:bodyHeaderLen])
		if err := fn(epoch, body[bodyHeaderLen:]); err != nil {
			return info, err
		}
		info.Records++
		info.GoodBytes += int64(frameHeaderLen) + int64(n)
	}
}

// ReplayFile scans the log at path; a missing file yields a zero ReplayInfo
// and no error.
func ReplayFile(path string, fn func(epoch uint64, payload []byte) error) (ReplayInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ReplayInfo{}, nil
		}
		return ReplayInfo{}, err
	}
	defer f.Close()
	return Replay(f, fn)
}

// OpenLog opens (creating if absent) the log at path for appending,
// truncating it to goodBytes first — the valid prefix a prior ReplayFile
// established — so a torn tail from a crash never precedes new records.
func OpenLog(path string, goodBytes int64, stats *statCounters) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if stats == nil {
		stats = &statCounters{}
	}
	return &Log{f: f, stats: stats}, nil
}

// Record is one (epoch, payload) pair for AppendBatchTimed.
type Record struct {
	Epoch   uint64
	Payload []byte
}

// frameHeader builds the frame + body header for one record — the single
// definition of the on-disk layout (u32le length, u32le CRC-32C over
// epoch+payload, u64le epoch); the payload follows it verbatim.
func frameHeader(epoch uint64, payload []byte) [frameHeaderLen + bodyHeaderLen]byte {
	var hdr [frameHeaderLen + bodyHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(bodyHeaderLen+len(payload)))
	binary.LittleEndian.PutUint64(hdr[frameHeaderLen:], epoch)
	crc := crc32.Checksum(hdr[frameHeaderLen:], crcTable)
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	return hdr
}

// frameInto appends the framed record (header + body) to buf.
func frameInto(buf *bytes.Buffer, epoch uint64, payload []byte) {
	hdr := frameHeader(epoch, payload)
	buf.Write(hdr[:])
	buf.Write(payload)
}

// AppendTimings reports what one append cost — the per-stage timing hook
// the serving layer's commit-pipeline histograms feed on. An append never
// fsyncs; the barrier is timed by whoever issues it.
type AppendTimings struct {
	WriteNanos int64
}

// AppendBatchTimed frames and writes a group of records in one write syscall
// and never fsyncs: the caller follows up with Sync (or a coalesced device
// barrier), so one barrier amortizes across every record appended before
// it. Records land in the file in slice order, so a crash leaves a durable
// prefix of the batch in that order. The caller must not publish any member
// epoch before the barrier its fsync policy asks for has returned.
func (l *Log) AppendBatchTimed(recs []Record) (AppendTimings, error) {
	var tm AppendTimings
	if len(recs) == 0 {
		return tm, nil
	}
	var buf bytes.Buffer
	for _, r := range recs {
		if bodyHeaderLen+len(r.Payload) > maxRecordLen {
			return tm, fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(r.Payload), maxRecordLen-bodyHeaderLen)
		}
		frameInto(&buf, r.Epoch, r.Payload)
	}
	start := time.Now()
	l.mu.Lock()
	_, err := l.f.Write(buf.Bytes())
	l.mu.Unlock()
	tm.WriteNanos = time.Since(start).Nanoseconds()
	if err != nil {
		return tm, err
	}
	l.stats.records.Add(uint64(len(recs)))
	l.stats.bytes.Add(uint64(buf.Len()))
	return tm, nil
}

// Sync fsyncs the log file and records the latency. On a log Close has
// already sealed (a ticker that fetched it just before a rotation) there is
// nothing left to flush.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.stats.fsync.Observe(time.Since(start))
	return nil
}

// Close fsyncs and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
