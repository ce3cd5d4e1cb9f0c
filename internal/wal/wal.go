package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"gullible/internal/telemetry"
)

// Segment framing. A segment starts with an 8-byte header (magic + format
// version); each record is [len uint32][crc32c uint32][payload], both fields
// little-endian, the checksum over the payload only. The payload is the
// compact JSON of an envelope {"k": kind, "d": data}, written directly.
const (
	segMagic   = "GWAL"
	segVersion = 1
	headerSize = 8
	frameSize  = 8 // per-record framing overhead
)

// castagnoli is the CRC-32C table (the checksum modern filesystems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SegName is the canonical segment file name for index i; lexical order is
// log order.
func SegName(i int) string { return fmt.Sprintf("wal-%06d.seg", i) }

func segHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, segMagic)
	h[4] = segVersion
	return h
}

// SyncPolicy selects when the writer calls fsync.
type SyncPolicy int

const (
	// SyncCheckpoint (the default) fsyncs at durable boundaries: checkpoint
	// records, segment rotation and Close. A power loss costs at most the
	// in-flight site.
	SyncCheckpoint SyncPolicy = iota
	// SyncOff never fsyncs; buffered data still reaches the OS at flush
	// boundaries, so a process kill loses at most the current buffer, but a
	// power loss can lose everything since the last rotation.
	SyncOff
	// SyncAlways fsyncs after every record — maximum durability, maximum
	// cost (BenchmarkBackendAppend measures the gap).
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncCheckpoint:
		return "checkpoint"
	case SyncOff:
		return "off"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("sync(%d)", int(p))
}

// ParseSyncPolicy parses a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "checkpoint", "":
		return SyncCheckpoint, nil
	case "off":
		return SyncOff, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want off, checkpoint or always)", s)
}

// Options configures a Writer.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one reaches
	// this size (default 1 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncCheckpoint).
	Sync SyncPolicy
	// FlushBytes bounds how much pending data accumulates before an
	// implicit flush (default 64 KiB).
	FlushBytes int
	// Telemetry, when non-nil, meters flushes, fsyncs, rotations, write
	// errors and lost records.
	Telemetry *telemetry.Telemetry
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 1 << 20
	}
	return o.SegmentBytes
}

// flushChunk bounds how much pending data accumulates before an implicit
// flush even under SyncOff/SyncCheckpoint.
const flushChunk = 64 << 10

func (o Options) flushBytes() int {
	if o.FlushBytes <= 0 {
		return flushChunk
	}
	return o.FlushBytes
}

// WriterStats is the writer's durability accounting.
type WriterStats struct {
	Appended    int // records accepted by Append
	Committed   int // records whose bytes reached the file
	Lost        int // records lost to write failures (counted, never silent)
	Segments    int // segments opened
	Flushes     int
	Syncs       int
	SyncErrors  int
	WriteErrors int
}

// Writer appends framed records to a segmented log. It is single-goroutine,
// like the per-shard storage it backs.
//
// Failure semantics: a failed or short write loses the buffered records
// (counted in Stats().Lost and telemetry), the damaged segment is truncated
// back to its last committed record boundary, and the writer rotates to a
// fresh segment before accepting more appends — committed bytes are never
// touched, and the handle that saw the failure is never written again. A
// failed fsync is counted and reported but does not unwrite anything:
// durability degrades, the data stays.
type Writer struct {
	fs   FS
	opts Options

	file     File
	segName  string
	segIndex int
	segSize  int64 // committed bytes in the current segment
	segBad   bool  // rotate before the next append

	pending     []byte
	pendingRecs int
	broken      error

	stats WriterStats

	mFlush, mSync, mSyncErr, mWriteErr, mLost, mSeg *telemetry.Counter
}

// envelope decodes a record payload (Scan). Append writes the same JSON
// directly, between envelopeOpen and a closing brace.
type envelope struct {
	K string          `json:"k"`
	D json.RawMessage `json:"d,omitempty"`
}

const (
	envelopeOpen = `{"k":"`
	envelopeData = `","d":`
)

// NewWriter opens a fresh log in fs starting at segment 0.
func NewWriter(fs FS, opts Options) (*Writer, error) {
	return newWriterAt(fs, opts, 0)
}

// newWriterAt opens a log continuing at segment index start (recovery).
func newWriterAt(fs FS, opts Options, start int) (*Writer, error) {
	w := &Writer{fs: fs, opts: opts, segIndex: start - 1}
	tel := opts.Telemetry
	w.mFlush = tel.Counter("wal_flushes_total")
	w.mSync = tel.Counter("wal_fsyncs_total")
	w.mSyncErr = tel.Counter("wal_fsync_errors_total")
	w.mWriteErr = tel.Counter("wal_write_errors_total")
	w.mLost = tel.Counter("wal_records_lost_total")
	w.mSeg = tel.Counter("wal_segments_total")
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate closes the current segment and opens the next one. The new
// segment's header rides in the pending buffer so header writes share the
// commit path (and its fault handling) with records.
func (w *Writer) rotate() error {
	if w.file != nil {
		if err := w.commit(w.opts.Sync != SyncOff); err != nil {
			// the failed flush already truncated and marked the segment;
			// fall through and open the next one regardless
			_ = err
		}
		if err := w.file.Close(); err != nil {
			w.stats.WriteErrors++
			w.mWriteErr.Inc()
		}
	}
	w.segIndex++
	w.segName = SegName(w.segIndex)
	f, err := w.fs.Create(w.segName)
	if err != nil {
		w.broken = fmt.Errorf("wal: open segment %s: %w", w.segName, err)
		return w.broken
	}
	w.file = f
	w.segSize = 0
	w.segBad = false
	w.stats.Segments++
	w.mSeg.Inc()
	w.pending = append(segHeader(), w.pending...)
	return nil
}

// Append marshals v into a framed record of the given kind and buffers it.
// The kind is written verbatim, so it must be an identifier that needs no
// JSON escaping, as the record kinds in backend.go are.
// Under SyncAlways the record is committed (flushed and fsynced) before
// Append returns; otherwise it is committed by the next flush boundary.
func (w *Writer) Append(kind string, v any) error {
	if w.broken != nil {
		return w.broken
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wal: marshal %s record: %w", kind, err)
	}
	// cur counts the segment's committed and pending bytes; a fresh segment
	// holds only its pending header, and a segment with at least one record
	// rotates rather than exceed the size target
	cur := w.segSize + int64(len(w.pending))
	size := len(envelopeOpen) + len(kind) + len(envelopeData) + len(data) + 1
	if w.segBad || (cur > headerSize && cur+int64(size)+frameSize > w.opts.segmentBytes()) {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	// the payload is written in place: {"k":"<kind>","d":<data>} is what
	// json.Marshal(envelope{kind, data}) produces, since data is already
	// compact, escaped encoding/json output and kinds are plain identifiers
	start := len(w.pending)
	w.pending = append(w.pending, make([]byte, frameSize)...)
	w.pending = append(w.pending, envelopeOpen...)
	w.pending = append(w.pending, kind...)
	w.pending = append(w.pending, envelopeData...)
	w.pending = append(w.pending, data...)
	w.pending = append(w.pending, '}')
	payload := w.pending[start+frameSize:]
	binary.LittleEndian.PutUint32(w.pending[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.pending[start+4:], crc32.Checksum(payload, castagnoli))
	w.pendingRecs++
	w.stats.Appended++
	if w.opts.Sync == SyncAlways {
		return w.Commit()
	}
	if len(w.pending) >= w.opts.flushBytes() {
		return w.Flush()
	}
	return nil
}

// Flush pushes buffered records down to the file (no fsync).
func (w *Writer) Flush() error {
	if w.broken != nil {
		return w.broken
	}
	return w.flush()
}

func (w *Writer) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	w.stats.Flushes++
	w.mFlush.Inc()
	p := w.pending
	recs := w.pendingRecs
	// keep the buffer for the next frames: no File keeps the slice Write
	// is given (os.File writes it out, memFile copies it)
	w.pending = p[:0]
	w.pendingRecs = 0

	n := len(p)
	// a short or failed write may land a prefix, possibly mid-frame
	wrote, err := w.file.Write(p)
	if err == nil && wrote < n {
		err = fmt.Errorf("wal: short write to %s: %d of %d bytes", w.segName, wrote, n)
	}
	if err != nil {
		// the buffered records are gone — count them loudly, cut the torn
		// tail back to the last committed boundary, and retire the segment
		w.stats.WriteErrors++
		w.mWriteErr.Inc()
		w.stats.Lost += recs
		w.mLost.Add(int64(recs))
		w.segBad = true
		if terr := w.fs.Truncate(w.segName, w.segSize); terr != nil {
			// the torn tail stays on disk; recovery's checksum scan will
			// cut it instead
			return fmt.Errorf("wal: write failed (%v) and truncate failed: %w", err, terr)
		}
		return err
	}
	w.segSize += int64(n)
	w.stats.Committed += recs
	return nil
}

// Sync fsyncs the current segment (after flushing). A failed fsync is
// counted and returned but unwrites nothing: the data is in the file,
// durability is merely no longer guaranteed.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	w.stats.Syncs++
	w.mSync.Inc()
	if err := w.file.Sync(); err != nil {
		w.stats.SyncErrors++
		w.mSyncErr.Inc()
		return err
	}
	return nil
}

// Commit makes buffered records durable per the sync policy: always a
// flush, plus an fsync unless the policy is SyncOff.
func (w *Writer) Commit() error {
	return w.commit(w.opts.Sync != SyncOff)
}

func (w *Writer) commit(sync bool) error {
	if sync {
		return w.Sync()
	}
	return w.Flush()
}

// Close commits and closes the log.
func (w *Writer) Close() error {
	if w.file == nil {
		return nil
	}
	cerr := w.commit(w.opts.Sync != SyncOff)
	if err := w.file.Close(); err != nil && cerr == nil {
		cerr = err
	}
	w.file = nil
	return cerr
}

// Stats returns the writer's durability accounting.
func (w *Writer) Stats() WriterStats { return w.stats }
