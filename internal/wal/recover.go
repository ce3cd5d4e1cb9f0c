package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
)

// Rec is one recovered record: its kind, raw payload and physical position
// (segment index and end offset), so recovery can truncate the log back to
// any record boundary.
type Rec struct {
	Kind string
	Data json.RawMessage

	seg int   // segment index
	end int64 // offset just past this record's frame within its segment
}

// ScanStats describes what a scan found and what it had to give up on.
type ScanStats struct {
	// Segments is how many segment files were scanned.
	Segments int `json:"segments"`
	// Records is how many intact records were recovered.
	Records int `json:"records"`
	// TruncatedBytes counts bytes discarded at torn tails (an interrupted
	// flush, a short write whose truncation failed, a damaged header).
	TruncatedBytes int64 `json:"truncatedBytes,omitempty"`
	// TornSegments names the segments whose tail failed validation.
	TornSegments []string `json:"tornSegments,omitempty"`
}

// Torn reports whether the scan hit any damage.
func (s ScanStats) Torn() bool { return len(s.TornSegments) > 0 }

func (s ScanStats) String() string {
	if !s.Torn() {
		return fmt.Sprintf("wal: %d records in %d segments, clean", s.Records, s.Segments)
	}
	return fmt.Sprintf("wal: %d records in %d segments, torn tail in %s (%d bytes discarded)",
		s.Records, s.Segments, strings.Join(s.TornSegments, ","), s.TruncatedBytes)
}

// segIndexOf parses a segment file name; ok is false for foreign files.
func segIndexOf(name string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(name, "wal-%06d.seg", &i); err != nil {
		return 0, false
	}
	return i, SegName(i) == name
}

// Scan reads every segment in log order and returns the committed record
// stream. Within a segment, frames are validated (length bounds, CRC-32C,
// envelope decode) until the first damage point; the rest of that segment is
// discarded and counted, and the scan continues with the next segment — the
// writer never appends to a damaged segment again, so records beyond it are
// legitimately committed. Scan never modifies the log and never fails on
// damage: any byte stream yields its longest intact prefix per segment.
func Scan(fs FS) ([]Rec, ScanStats, error) {
	names, err := fs.List()
	if err != nil {
		return nil, ScanStats{}, fmt.Errorf("wal: list segments: %w", err)
	}
	var recs []Rec
	var stats ScanStats
	for _, name := range names {
		idx, ok := segIndexOf(name)
		if !ok {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		stats.Segments++
		if len(data) < headerSize || string(data[:4]) != segMagic || data[4] != segVersion {
			// a segment that lost even its header committed nothing
			if len(data) > 0 {
				stats.TruncatedBytes += int64(len(data))
				stats.TornSegments = append(stats.TornSegments, name)
			}
			continue
		}
		off := int64(headerSize)
		for {
			if off == int64(len(data)) {
				break // clean end at a record boundary
			}
			if off+frameSize > int64(len(data)) {
				stats.tear(name, int64(len(data))-off)
				break
			}
			n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
			sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
			if off+frameSize+n > int64(len(data)) {
				stats.tear(name, int64(len(data))-off)
				break
			}
			payload := data[off+frameSize : off+frameSize+n]
			if crc32.Checksum(payload, castagnoli) != sum {
				stats.tear(name, int64(len(data))-off)
				break
			}
			var env envelope
			if err := json.Unmarshal(payload, &env); err != nil {
				stats.tear(name, int64(len(data))-off)
				break
			}
			off += frameSize + n
			recs = append(recs, Rec{Kind: env.K, Data: env.D, seg: idx, end: off})
			stats.Records++
		}
	}
	return recs, stats, nil
}

func (s *ScanStats) tear(name string, bytes int64) {
	s.TruncatedBytes += bytes
	s.TornSegments = append(s.TornSegments, name)
}

// truncateAfter physically cuts the log just past rec: rec's segment is
// truncated to rec's end offset and every later segment is removed. It
// returns the next free segment index for a continuation writer.
func truncateAfter(fs FS, rec Rec) (int, error) {
	names, err := fs.List()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		idx, ok := segIndexOf(name)
		if !ok {
			continue
		}
		switch {
		case idx == rec.seg:
			if err := fs.Truncate(name, rec.end); err != nil {
				return 0, fmt.Errorf("wal: truncate %s: %w", name, err)
			}
		case idx > rec.seg:
			if err := fs.Remove(name); err != nil {
				return 0, fmt.Errorf("wal: remove %s: %w", name, err)
			}
		}
	}
	return rec.seg + 1, nil
}
