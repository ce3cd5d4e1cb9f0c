package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the log decoder as the shard's only
// segment. Scan must never panic or hang, must return the longest intact
// prefix of the segment (the bytes it keeps plus the bytes it discards are
// the whole segment, the kept prefix rescans clean, and the first discarded
// byte does not start a valid frame), and a second Scan must agree with the
// first. RecoverShard over the same bytes must return a recovery or a typed
// error, and a recovered log must rescan clean as a prefix of the records
// the first Scan found. The committed seeds (testdata/fuzz/FuzzScan) are an
// intact shard log, a copy torn mid-frame and one with a flipped CRC byte.
func FuzzScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewMemFS()
		writeSegment(t, fs, data)
		recs, stats, err := Scan(fs)
		if err != nil {
			t.Fatalf("Scan failed on an in-memory log: %v", err)
		}
		again, stats2, err := Scan(fs)
		if err != nil || !reflect.DeepEqual(recs, again) || !reflect.DeepEqual(stats, stats2) {
			t.Fatalf("second Scan disagrees: %d records %v, then %d records %v (err %v)", len(recs), stats, len(again), stats2, err)
		}
		if stats.Records != len(recs) || stats.Torn() != (stats.TruncatedBytes > 0) {
			t.Fatalf("inconsistent stats %+v for %d records", stats, len(recs))
		}
		kept := int64(0)
		if len(data) >= headerSize && string(data[:4]) == segMagic && data[4] == segVersion {
			kept = headerSize
		}
		if len(recs) > 0 {
			kept = recs[len(recs)-1].end
		}
		if kept+stats.TruncatedBytes != int64(len(data)) {
			t.Fatalf("kept %d + discarded %d bytes != segment length %d", kept, stats.TruncatedBytes, len(data))
		}
		if kept > 0 && kept < int64(len(data)) && validFrame(data[kept:]) {
			t.Fatalf("Scan stopped at offset %d before a valid frame", kept)
		}
		if kept > 0 {
			prefix := NewMemFS()
			writeSegment(t, prefix, data[:kept])
			precs, pstats, err := Scan(prefix)
			if err != nil || pstats.Torn() || !sameRecs(precs, recs) {
				t.Fatalf("the kept prefix does not rescan to the same clean records: %v, err %v", pstats, err)
			}
		}

		rfs := NewMemFS()
		writeSegment(t, rfs, data)
		rec, err := RecoverShard(rfs, Options{})
		if err != nil {
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if rec != nil || !(errors.Is(err, ErrNoShardMeta) || errors.As(err, &syntax) || errors.As(err, &typ)) {
				t.Fatalf("RecoverShard: untyped error %v (recovery %v)", err, rec != nil)
			}
			return
		}
		after, astats, err := Scan(rfs)
		if err != nil || astats.Torn() {
			t.Fatalf("recovered log does not rescan clean: %v, err %v", astats, err)
		}
		if n := len(recs) - rec.Stats.Discarded; !sameRecs(after, recs[:n]) {
			t.Fatalf("recovered log holds %d records, want the first %d of %d", len(after), n, len(recs))
		}
	})
}

func writeSegment(t *testing.T, fs *MemFS, data []byte) {
	t.Helper()
	f, err := fs.Create(SegName(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

// validFrame reports whether b starts with a whole frame whose checksum
// matches and whose payload decodes as an envelope.
func validFrame(b []byte) bool {
	if len(b) < frameSize {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(b[:4]))
	if frameSize+n > int64(len(b)) {
		return false
	}
	payload := b[frameSize : frameSize+n]
	var env envelope
	return crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(b[4:8]) &&
		json.Unmarshal(payload, &env) == nil
}

// sameRecs compares records by kind and payload, ignoring their positions.
func sameRecs(a, b []Rec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || string(a[i].Data) != string(b[i].Data) {
			return false
		}
	}
	return true
}
