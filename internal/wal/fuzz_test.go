package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
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

// FuzzWriterFaults drives a Writer over a FaultFS. The input picks the
// records (one per byte of sizes, whose value is the record's padding), the
// sync policy, a small segment size, a flush size, and the fault plan: a
// device budget in bytes (0 = unlimited), cut writes as (gap, low, high)
// byte triples naming a write by its distance from the previous cut and the
// bytes of it that land, and a bitmap of the fsyncs that fail. The oracle:
// nothing panics; committed + lost == appended; the records lost are
// exactly the frames the failed writes carried; every failed fsync is
// counted in SyncErrors and loses nothing; and after Close, Scan returns
// exactly the committed records, each an appended record, in append order,
// with no duplicates. The committed seeds (testdata/fuzz/FuzzWriterFaults)
// are a fault-free log, torn writes under SyncAlways, a full device, and
// failing fsyncs.
func FuzzWriterFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, sizes []byte, policy uint8, segBytes, flushBytes, budget uint16, cuts, syncFails []byte) {
		if len(sizes) > 256 {
			sizes = sizes[:256]
		}
		plan := FaultPlan{Cuts: map[int]int{}, Budget: int64(budget), SyncFails: map[int]bool{}}
		seq := 0
		for i := 0; i+2 < len(cuts); i += 3 {
			seq += int(cuts[i])
			plan.Cuts[seq] = int(cuts[i+1]) | int(cuts[i+2])<<8
		}
		for i, b := range syncFails {
			for bit := 0; bit < 8; bit++ {
				if b&(1<<bit) != 0 {
					plan.SyncFails[8*i+bit] = true
				}
			}
		}
		fs := NewFaultFS(plan)
		w, err := NewWriter(fs, Options{
			Sync:         SyncPolicy(policy % 3),
			SegmentBytes: 64 + int64(segBytes%2048),
			FlushBytes:   int(flushBytes % 1024),
		})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		for i, size := range sizes {
			_ = w.Append("test", testRec{N: i, S: strings.Repeat("x", int(size))}) // faults are on
		}
		_ = w.Close()

		st := w.Stats()
		cut, noSpace, syncFailed, lostFrames := fs.FaultCounts()
		if st.Appended != len(sizes) || st.Committed+st.Lost != st.Appended {
			t.Fatalf("records unaccounted: %d committed + %d lost, %d appended of %d", st.Committed, st.Lost, st.Appended, len(sizes))
		}
		if st.Lost != lostFrames || st.WriteErrors != cut+noSpace {
			t.Fatalf("writer lost %d records in %d write errors; the FS failed %d writes carrying %d frames", st.Lost, st.WriteErrors, cut+noSpace, lostFrames)
		}
		if st.SyncErrors != syncFailed {
			t.Fatalf("writer counted %d sync errors; the FS failed %d fsyncs", st.SyncErrors, syncFailed)
		}
		recs, stats, err := Scan(fs)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(recs) != st.Committed || stats.Records != len(recs) {
			t.Fatalf("Scan returned %d records (stats %d); writer committed %d", len(recs), stats.Records, st.Committed)
		}
		prev := -1
		for _, r := range recs {
			var tr testRec
			if err := json.Unmarshal(r.Data, &tr); err != nil || r.Kind != "test" {
				t.Fatalf("recovered record %s %s is not an appended record: %v", r.Kind, r.Data, err)
			}
			if tr.N <= prev || tr.N >= len(sizes) || len(tr.S) != int(sizes[tr.N]) {
				t.Fatalf("recovered record N=%d (padding %d) after N=%d: not in append order or not as appended", tr.N, len(tr.S), prev)
			}
			prev = tr.N
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
