package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
)

type testRec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func appendN(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append("test", testRec{N: i, S: strings.Repeat("x", i%17)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func scanKinds(t *testing.T, fs FS) []Rec {
	t.Helper()
	recs, _, err := Scan(fs)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := Scan(fs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Torn() {
		t.Fatalf("clean log reports damage: %s", stats)
	}
	if len(recs) != 100 {
		t.Fatalf("recovered %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if r.Kind != "test" {
			t.Fatalf("record %d has kind %q", i, r.Kind)
		}
		if want := fmt.Sprintf(`"n":%d`, i); !strings.Contains(string(r.Data), want) {
			t.Fatalf("record %d payload %s lacks %s (order not preserved?)", i, r.Data, want)
		}
	}
}

func TestRotationPreservesOrder(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Segments < 2 {
		t.Fatalf("tiny segments produced only %d segment(s)", w.Stats().Segments)
	}
	recs := scanKinds(t, fs)
	if len(recs) != 200 {
		t.Fatalf("recovered %d records across segments, want 200", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf(`"n":%d`, i); !strings.Contains(string(r.Data), want) {
			t.Fatalf("record %d out of order after rotation", i)
		}
	}
}

// TestSyncPolicies drives each fsync policy through a power loss (MemFS
// Crash truncates every file to its synced offset) and checks the guarantee
// each policy documents.
func TestSyncPolicies(t *testing.T) {
	t.Run("always survives power loss", func(t *testing.T) {
		fs := NewMemFS()
		w, err := NewWriter(fs, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 50)
		fs.Crash() // no Close: power dies mid-run
		if got := len(scanKinds(t, fs)); got != 50 {
			t.Fatalf("SyncAlways lost records to power loss: %d/50 survive", got)
		}
	})
	t.Run("off loses unsynced data but stays consistent", func(t *testing.T) {
		fs := NewMemFS()
		w, err := NewWriter(fs, Options{Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 50)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
		recs, stats, err := Scan(fs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Torn() {
			t.Fatalf("power loss at a flush boundary must not tear the log: %s", stats)
		}
		if len(recs) > 50 {
			t.Fatalf("recovered %d records from 50 appends", len(recs))
		}
	})
	t.Run("process kill without close keeps flushed data", func(t *testing.T) {
		fs := NewMemFS()
		w, err := NewWriter(fs, Options{Sync: SyncCheckpoint})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 50)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// abandon w: a killed process loses its user-space buffer only
		if got := len(scanKinds(t, fs)); got != 50 {
			t.Fatalf("flushed records did not survive process kill: %d/50", got)
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncCheckpoint, "checkpoint": SyncCheckpoint, "off": SyncOff, "always": SyncAlways,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}

// TestShortWriteNeverCorruptsCommitted cuts writes short and requires that
// every record the writer reports as committed is recoverable, that each
// cut loses exactly the records it carried, counted, and that committed +
// lost == appended (no silent loss).
func TestShortWriteNeverCorruptsCommitted(t *testing.T) {
	// Under SyncAlways every Append is one write, so write i carries record
	// i, behind a fresh segment's header when it is the first write to that
	// segment. The cuts land nothing, part of a frame header, part of a
	// payload, exactly a segment header, and part of one.
	cuts := map[int]int{0: 12, 3: 0, 17: 5, 40: 20, 41: headerSize, 42: 4, 150: 30}
	fs := NewFaultFS(FaultPlan{Cuts: cuts})
	w, err := NewWriter(fs, Options{Sync: SyncAlways, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		err := w.Append("test", testRec{N: i})
		if _, cut := cuts[i]; cut != (err != nil) {
			t.Fatalf("append %d: error %v, cut %v", i, err, cut)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Lost != len(cuts) || st.WriteErrors != len(cuts) {
		t.Fatalf("%d cuts cost %d records in %d write errors, want %d each", len(cuts), st.Lost, st.WriteErrors, len(cuts))
	}
	if cut, _, _, frames := fs.FaultCounts(); cut != len(cuts) || frames != st.Lost {
		t.Fatalf("FS cut %d writes carrying %d frames; writer lost %d records", cut, frames, st.Lost)
	}
	if st.Committed+st.Lost != st.Appended {
		t.Fatalf("records unaccounted: %d committed + %d lost != %d appended", st.Committed, st.Lost, st.Appended)
	}
	recs, stats, err := Scan(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != st.Committed {
		t.Fatalf("recovered %d records but writer committed %d", len(recs), st.Committed)
	}
	// committed records must come back in order even across damaged
	// segments: exactly the records no cut carried
	var want []int
	for i := 0; i < n; i++ {
		if _, cut := cuts[i]; !cut {
			want = append(want, i)
		}
	}
	prev := -1
	seen := map[int]bool{}
	for i, r := range recs {
		var tr testRec
		if err := json.Unmarshal(r.Data, &tr); err != nil {
			t.Fatalf("recovered record does not decode: %v", err)
		}
		if tr.N <= prev || seen[tr.N] {
			t.Fatalf("recovered stream reorders or duplicates record %d", tr.N)
		}
		if tr.N != want[i] {
			t.Fatalf("recovered record %d is N=%d, want %d", i, tr.N, want[i])
		}
		seen[tr.N] = true
		prev = tr.N
	}
	if stats.Records != len(recs) {
		t.Fatalf("scan stats count %d records but returned %d", stats.Records, len(recs))
	}
}

// TestFsyncFailureKeepsData: a failed fsync is an error and a counter, never
// a rollback.
func TestFsyncFailureKeepsData(t *testing.T) {
	fails := map[int]bool{}
	for i := 0; i < 10; i++ {
		fails[i] = true
	}
	fs := NewFaultFS(FaultPlan{SyncFails: fails})
	w, err := NewWriter(fs, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append("test", testRec{N: i}); !errors.Is(err, syscall.EIO) {
			t.Fatalf("every fsync fails; Append under SyncAlways must surface that, got %v", err)
		}
	}
	if w.Stats().SyncErrors != 10 {
		t.Fatalf("got %d sync errors, want 10", w.Stats().SyncErrors)
	}
	if st := w.Stats(); st.Lost != 0 || st.Committed != 10 {
		t.Fatalf("fsync failures cost records: %+v", st)
	}
	if got := len(scanKinds(t, fs)); got != 10 {
		t.Fatalf("fsync failure unwrote data: %d/10 records recovered", got)
	}
}

// The writer reuses its pending buffer after every flush, so a File must
// not keep the slice Write hands it. A segment's bytes in MemFS taken after
// one flush must survive later appends, which overwrite that buffer.
func TestFlushedBytesSurviveBufferReuse(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil || len(names) != 1 {
		t.Fatalf("segments %v, %v; want one", names, err)
	}
	before, err := fs.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	before = append([]byte(nil), before...)
	for i := 0; i < 3; i++ {
		if err := w.Append("other", testRec{N: 1000 + i, S: strings.Repeat("y", 64)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := fs.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) || string(after[:len(before)]) != string(before) {
		t.Fatal("bytes flushed earlier changed when the writer reused its buffer")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := scanKinds(t, fs); len(recs) != 13 {
		t.Errorf("recovered %d records, want 13", len(recs))
	}
}
