package wal

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gullible/internal/faults"
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

// TestShortWriteNeverCorruptsCommitted injects torn writes and requires that
// every record the writer reports as committed is recoverable, that losses
// are counted, and that committed + lost == appended (no silent loss).
func TestShortWriteNeverCorruptsCommitted(t *testing.T) {
	inj := faults.NewDiskInjector(7, faults.DiskProfile{ShortWritePerMille: 300})
	fs := NewMemFS()
	w, err := NewWriter(fs, Options{Sync: SyncAlways, Disk: inj, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		_ = w.Append("test", testRec{N: i}) // errors expected: faults are on
	}
	_ = w.Close()
	st := w.Stats()
	if st.Lost == 0 || st.WriteErrors == 0 {
		t.Fatalf("fault profile injected nothing (stats %+v) — seed drift?", st)
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
	// committed records must come back in order even across damaged segments
	prev := -1
	seen := map[int]bool{}
	for _, r := range recs {
		var tr testRec
		if err := json.Unmarshal(r.Data, &tr); err != nil {
			t.Fatalf("recovered record does not decode: %v", err)
		}
		if tr.N <= prev || seen[tr.N] {
			t.Fatalf("recovered stream reorders or duplicates record %d", tr.N)
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
	inj := faults.NewDiskInjector(3, faults.DiskProfile{FsyncFailPerMille: 1000})
	fs := NewMemFS()
	w, err := NewWriter(fs, Options{Sync: SyncAlways, Disk: inj})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append("test", testRec{N: i}); err == nil {
			t.Fatal("every fsync fails; Append under SyncAlways must surface that")
		}
	}
	if w.Stats().SyncErrors != 10 {
		t.Fatalf("got %d sync errors, want 10", w.Stats().SyncErrors)
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
