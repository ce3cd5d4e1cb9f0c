package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"gullible/internal/bundle"
	"gullible/internal/openwpm"
)

// hostile is page-controlled text that encoding/json escapes: HTML
// specials, a line separator and non-ASCII.
const hostile = "<script>&amp;\u2028\u2029 é 日本 \"q\\"

// TestAppendPayloadMatchesEnvelope pins the frame payload Append writes
// directly to the bytes json.Marshal(envelope{K, D}) produced, for every
// record kind, and checks that no kind needs JSON escaping (Append writes
// kinds verbatim).
func TestAppendPayloadMatchesEnvelope(t *testing.T) {
	cases := []struct {
		kind string
		v    any
	}{
		{recMeta, ShardMeta{Sites: []string{hostile}, Meta: map[string]string{hostile: hostile}}},
		{recVisit, openwpm.VisitRecord{SiteURL: hostile, Error: hostile}},
		{recCrash, openwpm.CrashRecord{SiteURL: hostile, Error: hostile}},
		{recRequest, openwpm.RequestRecord{URL: hostile, Time: 1.5}},
		{recCookie, openwpm.CookieEntry{Name: hostile, Value: hostile}},
		{recJSCall, openwpm.JSCall{Symbol: hostile, Args: hostile, Value: hostile}},
		{recBody, bodyRec{SHA: "abc", Content: hostile}},
		{recScript, openwpm.ContentWrite{URL: hostile, SHA: "abc"}},
		{recTamper, openwpm.TamperRecord{URL: hostile, Findings: []openwpm.TamperFinding{{Rule: "r", Detail: hostile}}}},
		{recDrop, dropRec{Table: hostile}},
		{recBVisit, bundle.Visit{Record: openwpm.VisitRecord{SiteURL: hostile}, StorageWrites: map[string]int{hostile: 1}}},
		// a raw trace with whitespace and unescaped specials: json.Marshal
		// compacts and escapes it before the payload is framed
		{recCheckpoint, checkRec{Outcome: openwpm.SiteOutcome{Site: hostile}, Trace: json.RawMessage(" {\"s\": \"< >\"} ")}},
	}
	for _, c := range cases {
		if q, _ := json.Marshal(c.kind); string(q) != `"`+c.kind+`"` {
			t.Errorf("record kind %q encodes as %s; Append writes kinds verbatim", c.kind, q)
		}
		fs := NewMemFS()
		w, err := NewWriter(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(c.kind, c.v); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := fs.ReadFile(SegName(0))
		if err != nil {
			t.Fatal(err)
		}
		frame := seg[headerSize:]
		n := binary.LittleEndian.Uint32(frame)
		got := frame[frameSize:]
		if int(n) != len(got) {
			t.Fatalf("%s: frame length %d, payload %d bytes", c.kind, n, len(got))
		}
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(envelope{K: c.kind, D: data})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s payload\n got %s\nwant %s", c.kind, got, want)
		}
		recs := scanKinds(t, fs)
		if len(recs) != 1 || recs[0].Kind != c.kind || !bytes.Equal(recs[0].Data, data) {
			t.Errorf("%s: scan recovered %+v", c.kind, recs)
		}
	}
}
