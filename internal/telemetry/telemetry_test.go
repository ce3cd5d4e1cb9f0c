package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildSample populates a registry the same way from any goroutine order:
// the final state must be identical however the updates interleave.
func buildSample(t *Telemetry) {
	t.Counter("crawl_sites_total", L("outcome", "completed")).Add(40)
	t.Counter("crawl_sites_total", L("outcome", "failed")).Add(2)
	t.Counter("crawl_restarts_total", L("class", "hang")).Add(7)
	t.Gauge("crawl_progress_done").Set(42)
	h := t.Histogram("visit_virtual_seconds", SecondsBuckets)
	for _, v := range []float64{0.25, 3, 3, 61.5, 1200} {
		h.Observe(v)
	}
}

func TestSeriesKeySortsLabels(t *testing.T) {
	a := seriesKey("m", []Label{L("b", "2"), L("a", "1")})
	b := seriesKey("m", []Label{L("a", "1"), L("b", "2")})
	if a != b || a != "m{a=1,b=2}" {
		t.Fatalf("seriesKey not canonical: %q vs %q", a, b)
	}
	if got := seriesKey("m", nil); got != "m" {
		t.Fatalf("bare series key = %q", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	// Every operation on nil receivers must be a silent no-op.
	tel.Counter("c").Inc()
	tel.Gauge("g").Add(3)
	tel.Histogram("h", nil).Observe(1)
	span := tel.Begin("visit", 0, 0)
	if span != 0 {
		t.Fatalf("nil Begin returned span %d", span)
	}
	tel.End(span, "visit", 1)
	if s := tel.Snapshot(); s != nil {
		t.Fatalf("nil snapshot = %+v", s)
	}
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var f *Flight
	f.End(f.Begin("x", 0, 0), "x", 0)
	if ev := f.Events(); ev != nil {
		t.Fatalf("nil flight has events: %v", ev)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	tel := New()
	c := tel.Counter("hits")
	h := tel.Histogram("lat", SecondsBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				// resolve concurrently too: same handle every time
				tel.Counter("hits", L("worker", fmt.Sprint(w))).Inc()
				h.Observe(float64(i%10) + 0.5)
				tel.Gauge("progress").Set(int64(i))
			}
		}(w)
	}
	wg.Wait()
	s := tel.Snapshot()
	if got := s.Counters["hits"]; got != workers*per {
		t.Fatalf("hits = %d, want %d", got, workers*per)
	}
	if got := s.Total("hits"); got != 2*workers*per {
		t.Fatalf("Total(hits) = %d, want %d", got, 2*workers*per)
	}
	hs := s.Histograms["lat"]
	if hs.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*per)
	}
	var sum int64
	for _, n := range hs.Counts {
		sum += n
	}
	if sum != hs.Count {
		t.Fatalf("bucket counts sum %d != count %d", sum, hs.Count)
	}
}

func TestSnapshotGolden(t *testing.T) {
	tel := New()
	buildSample(tel)
	data, err := tel.Snapshot().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("snapshot diverged from golden file:\n got: %s\nwant: %s", data, want)
	}

	// A second, independently built registry must serialise to the very
	// same bytes — the determinism the golden file pins down.
	tel2 := New()
	buildSample(tel2)
	data2, err := tel2.Snapshot().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(data2, '\n'), want) {
		t.Fatal("identical registry state produced different canonical JSON")
	}
}

func TestSnapshotMergeAndDiff(t *testing.T) {
	a, b := New(), New()
	buildSample(a)
	buildSample(b)
	b.Counter("crawl_sites_total", L("outcome", "completed")).Add(10)

	sa, sb := a.Snapshot(), b.Snapshot()
	diff := sa.Diff(sb)
	if len(diff) != 1 || diff[0] != "counter:crawl_sites_total{outcome=completed}" {
		t.Fatalf("Diff = %v", diff)
	}
	if d := sa.Diff(a.Snapshot()); len(d) != 0 {
		t.Fatalf("self-diff = %v", d)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 10})
	h.Observe(0.5)  // bucket ≤1
	h.Observe(1)    // ≤1 (SearchFloat64s: index of first bound ≥ v)
	h.Observe(5)    // ≤10
	h.Observe(1000) // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1006.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestFlightRingAndTrace(t *testing.T) {
	f := NewFlight(1024)
	crawl := f.Begin("crawl", 0, 0)
	v1 := f.Begin("visit", crawl, 0, L("site", "a"))
	p1 := f.Begin("page-load", v1, 0)
	f.End(p1, "page-load", 5)
	f.End(v1, "visit", 5)
	v2 := f.Begin("visit", crawl, 5, L("site", "b"))
	f.End(v2, "visit", 9)
	f.End(crawl, "crawl", 9)

	if ids := []int64{crawl, v1, p1, v2}; ids[0] != 1 || ids[1] != 2 || ids[2] != 3 || ids[3] != 4 {
		t.Fatalf("span ids not sequential: %v", ids)
	}
	// The ring retains all eight events, and each begin links to its
	// parent: v1's subtree is the visit and its page-load, not visit b.
	events := f.Events()
	if len(events) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(events))
	}
	parents := map[int64]int64{}
	var tr []SpanEvent
	for _, ev := range events {
		if ev.Kind == "B" {
			parents[ev.Span] = ev.Parent
		}
		if ev.Span == v1 || ev.Span == p1 {
			tr = append(tr, ev)
		}
	}
	if parents[v1] != crawl || parents[p1] != v1 || parents[v2] != crawl || parents[crawl] != 0 {
		t.Fatalf("begin events carry wrong parents: %v", parents)
	}
	if len(tr) != 4 {
		t.Fatalf("visit a has %d events, want 4: %v", len(tr), tr)
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("WriteTrace emitted %d lines, want 4", lines)
	}
}

func TestFlightOverwritesOldest(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 6; i++ {
		f.End(f.Begin("s", 0, float64(i)), "s", float64(i))
	}
	ev := f.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	if f.Dropped() != 8 {
		t.Fatalf("dropped = %d, want 8", f.Dropped())
	}
	// Oldest retained event must be the begin of span 5 (spans 1–4's eight
	// events minus the four overwritten).
	if ev[0].Span != 5 || ev[0].Kind != "B" {
		t.Fatalf("oldest retained event = %+v", ev[0])
	}
}
