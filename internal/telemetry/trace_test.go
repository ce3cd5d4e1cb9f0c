package telemetry

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestMergeTracesRenumbers is the cross-shard span-id collision regression:
// two shard Flights both number their spans from 1, so a raw concatenation
// would alias shard 0's crawl span with shard 1's. The merge must keep every
// span distinct, preserve intra-part parentage, and be deterministic.
func TestMergeTracesRenumbers(t *testing.T) {
	mkShard := func(site string) []SpanEvent {
		f := NewFlight(64)
		crawl := f.Begin("crawl", 0, 0)
		v := f.Begin("visit", crawl, 0, L("site", site))
		f.End(v, "visit", 5)
		f.End(crawl, "crawl", 5)
		return f.Events()
	}
	a, b := mkShard("a.example"), mkShard("b.example")
	if a[0].Span != b[0].Span {
		t.Fatalf("precondition: shard-local ids should collide, got %d vs %d", a[0].Span, b[0].Span)
	}

	merged := MergeTraces(a, b)
	if len(merged) != len(a)+len(b) {
		t.Fatalf("merged %d events, want %d", len(merged), len(a)+len(b))
	}
	// every distinct (part, local id) pair must come out as a distinct id,
	// begin and end of the same local span must agree, and parentage must be
	// preserved within each part
	begins := map[int64]SpanEvent{}
	for _, ev := range merged {
		if ev.Kind != "B" {
			continue
		}
		if _, dup := begins[ev.Span]; dup {
			t.Fatalf("span id %d begun twice after merge", ev.Span)
		}
		begins[ev.Span] = ev
	}
	if len(begins) != 4 {
		t.Fatalf("merged trace has %d distinct spans, want 4", len(begins))
	}
	for _, ev := range merged {
		if ev.Kind == "B" && ev.Name == "visit" {
			parent, ok := begins[ev.Parent]
			if !ok || parent.Name != "crawl" {
				t.Fatalf("visit span %d lost its crawl parent (parent=%d)", ev.Span, ev.Parent)
			}
			if parent.Attrs != nil {
				t.Fatalf("visit re-parented onto an attributed span: %+v", parent)
			}
		}
	}
	// a.example's visit and b.example's visit must hang off different crawls
	parents := map[int64]bool{}
	for _, ev := range merged {
		if ev.Kind == "B" && ev.Name == "visit" {
			parents[ev.Parent] = true
		}
	}
	if len(parents) != 2 {
		t.Fatalf("the two shards' visits share a crawl parent after merge: %v", parents)
	}
	// deterministic: same inputs, same bytes
	again := MergeTraces(mkShard("a.example"), mkShard("b.example"))
	if !reflect.DeepEqual(merged, again) {
		t.Fatalf("merge is not deterministic:\n%v\nvs\n%v", merged, again)
	}
}

// TestMergeTracesOrphanParent: a child whose parent's begin fell off the ring
// must surface as a root (parent 0), never attach to another part's span.
func TestMergeTracesOrphanParent(t *testing.T) {
	part := []SpanEvent{
		{Kind: "B", Span: 7, Parent: 3, Name: "visit", AtMS: 1}, // parent 3 never appears
		{Kind: "E", Span: 7, Name: "visit", AtMS: 2},
	}
	other := []SpanEvent{
		{Kind: "B", Span: 3, Parent: 0, Name: "crawl", AtMS: 0},
	}
	merged := MergeTraces(other, part)
	for _, ev := range merged[1:] {
		if ev.Parent != 0 {
			t.Fatalf("orphaned child kept parent %d (could alias another part): %+v", ev.Parent, ev)
		}
	}
}

// TestEventsSinceRestoreRoundTrip drives the WAL checkpoint cycle: deltas
// taken at boundaries, concatenated and restored, must rebuild a recorder
// whose events, cursor, id sequence and drop accounting all match the
// original.
func TestEventsSinceRestoreRoundTrip(t *testing.T) {
	f := NewFlight(64)
	var deltas [][]SpanEvent
	cursor := int64(0)
	for site := 0; site < 5; site++ {
		v := f.Begin("visit", 0, float64(site))
		f.End(v, "visit", float64(site)+0.5)
		var d []SpanEvent
		d, cursor = f.EventsSince(cursor)
		if len(d) != 2 {
			t.Fatalf("site %d delta has %d events, want 2", site, len(d))
		}
		deltas = append(deltas, d)
	}
	var all []SpanEvent
	for _, d := range deltas {
		all = append(all, d...)
	}
	r := RestoreFlight(64, all, f.NextID())
	if !reflect.DeepEqual(r.Events(), f.Events()) {
		t.Fatalf("restored events diverge:\n%v\nvs\n%v", r.Events(), f.Events())
	}
	if r.NextID() != f.NextID() {
		t.Fatalf("restored nextID %d, want %d", r.NextID(), f.NextID())
	}
	if r.Cursor() != f.Cursor() {
		t.Fatalf("restored cursor %d, want %d", r.Cursor(), f.Cursor())
	}
	// the restored recorder continues the same id sequence
	if got, want := r.Begin("visit", 0, 9), f.Begin("visit", 0, 9); got != want {
		t.Fatalf("post-restore Begin allocated %d, original allocated %d", got, want)
	}
}

// TestEventsSinceAfterWrap: a cursor pointing at events the ring has already
// overwritten clamps to the oldest retained event instead of misindexing.
func TestEventsSinceAfterWrap(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.End(int64(i+1), "tick", float64(i)) // Ends alone: no id allocation
	}
	got, cur := f.EventsSince(0)
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	if got[0].AtMS != 6 {
		t.Fatalf("oldest retained event is at %v, want 6", got[0].AtMS)
	}
	if cur != 10 {
		t.Fatalf("cursor %d, want 10", cur)
	}
	if more, _ := f.EventsSince(cur); len(more) != 0 {
		t.Fatalf("no new events expected, got %v", more)
	}
}

// TestFlightWraparoundMidSpan: when a span's begin is overwritten but its end
// survives, Events keeps the end (flight-recorder semantics: latest activity
// wins) and never invents the lost begin.
func TestFlightWraparoundMidSpan(t *testing.T) {
	f := NewFlight(4)
	long := f.Begin("crawl", 0, 0) // will be overwritten
	for i := 0; i < 2; i++ {
		v := f.Begin("visit", long, float64(i))
		f.End(v, "visit", float64(i)+0.5)
	}
	f.End(long, "crawl", 99)

	events := f.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	var sawEnd bool
	for _, ev := range events {
		if ev.Kind == "B" && ev.Span == long {
			t.Fatalf("crawl begin should have been overwritten: %v", events)
		}
		if ev.Kind == "E" && ev.Span == long {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Fatalf("ring dropped the surviving end event for span %d", long)
	}
}

// TestDroppedConcurrent exercises Dropped's accounting while Begin/End race
// from many goroutines (run under -race in CI): total minus retained must
// equal the overwrite count, and the final arithmetic must balance.
func TestDroppedConcurrent(t *testing.T) {
	f := NewFlight(32)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := f.Begin("visit", 0, float64(i))
				f.End(id, "visit", float64(i))
				_ = f.Dropped()
				_, _ = f.EventsSince(0)
			}
		}(g)
	}
	wg.Wait()
	want := int64(goroutines*per*2 - 32)
	if got := f.Dropped(); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	if n := len(f.Events()); n != 32 {
		t.Fatalf("retained %d events, want 32", n)
	}
}

// TestFlightTap: the tap sees every event in record order, including ones
// the ring later overwrites.
func TestFlightTap(t *testing.T) {
	f := NewFlight(2)
	var seen []SpanEvent
	f.SetTap(func(ev SpanEvent) { seen = append(seen, ev) })
	a := f.Begin("visit", 0, 0)
	f.End(a, "visit", 1)
	b := f.Begin("visit", 0, 2)
	f.End(b, "visit", 3)
	if len(seen) != 4 {
		t.Fatalf("tap saw %d events, want 4", len(seen))
	}
	if seen[0].Span != a || seen[0].Kind != "B" {
		t.Fatalf("tap order broken: %+v", seen)
	}
	f.SetTap(nil)
	f.End(b, "visit", 4)
	if len(seen) != 4 {
		t.Fatalf("detached tap still firing")
	}
}

// TestReadTraceRoundTrip: WriteTrace then ReadTrace is the identity.
func TestReadTraceRoundTrip(t *testing.T) {
	f := NewFlight(16)
	v := f.Begin("visit", 0, 1.5, L("site", "x.example"))
	f.End(v, "visit", 2.25, L("outcome", "completed"))
	var b strings.Builder
	if err := WriteTrace(&b, f.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f.Events()) {
		t.Fatalf("round trip diverged:\n%v\nvs\n%v", got, f.Events())
	}
	if _, err := ReadTrace(strings.NewReader("{\"ph\":\"B\"}\nnot json\n")); err == nil {
		t.Fatal("malformed trace line should error")
	}
}
