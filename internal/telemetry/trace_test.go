package telemetry

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// shardPart records one shard's visits the way a TaskManager does — each a
// root on the site's own clock — and pairs the events with the serial-clock
// boundaries the scheduler re-folds for them.
func shardPart(start float64, sites ...string) TracePart {
	f := NewFlight(64)
	part := TracePart{Clock: []float64{start}}
	for _, site := range sites {
		v := f.Begin("visit", 0, 0, L("site", site))
		p := f.Begin("page-load", v, 0)
		f.End(p, "page-load", 4)
		f.End(v, "visit", 5)
		part.Clock = append(part.Clock, part.Clock[len(part.Clock)-1]+5)
	}
	part.Events = f.Events()
	return part
}

// TestMergeTracesRenumbers is the cross-shard span-id collision regression:
// two shard Flights both number their spans from 1, so a raw concatenation
// would alias shard 0's visit with shard 1's. The merge must keep every span
// distinct, hang every visit off the one crawl root at its serial time,
// preserve intra-part parentage, and be deterministic.
func TestMergeTracesRenumbers(t *testing.T) {
	a, b := shardPart(0, "a.example"), shardPart(5, "b.example")
	if a.Events[0].Span != b.Events[0].Span {
		t.Fatalf("precondition: shard-local ids should collide, got %d vs %d", a.Events[0].Span, b.Events[0].Span)
	}

	merged := MergeTraces(CrawlRoot{Sites: 2, Ended: true, Completed: 2}, a, b)
	if len(merged) != len(a.Events)+len(b.Events)+2 {
		t.Fatalf("merged %d events, want %d", len(merged), len(a.Events)+len(b.Events)+2)
	}
	first, last := merged[0], merged[len(merged)-1]
	if first.Kind != "B" || first.Span != 1 || first.Name != "crawl" || first.AtMS != 0 ||
		!reflect.DeepEqual(first.Attrs, []Label{L("sites", "2")}) {
		t.Fatalf("merge must open with the crawl root, got %+v", first)
	}
	if last.Kind != "E" || last.Span != 1 || last.AtMS != 10 ||
		!reflect.DeepEqual(last.Attrs, []Label{L("completed", "2")}) {
		t.Fatalf("merge must close the crawl root at the serial end, got %+v", last)
	}
	// every distinct (part, local id) pair must come out as a distinct id,
	// and parentage must be preserved within each part
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
	if len(begins) != 5 {
		t.Fatalf("merged trace has %d distinct spans, want 5", len(begins))
	}
	var visitStarts []float64
	for _, ev := range merged {
		if ev.Kind != "B" {
			continue
		}
		switch ev.Name {
		case "visit":
			if ev.Parent != 1 {
				t.Fatalf("visit span %d is not under the crawl root (parent=%d)", ev.Span, ev.Parent)
			}
			visitStarts = append(visitStarts, ev.AtMS)
		case "page-load":
			if begins[ev.Parent].Name != "visit" || ev.Parent != ev.Span-1 {
				t.Fatalf("page-load span %d lost its own visit parent (parent=%d)", ev.Span, ev.Parent)
			}
		}
	}
	if !reflect.DeepEqual(visitStarts, []float64{0, 5}) {
		t.Fatalf("visits begin at %v, want the serial clock [0 5]", visitStarts)
	}
	// deterministic: same inputs, same bytes
	again := MergeTraces(CrawlRoot{Sites: 2, Ended: true, Completed: 2},
		shardPart(0, "a.example"), shardPart(5, "b.example"))
	if !reflect.DeepEqual(merged, again) {
		t.Fatalf("merge is not deterministic:\n%v\nvs\n%v", merged, again)
	}
	// an interrupted crawl leaves its root open
	if open := MergeTraces(CrawlRoot{Sites: 2}, a, b); open[len(open)-1].Name == "crawl" {
		t.Fatalf("unended root was closed: %+v", open[len(open)-1])
	}
}

// TestMergeTracesOrphanParent: a child whose parent's begin fell off the ring
// must surface as a root (parent 0), never attach to another part's span.
func TestMergeTracesOrphanParent(t *testing.T) {
	part := TracePart{
		Events: []SpanEvent{
			{Kind: "B", Span: 7, Parent: 3, Name: "page-load", AtMS: 1}, // parent 3 never appears
			{Kind: "E", Span: 7, Name: "page-load", AtMS: 2},
		},
		Clock: []float64{0},
	}
	other := TracePart{
		Events: []SpanEvent{{Kind: "B", Span: 3, Parent: 0, Name: "page-load", AtMS: 0}},
		Clock:  []float64{0},
	}
	merged := MergeTraces(CrawlRoot{Sites: 2}, other, part)
	for _, ev := range merged[2:] {
		if ev.Parent != 0 {
			t.Fatalf("orphaned child kept parent %d (could alias another part): %+v", ev.Parent, ev)
		}
	}
}

// TestMergeTracesWrappedRing: a shard whose ring overwrote its oldest events
// (its first visits, and the begin of the oldest visit it still holds) must
// still merge into one crawl root, with every retained visit begin at its
// serial start time.
func TestMergeTracesWrappedRing(t *testing.T) {
	lead := shardPart(0, "lead.example") // one 5 ms visit
	f := NewFlight(9)
	wrapped := TracePart{Clock: []float64{5}}
	start := map[string]float64{"lead.example": 0}
	for i := 0; i < 6; i++ {
		site := fmt.Sprintf("s%d.example", i)
		v := f.Begin("visit", 0, 0, L("site", site))
		p := f.Begin("page-load", v, 0)
		f.End(p, "page-load", 1)
		f.End(v, "visit", float64(i+1))
		at := wrapped.Clock[len(wrapped.Clock)-1]
		start[site] = at
		wrapped.Clock = append(wrapped.Clock, at+float64(i+1))
	}
	wrapped.Events = f.Events()
	if first := wrapped.Events[0]; first.Kind == "B" && first.Name == "visit" {
		t.Fatalf("precondition: the ring must have cut a visit in half, starts with %+v", first)
	}
	merged := MergeTraces(CrawlRoot{Sites: 7, Ended: true, Completed: 7}, lead, wrapped)

	roots := 0
	var sites []string
	for _, ev := range merged {
		if ev.Kind != "B" {
			continue
		}
		switch ev.Name {
		case "crawl":
			roots++
		case "visit":
			site := ev.Attrs[0].Value
			if ev.AtMS != start[site] || ev.Parent != 1 {
				t.Fatalf("visit %s begins at %v under %d, want its serial start %v under the root", site, ev.AtMS, ev.Parent, start[site])
			}
			sites = append(sites, site)
		}
	}
	if roots != 1 {
		t.Fatalf("merged trace has %d crawl roots, want 1", roots)
	}
	// the half-cut visit keeps its end, placed at its serial end
	if cut := merged[1+len(lead.Events)]; cut.Kind != "E" || cut.Name != "visit" || cut.AtMS != wrapped.Clock[4] {
		t.Fatalf("half-cut visit ends with %+v, want ts %v", cut, wrapped.Clock[4])
	}
	if want := []string{"lead.example", "s4.example", "s5.example"}; !reflect.DeepEqual(sites, want) {
		t.Fatalf("retained visit begins %v, want %v", sites, want)
	}
	if end, want := merged[len(merged)-1], wrapped.Clock[6]; end.Name != "crawl" || end.AtMS != want {
		t.Fatalf("crawl root ends with %+v, want ts %v", end, want)
	}

	// a part holding more visits than its Clock covers (only a damaged WAL
	// restores one) keeps the surplus oldest visit as recorded, no panic
	short := shardPart(0, "a.example", "b.example")
	short.Clock = short.Clock[:2]
	if first := MergeTraces(CrawlRoot{Sites: 2}, short)[1]; first.Name != "visit" || first.Parent != 0 {
		t.Fatalf("surplus visit was placed on the clock: %+v", first)
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
