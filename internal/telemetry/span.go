package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultFlightCapacity bounds the flight recorder ring buffer. At two
// events per span this holds the last ~16k spans of a crawl, enough for the
// deepest visit traces while keeping memory flat on million-site runs.
const DefaultFlightCapacity = 32768

// SpanEvent is one begin ("B") or end ("E") record in the flight recorder.
// Times are virtual milliseconds from the deterministic crawl clock, so a
// replayed bundle reproduces the exact same event stream as its recording.
type SpanEvent struct {
	// Kind is "B" for begin, "E" for end.
	Kind string `json:"ph"`
	// Span is the span id this event belongs to; ids are sequential per
	// Flight starting at 1.
	Span int64 `json:"id"`
	// Parent is the enclosing span id (0 for roots); set on begin events.
	Parent int64 `json:"parent,omitempty"`
	// Name is the span name (crawl, visit, page-load, script-exec,
	// http-exchange).
	Name string `json:"name"`
	// AtMS is the virtual-clock timestamp in milliseconds.
	AtMS float64 `json:"ts"`
	// Attrs carries span attributes (site, url, status, outcome).
	Attrs []Label `json:"attrs,omitempty"`
}

// Flight is a bounded ring buffer of span events. Begin/End append under a
// mutex; when the buffer is full the oldest events are overwritten, flight-
// recorder style, so the most recent crawl activity is always retained.
type Flight struct {
	mu     sync.Mutex
	buf    []SpanEvent
	start  int // index of oldest event
	n      int // number of live events
	nextID int64
	total  int64 // events ever recorded (including overwritten)
}

// NewFlight returns a flight recorder holding at most capacity events.
func NewFlight(capacity int) *Flight {
	if capacity < 2 {
		capacity = 2
	}
	return &Flight{buf: make([]SpanEvent, capacity), nextID: 1}
}

func (f *Flight) push(ev SpanEvent) {
	if f.n == len(f.buf) {
		f.buf[f.start] = ev
		f.start = (f.start + 1) % len(f.buf)
	} else {
		f.buf[(f.start+f.n)%len(f.buf)] = ev
		f.n++
	}
	f.total++
}

// Begin records a span-begin event and returns the new span id. parent is
// the enclosing span id (0 for a root). A nil Flight returns 0, which is a
// valid no-op parent for nested Begin calls.
func (f *Flight) Begin(name string, parent int64, atMS float64, attrs ...Label) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.nextID
	f.nextID++
	f.push(SpanEvent{Kind: "B", Span: id, Parent: parent, Name: name, AtMS: atMS, Attrs: attrs})
	return id
}

// End records a span-end event for the given span id. Ending span 0 (the
// no-op id from a nil recorder) is ignored.
func (f *Flight) End(span int64, name string, atMS float64, attrs ...Label) {
	if f == nil || span == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.push(SpanEvent{Kind: "E", Span: span, Name: name, AtMS: atMS, Attrs: attrs})
}

// Events returns the retained events oldest-first.
func (f *Flight) Events() []SpanEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]SpanEvent, f.n)
	for i := 0; i < f.n; i++ {
		out[i] = f.buf[(f.start+i)%len(f.buf)]
	}
	return out
}

// Dropped reports how many events were overwritten by the ring buffer.
func (f *Flight) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total - int64(f.n)
}

// WriteTrace streams events as JSON lines (one SpanEvent object per line),
// the format the CLI -trace flag emits.
func WriteTrace(w io.Writer, events []SpanEvent) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
