package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the trace plane's flight-recorder surface: incremental event
// export for WAL checkpointing (EventsSince/RestoreFlight), deterministic
// cross-shard merging (MergeTraces) and the JSON-lines parser (ReadTrace)
// shared by wpmtrace and the daemon.

// Cursor is the recorder's monotone event count (including overwritten
// events) — the resume token EventsSince consumes.
func (f *Flight) Cursor() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// NextID is the id the next Begin will allocate. Persisted at checkpoints so
// a restored recorder continues the same id sequence.
func (f *Flight) NextID() int64 {
	if f == nil {
		return 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextID
}

// EventsSince returns the retained events recorded after the given cursor
// (a value previously returned by EventsSince or Cursor; 0 means "from the
// beginning") plus the new cursor. Events that were recorded after the
// cursor but already overwritten by the ring are gone — callers that
// checkpoint every site boundary only lose events if a single site emits
// more than the ring holds.
func (f *Flight) EventsSince(cursor int64) ([]SpanEvent, int64) {
	if f == nil {
		return nil, cursor
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	oldest := f.total - int64(f.n)
	if cursor < oldest {
		cursor = oldest
	}
	if cursor > f.total {
		cursor = f.total
	}
	k := f.total - cursor
	out := make([]SpanEvent, 0, k)
	for i := int64(0); i < k; i++ {
		idx := (int64(f.start) + (cursor - oldest) + i) % int64(len(f.buf))
		out = append(out, f.buf[idx])
	}
	return out, f.total
}

// RestoreFlight rebuilds a recorder from checkpointed events: the events are
// replayed through the ring (so capacity semantics — and therefore Dropped()
// accounting — match a recorder that lived through them), and the id
// sequence continues from nextID so post-restore Begins never collide with
// restored spans.
func RestoreFlight(capacity int, events []SpanEvent, nextID int64) *Flight {
	f := NewFlight(capacity)
	for _, ev := range events {
		f.push(ev)
	}
	if nextID > f.nextID {
		f.nextID = nextID
	}
	return f
}

// FlightCheckpoint is the recorder delta persisted with each WAL site
// checkpoint: the events since the previous checkpoint and the id cursor.
// Recovery concatenates the deltas and hands them to RestoreFlight.
type FlightCheckpoint struct {
	Events []SpanEvent `json:"events,omitempty"`
	NextID int64       `json:"nextId"`
}

// TracePart is one shard's input to MergeTraces: its flight events and
// Clock, the serial-clock boundaries of every visit the shard made, in
// order. Visit i ran from Clock[i] to Clock[i+1] on the whole crawl's clock,
// so Clock has one entry more than the shard made visits.
type TracePart struct {
	Events []SpanEvent
	Clock  []float64
}

// CrawlRoot is the crawl span MergeTraces synthesises. Sites labels its
// begin. Ended closes it at the last visit's end with an end event carrying
// Completed; an interrupted crawl leaves it open.
type CrawlRoot struct {
	Sites     int
	Ended     bool
	Completed int
}

// MergeTraces builds a crawl's one trace from its shards' span streams, in
// the form a serial crawl records whatever the worker count: a crawl root
// (id 1, ts 0) holding every visit on the serial clock.
//
// Every Flight numbers its spans from 1 and records each visit as a root on
// the site's own clock. The merge renumbers ids from 2 in first-appearance
// order within each part, parts in order, so the output is a pure function
// of the inputs. It parents each visit under the root and moves its begin
// and end to the visit's Clock boundaries; the spans inside a visit keep
// their browser-local timestamps. A parent id never seen in its part (its
// begin was overwritten by the ring) becomes 0, turning the orphan into a
// root rather than attaching it to an unrelated shard's span.
//
// A ring keeps the newest events, so the visits a part retains are the
// shard's last ones: of n retained visits, the k-th (from 0) is visit
// len(Clock)-1-n+k.
func MergeTraces(root CrawlRoot, parts ...TracePart) []SpanEvent {
	out := []SpanEvent{{Kind: "B", Span: 1, Name: "crawl", Attrs: []Label{L("sites", fmt.Sprint(root.Sites))}}}
	next, endMS := int64(2), 0.0
	for _, part := range parts {
		visits := map[int64]int{}
		for _, ev := range part.Events {
			if _, seen := visits[ev.Span]; !seen && ev.Name == "visit" {
				visits[ev.Span] = len(visits)
			}
		}
		first := len(part.Clock) - 1 - len(visits)
		ids := make(map[int64]int64, len(part.Events)/2)
		for _, ev := range part.Events {
			local := ev.Span
			nid, ok := ids[local]
			if !ok {
				nid = next
				next++
				ids[local] = nid
			}
			ev.Span = nid
			// first+k < 0 means more visits than Clock has room for, which
			// only a damaged WAL can restore: those stay as recorded
			if k, ok := visits[local]; ok && first+k >= 0 {
				if ev.Kind == "B" {
					ev.Parent, ev.AtMS = 1, part.Clock[first+k]
				} else {
					ev.AtMS = part.Clock[first+k+1]
				}
			} else if ev.Parent != 0 {
				ev.Parent = ids[ev.Parent] // 0 when the parent never appeared
			}
			out = append(out, ev)
		}
		endMS = part.Clock[len(part.Clock)-1]
	}
	if root.Ended {
		out = append(out, SpanEvent{Kind: "E", Span: 1, Name: "crawl", AtMS: endMS,
			Attrs: []Label{L("completed", fmt.Sprint(root.Completed))}})
	}
	return out
}

// ReadTrace parses a JSON-lines span-event stream (the WriteTrace format;
// any whitespace between objects is accepted).
func ReadTrace(r io.Reader) ([]SpanEvent, error) {
	dec := json.NewDecoder(r)
	var out []SpanEvent
	for i := 0; ; i++ {
		var ev SpanEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: trace event %d: %w", i, err)
		}
		out = append(out, ev)
	}
	return out, nil
}
