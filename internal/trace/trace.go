// Package trace analyses flight-recorder span streams: it rebuilds the span
// tree from a JSON-lines event file, finds the critical path and the slowest
// spans, renders per-phase duration histograms, and structurally diffs two
// traces (a deterministic record/replay pair must diff empty). The scheduler
// produces these streams (sched.Result.Trace) — one crawl root over every
// visit, the same at any worker count — the daemon persists them as job
// artifacts, and cmd/wpmtrace is the CLI face of this package.
package trace

import (
	"fmt"
	"sort"

	"gullible/internal/telemetry"
)

// Span is one reconstructed span: a begin event, its matching end (when
// retained), and its children in begin order.
type Span struct {
	ID     int64
	Parent int64
	Name   string
	// Start and End are virtual-clock milliseconds. A span whose begin was
	// overwritten by the flight-recorder ring has NoBegin set and Start
	// copied from its end event; a span that never ended has Open set and
	// End copied from its begin.
	Start, End float64
	// Attrs are the begin attributes, EndAttrs the end attributes.
	Attrs    []telemetry.Label
	EndAttrs []telemetry.Label
	Children []*Span
	NoBegin  bool
	Open     bool
}

// Duration is the span's virtual duration in milliseconds (0 when either
// endpoint is missing, so ring-truncated spans never dominate rankings).
func (s *Span) Duration() float64 {
	if s.NoBegin || s.Open {
		return 0
	}
	return s.End - s.Start
}

// Attr returns the value of the named begin attribute ("" when absent).
func (s *Span) Attr(key string) string {
	for _, l := range s.Attrs {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Tree is a reconstructed span forest. Roots keeps first-appearance order.
type Tree struct {
	Roots []*Span
	// ByID indexes every span. Events counts the raw events consumed.
	ByID   map[int64]*Span
	Events int
}

// Build reconstructs the span forest from an event stream. The stream may be
// ring-truncated: end events whose begin was overwritten become NoBegin spans
// parented at the root level, and begin events with a dropped parent become
// roots themselves.
func Build(events []telemetry.SpanEvent) *Tree {
	t := &Tree{ByID: make(map[int64]*Span)}
	t.Events = len(events)
	for _, ev := range events {
		switch ev.Kind {
		case "B":
			s := &Span{
				ID: ev.Span, Parent: ev.Parent, Name: ev.Name,
				Start: ev.AtMS, End: ev.AtMS, Attrs: ev.Attrs, Open: true,
			}
			t.ByID[ev.Span] = s
			if p := t.ByID[ev.Parent]; p != nil {
				p.Children = append(p.Children, s)
			} else {
				t.Roots = append(t.Roots, s)
			}
		case "E":
			s := t.ByID[ev.Span]
			if s == nil {
				// begin fell off the ring: keep the end so the loss is visible
				s = &Span{
					ID: ev.Span, Name: ev.Name,
					Start: ev.AtMS, NoBegin: true,
				}
				t.ByID[ev.Span] = s
				t.Roots = append(t.Roots, s)
			}
			s.End = ev.AtMS
			s.EndAttrs = ev.Attrs
			s.Open = false
		}
	}
	return t
}

// Walk visits every span depth-first in begin order.
func (t *Tree) Walk(fn func(s *Span, depth int)) {
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		fn(s, depth)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
}

// Spans returns every span depth-first in begin order.
func (t *Tree) Spans() []*Span {
	var out []*Span
	t.Walk(func(s *Span, _ int) { out = append(out, s) })
	return out
}

// CriticalPath returns the chain of spans that determines when the given
// root finishes: starting at the root, it repeatedly descends into the child
// that ends last, so the returned path is the sequence of spans an operator
// must shorten to shorten the whole trace. Passing nil uses the
// longest-duration root of the tree.
func (t *Tree) CriticalPath(root *Span) []*Span {
	if root == nil {
		for _, r := range t.Roots {
			if root == nil || r.Duration() > root.Duration() {
				root = r
			}
		}
	}
	if root == nil {
		return nil
	}
	path := []*Span{root}
	cur := root
	for len(cur.Children) > 0 {
		next := cur.Children[0]
		for _, c := range cur.Children[1:] {
			// latest-finishing child; ties break toward the later starter so
			// sequential phases pick the final one
			if c.End > next.End || (c.End == next.End && c.Start >= next.Start) {
				next = c
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// Slowest returns the n longest spans named name, longest first (all names
// when name is empty). Ties break by begin order so output is deterministic.
func (t *Tree) Slowest(name string, n int) []*Span {
	var pool []*Span
	order := map[*Span]int{}
	for i, s := range t.Spans() {
		if name == "" || s.Name == name {
			pool = append(pool, s)
			order[s] = i
		}
	}
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Duration() != pool[j].Duration() {
			return pool[i].Duration() > pool[j].Duration()
		}
		return order[pool[i]] < order[pool[j]]
	})
	if n > 0 && len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

// Names returns the distinct span names in the tree, sorted.
func (t *Tree) Names() []string {
	seen := map[string]bool{}
	for _, s := range t.Spans() {
		seen[s.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delta is one structural difference between two traces.
type Delta struct {
	Index int    // event position (in whichever stream has the event)
	What  string // human-readable description
}

func (d Delta) String() string { return fmt.Sprintf("event %d: %s", d.Index, d.What) }

// Diff structurally compares two event streams. A deterministic record/replay
// pair must return nil: same events, same order, same ids, same virtual
// timestamps, same attributes. Differences are reported per event position;
// length mismatches add one trailing delta.
func Diff(a, b []telemetry.SpanEvent) []Delta {
	var out []Delta
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if d := diffEvent(a[i], b[i]); d != "" {
			out = append(out, Delta{Index: i, What: d})
		}
	}
	if len(a) != len(b) {
		out = append(out, Delta{
			Index: n,
			What:  fmt.Sprintf("length mismatch: %d events vs %d", len(a), len(b)),
		})
	}
	return out
}

func diffEvent(x, y telemetry.SpanEvent) string {
	switch {
	case x.Kind != y.Kind:
		return fmt.Sprintf("kind %q vs %q", x.Kind, y.Kind)
	case x.Span != y.Span:
		return fmt.Sprintf("%s %s: span id %d vs %d", x.Kind, x.Name, x.Span, y.Span)
	case x.Name != y.Name:
		return fmt.Sprintf("span %d: name %q vs %q", x.Span, x.Name, y.Name)
	case x.Parent != y.Parent:
		return fmt.Sprintf("%s %s span %d: parent %d vs %d", x.Kind, x.Name, x.Span, x.Parent, y.Parent)
	case x.AtMS != y.AtMS:
		return fmt.Sprintf("%s %s span %d: ts %.3f vs %.3f", x.Kind, x.Name, x.Span, x.AtMS, y.AtMS)
	}
	if len(x.Attrs) != len(y.Attrs) {
		return fmt.Sprintf("%s %s span %d: %d attrs vs %d", x.Kind, x.Name, x.Span, len(x.Attrs), len(y.Attrs))
	}
	for i := range x.Attrs {
		if x.Attrs[i] != y.Attrs[i] {
			return fmt.Sprintf("%s %s span %d: attr %s=%q vs %s=%q",
				x.Kind, x.Name, x.Span, x.Attrs[i].Key, x.Attrs[i].Value, y.Attrs[i].Key, y.Attrs[i].Value)
		}
	}
	return ""
}
