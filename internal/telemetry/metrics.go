package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series, span or event.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L builds a Label tersely at call sites.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders name plus sorted labels into the canonical series
// identity: `name` or `name{k1=v1,k2=v2}`.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.Grow(len(name) + 16*len(ls))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing series. A nil *Counter ignores
// updates, so disabled telemetry costs one nil check per event.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-or-adjust series (progress, sizes). Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observations are bucketed by
// upper bound and summed in integer microunits, so concurrent updates from
// sharded crawl workers commute exactly — the snapshot is deterministic
// regardless of scheduling, which float accumulation could not guarantee.
type Histogram struct {
	bounds    []float64 // ascending upper bounds; +Inf bucket is implicit
	counts    []atomic.Int64
	count     atomic.Int64
	sumMicros atomic.Int64
}

// SecondsBuckets is the default bucket layout for virtual-seconds series.
var SecondsBuckets = []float64{0.5, 1, 5, 15, 30, 60, 120, 300, 600}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMicros.Add(int64(math.Round(v * 1e6)))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation sum (microunit-rounded; 0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumMicros.Load()) / 1e6
}

// Registry holds every metric series of one crawl. Series are created on
// first use and live for the registry's lifetime; resolution takes the
// registry lock, so hot paths resolve once and keep the returned handle.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	histBounds map[string][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		histBounds: map[string][]float64{},
	}
}

// Counter returns the counter series name{labels}, creating it at zero.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge series name{labels}, creating it at zero.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram series name{labels}. bounds applies on
// first creation only (nil falls back to SecondsBuckets); later calls reuse
// the existing layout.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		if len(bounds) == 0 {
			bounds = SecondsBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
		r.histograms[key] = h
		r.histBounds[key] = bs
	}
	return h
}

// HistogramSnapshot is the serialised state of one histogram series. The sum
// is kept in integer microunits so the encoding is exact and canonical.
type HistogramSnapshot struct {
	// Bounds are the ascending upper bucket bounds; Counts has one extra
	// trailing bucket for observations above the last bound.
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	SumMicros int64     `json:"sumMicros"`
}

// Snapshot is a point-in-time copy of a registry, serialisable to canonical
// JSON: encoding/json sorts map keys, series keys embed sorted labels, and
// histogram sums are integers, so identical metric state always produces
// identical bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for k, h := range r.histograms {
			hs := HistogramSnapshot{
				Bounds:    append([]float64(nil), h.bounds...),
				Counts:    make([]int64, len(h.counts)),
				Count:     h.count.Load(),
				SumMicros: h.sumMicros.Load(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[k] = hs
		}
	}
	return s
}

// CanonicalJSON renders the snapshot deterministically (sorted keys, integer
// sums, indented for golden-file readability).
func (s *Snapshot) CanonicalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(s, "", " ")
}

// Total sums every counter series of the given base name (the bare name or
// any labelled variant `name{...}`). Progress lines and reports use it to
// collapse labelled series.
func (s *Snapshot) Total(name string) int64 {
	if s == nil {
		return 0
	}
	var n int64
	prefix := name + "{"
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// Diff lists the series keys whose values differ between s and other
// (including series present on only one side), sorted. Record→replay audits
// use it to surface internal-behaviour divergence, not just output drift.
func (s *Snapshot) Diff(other *Snapshot) []string {
	keys := map[string]bool{}
	add := func(snap *Snapshot) {
		if snap == nil {
			return
		}
		for k := range snap.Counters {
			keys["counter:"+k] = true
		}
		for k := range snap.Gauges {
			keys["gauge:"+k] = true
		}
		for k := range snap.Histograms {
			keys["histogram:"+k] = true
		}
	}
	add(s)
	add(other)
	var out []string
	for k := range keys {
		kind, name, _ := strings.Cut(k, ":")
		var same bool
		switch kind {
		case "counter":
			same = s.counterOf(name) == other.counterOf(name)
		case "gauge":
			same = s.gaugeOf(name) == other.gaugeOf(name)
		case "histogram":
			a, b := s.histOf(name), other.histOf(name)
			same = a.Count == b.Count && a.SumMicros == b.SumMicros
		}
		if !same {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (s *Snapshot) counterOf(k string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[k]
}

func (s *Snapshot) gaugeOf(k string) int64 {
	if s == nil {
		return 0
	}
	return s.Gauges[k]
}

func (s *Snapshot) histOf(k string) HistogramSnapshot {
	if s == nil {
		return HistogramSnapshot{}
	}
	return s.Histograms[k]
}
