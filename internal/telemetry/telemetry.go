// Package telemetry is a dependency-free observability layer for the crawl
// pipeline. It provides two coordinated primitives:
//
//   - a metrics Registry of named counters, gauges and fixed-bucket
//     histograms with atomic updates, labelled by site, outcome, table or
//     fault class, snapshottable to deterministic canonical JSON;
//   - a Flight recorder of nested span begin/end events over *virtual* time
//     (the browser's deterministic clock), kept in a bounded ring buffer so
//     traces from record and replay runs of the same bundle are
//     bit-for-bit identical.
//
// The paper's central finding is that OpenWPM loses or distorts data
// *silently* (Sec. 5.2: 14% of page loads failed without surfacing in the
// results) because the framework exposes no internal signals. This package
// makes every crawl self-describing while it runs and auditable after it
// finishes.
//
// Every type is nil-safe: a nil *Telemetry, *Registry, *Counter or *Flight
// turns the corresponding operation into a no-op costing a few
// nanoseconds, so instrumentation points stay in the hot paths permanently
// and cost nothing when telemetry is off. Call sites that would otherwise
// build variadic label slices guard with Enabled() first.
package telemetry

// Telemetry bundles the two observability primitives threaded through the
// crawl pipeline. A nil *Telemetry disables everything.
type Telemetry struct {
	// Metrics is the metrics registry (counters, gauges, histograms).
	Metrics *Registry
	// Spans is the flight recorder of span begin/end events.
	Spans *Flight
}

// New returns an enabled Telemetry with a fresh registry and a default-sized
// flight recorder.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Spans: NewFlight(DefaultFlightCapacity)}
}

// Enabled reports whether telemetry is live. Hot paths check this before
// building label slices.
func (t *Telemetry) Enabled() bool { return t != nil }

// Counter resolves (creating on first use) the counter series name{labels}.
func (t *Telemetry) Counter(name string, labels ...Label) *Counter {
	if t == nil {
		return nil
	}
	return t.Metrics.Counter(name, labels...)
}

// Gauge resolves the gauge series name{labels}.
func (t *Telemetry) Gauge(name string, labels ...Label) *Gauge {
	if t == nil {
		return nil
	}
	return t.Metrics.Gauge(name, labels...)
}

// Histogram resolves the histogram series name{labels} with the given upper
// bucket bounds (used only on first creation).
func (t *Telemetry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if t == nil {
		return nil
	}
	return t.Metrics.Histogram(name, bounds, labels...)
}

// Begin opens a span in the flight recorder; see Flight.Begin.
func (t *Telemetry) Begin(name string, parent int64, atMS float64, attrs ...Label) int64 {
	if t == nil {
		return 0
	}
	return t.Spans.Begin(name, parent, atMS, attrs...)
}

// End closes a span in the flight recorder; see Flight.End.
func (t *Telemetry) End(span int64, name string, atMS float64, attrs ...Label) {
	if t != nil {
		t.Spans.End(span, name, atMS, attrs...)
	}
}

// Snapshot captures the current metrics as a deterministic value.
func (t *Telemetry) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	return t.Metrics.Snapshot()
}
