package telemetry

import "testing"

// The disabled-telemetry path must stay in the low single-digit nanoseconds:
// instrumentation points live permanently in the crawl hot paths, so a nil
// telemetry handle has to cost no more than a predictable branch.

func BenchmarkTelemetryOverheadDisabledCounter(b *testing.B) {
	var c *Counter // what every hot site holds when telemetry is off
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryOverheadDisabledSpan(b *testing.B) {
	var f *Flight
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.End(f.Begin("visit", 0, 0), "visit", 0)
	}
}

func BenchmarkTelemetryOverheadEnabledCounter(b *testing.B) {
	c := New().Counter("hits")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryOverheadEnabledHistogram(b *testing.B) {
	h := New().Histogram("lat", SecondsBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.5)
	}
}

func BenchmarkTelemetryOverheadEnabledSpan(b *testing.B) {
	f := NewFlight(DefaultFlightCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.End(f.Begin("visit", 0, 0), "visit", 0)
	}
}
