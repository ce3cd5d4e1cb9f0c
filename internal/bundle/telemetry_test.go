package bundle

import (
	"bytes"
	"reflect"
	"testing"

	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
	"gullible/internal/trace"
)

// traceBytes renders a flight recording in the -trace wire format for
// byte-level comparison.
func traceBytes(t *testing.T, tel *telemetry.Telemetry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, tel.Spans.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A replayed bundle runs on the same virtual clock as its recording, so the
// flight recorder must reproduce the recorded span stream bit for bit and
// the metrics registries must not differ in a single series — the paper's
// notion of a trustworthy re-measurement, applied to the tool's own
// internals.
func TestReplayReproducesTelemetry(t *testing.T) {
	cfg, urls := faultedConfig(23, 5, 8)
	telLive := telemetry.New()
	cfg.Telemetry = telLive
	if inj, ok := cfg.Transport.(interface {
		SetTelemetry(*telemetry.Telemetry)
	}); ok {
		inj.SetTelemetry(telLive)
	}

	b, liveReport, _, err := recordCrawl(cfg, urls, map[string]string{"scenario": "telemetry"})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if liveReport.Metrics == nil {
		t.Fatal("instrumented recording produced no metrics snapshot")
	}
	if b.Report == nil || b.Report.Metrics == nil {
		t.Fatal("bundle did not embed the crawl's metrics snapshot")
	}

	telReplay := telemetry.New()
	replayReport, _, rt := replayCrawl(b, MissFail, func(c *openwpm.CrawlConfig) {
		c.Telemetry = telReplay
	})
	if rt.Misses != 0 {
		t.Fatalf("identity replay had %d misses", rt.Misses)
	}
	if replayReport.Metrics == nil {
		t.Fatal("instrumented replay produced no metrics snapshot")
	}

	live, replay := traceBytes(t, telLive), traceBytes(t, telReplay)
	if len(live) == 0 {
		t.Fatal("live run recorded no span events")
	}
	if !bytes.Equal(live, replay) {
		t.Fatalf("span traces diverged between record and replay (%d vs %d bytes)", len(live), len(replay))
	}

	// The transport-fault stream replays with the bundle, so the injector-
	// side series are the only expected difference: the live injector counts
	// faults_injected_total, the replay has no injector. Everything the
	// crawler itself observed must match exactly.
	for _, key := range liveReport.Metrics.Diff(replayReport.Metrics) {
		if !bytes.HasPrefix([]byte(key), []byte("counter:faults_injected_total")) {
			t.Fatalf("record and replay disagree on %s (full diff: %v)",
				key, liveReport.Metrics.Diff(replayReport.Metrics))
		}
	}

	// Per-visit extraction: the first visit span's subtree, rebuilt by the
	// trace package, must be present and identical on both sides.
	var visitSpan int64
	for _, ev := range telLive.Spans.Events() {
		if ev.Kind == "B" && ev.Name == "visit" {
			visitSpan = ev.Span
			break
		}
	}
	if visitSpan == 0 {
		t.Fatal("no visit span recorded")
	}
	liveVisit := trace.Build(telLive.Spans.Events()).ByID[visitSpan]
	replayVisit := trace.Build(telReplay.Spans.Events()).ByID[visitSpan]
	if liveVisit == nil || replayVisit == nil {
		t.Fatal("visit span missing from a rebuilt span tree")
	}
	if !reflect.DeepEqual(liveVisit, replayVisit) {
		t.Fatal("per-visit span trees diverged between record and replay")
	}
}

// Telemetry-free bundles must serialise without any metrics field, so
// archives recorded before the telemetry layer existed stay byte-stable.
func TestBundleWithoutTelemetryOmitsMetrics(t *testing.T) {
	cfg, urls := testConfig(29, 4)
	b, _, _, err := recordCrawl(cfg, urls, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Contains(data, []byte(`"Metrics"`)) {
		t.Fatal("uninstrumented bundle serialised a Metrics field")
	}
}
