package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"gullible/internal/faults"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// instrumentedScan runs one seeded faulty scan with a fresh world and a fresh
// registry and returns the canonical-JSON snapshot bytes.
func instrumentedScan(t *testing.T) ([]byte, *ScanResult) {
	t.Helper()
	profile := faults.DefaultProfile()
	world := websim.New(websim.Options{Seed: 7, NumSites: 60})
	tel := telemetry.New()
	r, err := RunScanObserved(world, 60, ScanOptions{
		MaxSubpages:     3,
		FaultProfile:    &profile,
		FaultSeed:       3,
		MaxVisitSeconds: 30,
		Telemetry:       tel,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics == nil {
		t.Fatal("instrumented scan returned no metrics snapshot")
	}
	data, err := r.Metrics.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, r
}

// Two identical seeded scans must serialise to byte-identical snapshots even
// though the crawl is sharded across parallel workers: all series are atomic
// and order-independent, and the snapshot is taken once at the end.
func TestScanTelemetryDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic-web crawl; skipped in -short mode (verify.sh races the whole repo short, the long tier runs it in full)")
	}
	a, ra := instrumentedScan(t)
	b, _ := instrumentedScan(t)
	if !bytes.Equal(a, b) {
		if diff := ra.Metrics.Diff(mustSnapshot(t, b)); diff != nil {
			t.Fatalf("snapshots diverged between identical runs; differing series: %v", diff)
		}
		t.Fatalf("snapshots diverged between identical runs:\n%s\n---\n%s", a, b)
	}

	// The snapshot must agree with the crawl report's own accounting.
	rep := ra.Report
	sites := ra.Metrics.Total("crawl_sites_total")
	if sites != int64(rep.Sites) {
		t.Fatalf("crawl_sites_total = %d, report says %d", sites, rep.Sites)
	}
	if got := ra.Metrics.Counters["crawl_sites_total{outcome=completed}"]; got != int64(rep.Completed) {
		t.Fatalf("completed counter = %d, report says %d", got, rep.Completed)
	}
	if got := ra.Metrics.Total("crawl_restarts_total"); got != int64(rep.Restarts) {
		t.Fatalf("restart counter = %d, report says %d", got, rep.Restarts)
	}
	if got := ra.Metrics.Total("storage_drops_total"); got != int64(rep.DroppedWrites) {
		t.Fatalf("storage-drop counter = %d, report says %d", got, rep.DroppedWrites)
	}
	if got := ra.Metrics.Gauges["crawl_progress_done"]; got != int64(rep.Sites) {
		t.Fatalf("crawl_progress_done = %d, want %d", got, rep.Sites)
	}
	if ra.Metrics.Total("faults_injected_total") == 0 {
		t.Fatal("faulty scan recorded no injected faults")
	}
}

func mustSnapshot(t *testing.T, data []byte) *telemetry.Snapshot {
	t.Helper()
	// round-trip through the canonical encoding
	var s telemetry.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// Telemetry-free scans must behave exactly as before: no snapshot attached.
func TestScanWithoutTelemetryHasNoMetrics(t *testing.T) {
	world := websim.New(websim.Options{Seed: 7, NumSites: 30})
	r, err := RunScanObserved(world, 30, ScanOptions{MaxSubpages: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics != nil || r.Report.Metrics != nil {
		t.Fatal("uninstrumented scan attached a metrics snapshot")
	}
}

// RunReliability with telemetry gives each pipeline its own registry, so the
// vanilla and hardened metrics must differ (the hardened run restarts and
// salvages) while each report carries its own snapshot and span trace.
func TestReliabilityTelemetryPerRun(t *testing.T) {
	r := RunReliability(11, 2, ReliabilityOptions{NumSites: 40, Telemetry: true})
	if r.Vanilla.Metrics == nil || r.Hardened.Metrics == nil {
		t.Fatal("reliability runs missing metrics snapshots")
	}
	if len(r.VanillaTrace) == 0 || len(r.HardenedTrace) == 0 {
		t.Fatal("reliability runs missing span traces")
	}
	if diff := r.Vanilla.Metrics.Diff(r.Hardened.Metrics); len(diff) == 0 {
		t.Fatal("vanilla and hardened pipelines produced identical metrics under faults")
	}
}

// The HTTP series count what the browser sees: exchanges per resource type,
// transport errors, and the body bytes and server delay of every response,
// including one the visit watchdog gives up on. A small faulted scan pins
// each value, so moving where they are counted cannot change them.
func TestScanHTTPSeriesPinned(t *testing.T) {
	profile := faults.DefaultProfile()
	world := websim.New(websim.Options{Seed: 7, NumSites: 20})
	tel := telemetry.New()
	r, err := RunScanObserved(world, 20, ScanOptions{
		MaxSubpages:     1,
		FaultProfile:    &profile,
		FaultSeed:       3,
		MaxVisitSeconds: 30,
		Telemetry:       tel,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for k, v := range r.Metrics.Counters {
		if strings.HasPrefix(k, "http_") {
			got[k] = v
		}
	}
	want := map[string]int64{
		"http_body_bytes_total":                     152978,
		"http_errors_total":                         30,
		"http_exchanges_total{type=beacon}":         106,
		"http_exchanges_total{type=csp_report}":     0,
		"http_exchanges_total{type=font}":           25,
		"http_exchanges_total{type=imageset}":       14,
		"http_exchanges_total{type=image}":          282,
		"http_exchanges_total{type=main_frame}":     54,
		"http_exchanges_total{type=media}":          4,
		"http_exchanges_total{type=object}":         0,
		"http_exchanges_total{type=other}":          0,
		"http_exchanges_total{type=script}":         268,
		"http_exchanges_total{type=stylesheet}":     49,
		"http_exchanges_total{type=sub_frame}":      50,
		"http_exchanges_total{type=unknown}":        0,
		"http_exchanges_total{type=websocket}":      0,
		"http_exchanges_total{type=xmlhttprequest}": 95,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("http counters = %v, want %v", got, want)
	}
	// every delay is a 45 s tarpit, past the 30 s visit budget: each of these
	// responses is one the watchdog abandons after counting it
	wantDelay := telemetry.HistogramSnapshot{
		Bounds:    telemetry.SecondsBuckets,
		Counts:    []int64{0, 0, 0, 0, 0, 17, 0, 0, 0, 0},
		Count:     17,
		SumMicros: 765000000,
	}
	if d := r.Metrics.Histograms["http_delay_seconds"]; !reflect.DeepEqual(d, wantDelay) {
		t.Errorf("http_delay_seconds = %+v, want %+v", d, wantDelay)
	}
}
