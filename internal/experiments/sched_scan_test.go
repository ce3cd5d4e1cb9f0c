package experiments

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"gullible/internal/bundle"
	"gullible/internal/faults"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// TestScanAlwaysReportsCompletion: the old progress loop only fired on
// n%1000 == 0, so any scan whose size wasn't a multiple of 1000 never
// reported completion. Every scan must end with exactly one (total, total)
// event.
func TestScanAlwaysReportsCompletion(t *testing.T) {
	const n = 30
	world := websim.New(websim.Options{Seed: 7, NumSites: n})
	var mu sync.Mutex
	var events [][2]int
	_, err := RunScanObserved(world, n, ScanOptions{MaxSubpages: 1, Workers: 2}, func(done, total int) {
		mu.Lock()
		events = append(events, [2]int{done, total})
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("RunScanObserved: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("scan reported no progress at all")
	}
	finals := 0
	for _, ev := range events {
		if ev == [2]int{n, n} {
			finals++
		}
	}
	if finals != 1 {
		t.Fatalf("scan reported completion %d times in %v, want exactly once", finals, events)
	}
	if events[len(events)-1] != [2]int{n, n} {
		t.Fatalf("last progress event is %v, want (%d, %d)", events[len(events)-1], n, n)
	}
}

// TestScanWorkersClampToSites: requesting more workers than sites must clamp
// to the site count, not collapse to a single worker.
func TestScanWorkersClampToSites(t *testing.T) {
	world := websim.New(websim.Options{Seed: 7, NumSites: 5})
	r, err := RunScanObserved(world, 5, ScanOptions{MaxSubpages: 1, Workers: 8}, nil)
	if err != nil {
		t.Fatalf("RunScanObserved: %v", err)
	}
	if r.Workers != 5 {
		t.Fatalf("scan of 5 sites with 8 requested workers used %d, want 5", r.Workers)
	}
}

// TestShardedRecordReplayMatchesSerial: recording with four workers yields a
// merged archive whose storage digest matches the serial run's, and replaying
// that archive — serially or resharded — reproduces the same JS tallies and
// digest byte for byte.
func TestShardedRecordReplayMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic-web crawl; skipped in -short mode (verify.sh races the whole repo short, the long tier runs it in full)")
	}
	const n = 40
	meta := map[string]string{"scenario": "sched-scan"}
	scan := func(opts ScanOptions) *ScanResult {
		world := websim.New(websim.Options{Seed: 13, NumSites: n})
		r, err := RunScanObserved(world, n, opts, nil)
		if err != nil {
			t.Fatalf("RunScanObserved(workers=%d): %v", opts.Workers, err)
		}
		return r
	}

	serial := scan(ScanOptions{MaxSubpages: 1, Workers: 1, RecordBundle: true, BundleMeta: meta})
	digest := serial.Storage.Digest()
	jsCalls := len(serial.Storage.JSCalls)

	sharded := scan(ScanOptions{MaxSubpages: 1, Workers: 4, RecordBundle: true, BundleMeta: meta})
	if sharded.Workers != 4 {
		t.Fatalf("sharded scan used %d workers, want 4", sharded.Workers)
	}
	if got := sharded.Storage.Digest(); got != digest {
		t.Fatalf("sharded storage digest %s differs from serial %s", got, digest)
	}
	if serial.Report.String() != sharded.Report.String() {
		t.Fatalf("sharded report diverges from serial:\nserial:\n%s\nsharded:\n%s",
			serial.Report, sharded.Report)
	}
	if serial.Bundle.Digest != sharded.Bundle.Digest {
		t.Fatalf("merged bundle digest %s differs from serial recording %s",
			sharded.Bundle.Digest, serial.Bundle.Digest)
	}
	if err := sharded.Bundle.Verify(); err != nil {
		t.Fatalf("merged bundle fails verification: %v", err)
	}

	// serial replay of the 4-worker merged archive
	one, _, misses, err := Replay(sharded.Bundle, bundle.MissFail, nil, sched.Crawl{})
	if err != nil {
		t.Fatalf("serial replay: %v", err)
	}
	if misses != 0 {
		t.Fatalf("serial replay of merged bundle missed %d requests", misses)
	}
	if got := one.Storage.Digest(); got != digest {
		t.Fatalf("serial replay digest %s differs from recording %s", got, digest)
	}
	if got := len(one.Storage.JSCalls); got != jsCalls {
		t.Fatalf("serial replay recorded %d JS calls, recording had %d", got, jsCalls)
	}

	// resharded replay: 3 workers over a bundle recorded at 4
	world := websim.New(websim.Options{Seed: 13, NumSites: n})
	replayed, err := RunScanObserved(world, n, ScanOptions{
		MaxSubpages: 1, Workers: 3,
		ReplayBundle: sharded.Bundle, MissPolicy: bundle.MissFail,
	}, nil)
	if err != nil {
		t.Fatalf("resharded replay: %v", err)
	}
	if got := replayed.Storage.Digest(); got != digest {
		t.Fatalf("resharded replay digest %s differs from recording %s", got, digest)
	}
	if got := len(replayed.Storage.JSCalls); got != jsCalls {
		t.Fatalf("resharded replay recorded %d JS calls, recording had %d", got, jsCalls)
	}
}

// TestShardedReplayLocalisesStorageDrops: each archived visit lists its
// dropped writes by page position, so a replay at any worker count — serial,
// or sharded differently from the recording — drops exactly the writes the
// recording dropped.
func TestShardedReplayLocalisesStorageDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic-web crawl; skipped in -short mode (verify.sh races the whole repo short, the long tier runs it in full)")
	}
	const n = 30
	profile := faults.Profile{StoragePerMille: 150}
	world := websim.New(websim.Options{Seed: 21, NumSites: n})
	rec, err := RunScanObserved(world, n, ScanOptions{
		MaxSubpages: 1, Workers: 2,
		FaultProfile: &profile, FaultSeed: 9,
		RecordBundle: true, BundleMeta: map[string]string{"scenario": "storage-faults"},
	}, nil)
	if err != nil {
		t.Fatalf("recording scan: %v", err)
	}
	if rec.Report.DroppedWrites == 0 {
		t.Fatal("storage-fault profile injected no drops — test exercises nothing")
	}
	digest := rec.Storage.Digest()

	// serial replay reproduces the drops at their page positions
	one, _, _, err := Replay(rec.Bundle, bundle.MissFail, nil, sched.Crawl{})
	if err != nil {
		t.Fatalf("serial replay: %v", err)
	}
	if got := one.Storage.Digest(); got != digest {
		t.Fatalf("serial replay digest %s differs from faulted recording %s", got, digest)
	}

	// sharded replay at a worker count different from the recording's
	world2 := websim.New(websim.Options{Seed: 21, NumSites: n})
	replayed, err := RunScanObserved(world2, n, ScanOptions{
		MaxSubpages: 1, Workers: 3,
		ReplayBundle: rec.Bundle, MissPolicy: bundle.MissFail,
	}, nil)
	if err != nil {
		t.Fatalf("sharded replay: %v", err)
	}
	if got := replayed.Storage.Digest(); got != digest {
		t.Fatalf("sharded replay digest %s differs from faulted recording %s", got, digest)
	}
	if got := replayed.Report.DroppedWrites; got != rec.Report.DroppedWrites {
		t.Fatalf("sharded replay dropped %d writes, recording dropped %d", got, rec.Report.DroppedWrites)
	}
}

// widthArtifacts is what one crawl leaves behind, compared across widths.
type widthArtifacts struct {
	storage, report, bundle string
	trace                   []byte
	dropped                 int
}

func artifactsOf(t *testing.T, st *openwpm.Storage, rep *openwpm.CrawlReport, b *bundle.Bundle, trace []telemetry.SpanEvent) widthArtifacts {
	t.Helper()
	if err := b.Verify(); err != nil {
		t.Fatalf("sealed bundle fails verification: %v", err)
	}
	tr, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	return widthArtifacts{st.Digest(), rep.String(), b.Digest, tr, rep.DroppedWrites}
}

// widthPasses are the crawls widthRun makes, in order: the recorded scan,
// its bundle replayed through the scan's own replay path, and Replay under
// the identical configuration ("none") and every VariantMutator variant.
var widthPasses = append([]string{"record", "scan-replay"}, replayGoldenVariants...)

// widthRun records a traced 20-site scan under profile p (nil: no faults)
// at the given width, then replays its bundle at the same width through
// every widthPasses path, re-recording each replay. Bundles leave the
// metrics snapshot out: each shard analyses its own first sighting of a
// script body, so the tamper counters depend on the width.
func widthRun(t *testing.T, p *faults.Profile, workers int) []widthArtifacts {
	t.Helper()
	const n = 20
	scan := func(opts ScanOptions) *ScanResult {
		opts.MaxSubpages, opts.Workers, opts.RecordBundle = 1, workers, true
		opts.Telemetry, opts.DetachMetrics = telemetry.New(), true
		r, err := RunScanObserved(websim.New(websim.Options{Seed: 13, NumSites: n}), n, opts, nil)
		if err != nil {
			t.Fatalf("scan at %d workers: %v", workers, err)
		}
		if r.Workers != workers {
			t.Fatalf("scan ran %d workers, want %d", r.Workers, workers)
		}
		return r
	}
	rec := scan(ScanOptions{FaultProfile: p, FaultSeed: 9, BundleMeta: map[string]string{"scenario": "width"}})
	out := []widthArtifacts{artifactsOf(t, rec.Storage, rec.Report, rec.Bundle, rec.Trace)}
	sr := scan(ScanOptions{ReplayBundle: rec.Bundle, MissPolicy: bundle.MissFail})
	out = append(out, artifactsOf(t, sr.Storage, sr.Report, sr.Bundle, sr.Trace))
	for _, variant := range replayGoldenVariants {
		var mutate func(*openwpm.CrawlConfig)
		if variant != "none" {
			m, err := VariantMutator(variant)
			if err != nil {
				t.Fatal(err)
			}
			mutate = m
		}
		res, _, _, err := Replay(rec.Bundle, bundle.MissFail, mutate, sched.Crawl{
			Workers: workers, Record: true, BundleMeta: rec.Bundle.Manifest.Meta,
			Telemetry: telemetry.New(), DetachMetrics: true,
		})
		if err != nil {
			t.Fatalf("replay %s at %d workers: %v", variant, workers, err)
		}
		out = append(out, artifactsOf(t, res.Storage, res.Report, res.Bundle, res.Trace))
	}
	return out
}

// TestWidthIndependentArtifacts: a crawl's storage, report, bundle and trace
// bytes do not depend on the worker count, with faults off, default and
// heavy, for a recorded scan and for every way its bundle replays. Identity
// replays also reproduce the recording's storage, faulted drops included.
func TestWidthIndependentArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("54 synthetic-web crawls; skipped in -short mode (verify.sh races the whole repo short, the long tier runs it in full)")
	}
	for _, mode := range []string{"off", "default", "heavy"} {
		t.Run(mode, func(t *testing.T) {
			p, err := faults.ProfileNamed(mode)
			if err != nil {
				t.Fatal(err)
			}
			serial := widthRun(t, p, 1)
			rec := serial[0]
			if p != nil && rec.dropped == 0 {
				t.Fatal("faulted scan dropped no writes — the storage-fault check measures nothing")
			}
			for i, pass := range widthPasses[1:3] {
				if got := serial[1+i]; got.storage != rec.storage || got.dropped != rec.dropped {
					t.Errorf("%s: storage digest %s with %d drops, recording %s with %d", pass, got.storage, got.dropped, rec.storage, rec.dropped)
				}
			}
			for _, workers := range []int{2, 3} {
				for i, got := range widthRun(t, p, workers) {
					want := serial[i]
					if got.storage != want.storage || got.report != want.report || got.bundle != want.bundle {
						t.Errorf("%s at %d workers: storage %s, bundle %s, report\n%s\none worker: storage %s, bundle %s, report\n%s",
							widthPasses[i], workers, got.storage, got.bundle, got.report, want.storage, want.bundle, want.report)
					}
					if !bytes.Equal(got.trace, want.trace) {
						t.Errorf("%s at %d workers: trace differs from one worker's", widthPasses[i], workers)
					}
				}
			}
		})
	}
}

// TestReplayPassthroughServesMissesFromWorld: a passthrough replay over more
// sites than its bundle archived serves the missing sites from the scan's
// live world, so it accounts, requests and observes exactly what a live scan
// does. (Storage digests differ: tracker IDs the world mints depend on the
// requests it served before, and the archived sites never reached it.)
func TestReplayPassthroughServesMissesFromWorld(t *testing.T) {
	const archived, n = 4, 8
	scan := func(opts ScanOptions) *ScanResult {
		opts.MaxSubpages = 1
		r, err := RunScanObserved(websim.New(websim.Options{Seed: 17, NumSites: n}), n, opts, nil)
		if err != nil {
			t.Fatalf("RunScanObserved: %v", err)
		}
		return r
	}
	rec := scan(ScanOptions{Sites: websim.Tranco(archived), Workers: 1, RecordBundle: true})
	live := scan(ScanOptions{Workers: 1})
	replayed := scan(ScanOptions{Workers: 2, ReplayBundle: rec.Bundle, MissPolicy: bundle.MissPassthrough})
	if replayed.Report.String() != live.Report.String() {
		t.Fatalf("passthrough replay report diverges from the live scan:\nreplay:\n%s\nlive:\n%s", replayed.Report, live.Report)
	}
	a, b := replayed.Storage, live.Storage
	if len(a.Requests) != len(b.Requests) || len(a.JSCalls) != len(b.JSCalls) || len(a.Cookies) != len(b.Cookies) {
		t.Fatalf("passthrough replay stored %d requests, %d JS calls, %d cookies; live scan %d, %d, %d",
			len(a.Requests), len(a.JSCalls), len(a.Cookies), len(b.Requests), len(b.JSCalls), len(b.Cookies))
	}
}
