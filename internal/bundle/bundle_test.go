package bundle

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/websim"
)

// testConfig is a small instrumented crawl against a fresh synthetic world.
func testConfig(seed int64, numSites int) (openwpm.CrawlConfig, []string) {
	world := websim.New(websim.Options{Seed: seed, NumSites: numSites, AvailabilityAttacks: true})
	cfg := openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "bundle-test-client",
		DwellSeconds: 5,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HoneyProps:  2,
		MaxSubpages: 2,
	}
	return cfg, websim.Tranco(numSites)
}

// faultedConfig layers a seeded fault injector over the world.
func faultedConfig(seed, faultSeed int64, numSites int) (openwpm.CrawlConfig, []string) {
	cfg, urls := testConfig(seed, numSites)
	world := cfg.Transport.(*websim.World)
	inj := faults.NewInjector(faultSeed, faults.DefaultProfile(), world)
	inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
	cfg.Transport = inj
	cfg = cfg.Hardened()
	return cfg, urls
}

// recordCrawl crawls sites on one TaskManager under a fresh recorder and
// seals the bundle: the shape of one sched.Run shard, without the scheduler
// (which imports this package).
func recordCrawl(cfg openwpm.CrawlConfig, sites []string, meta map[string]string) (*Bundle, *openwpm.CrawlReport, *openwpm.TaskManager, error) {
	rec := NewRecorder(meta)
	cfg.Recorder = rec
	tm := openwpm.NewTaskManager(cfg)
	report := tm.CrawlFromHooked(sites, &openwpm.Checkpoint{}, openwpm.CrawlHooks{})
	b, err := Finalize([]*Recorder{rec}, tm.Cfg, sites, tm.Storage.Crashes, report)
	return b, report, tm, err
}

// replayCrawl replays b on one TaskManager, mutate adjusting the rebuilt
// configuration first.
func replayCrawl(b *Bundle, policy MissPolicy, mutate func(*openwpm.CrawlConfig)) (*openwpm.CrawlReport, *openwpm.TaskManager, *ReplayTransport) {
	cfg := b.Config.CrawlConfig()
	rt := NewReplayTransport(b, policy, nil)
	cfg.Transport = rt
	if mutate != nil {
		mutate(&cfg)
	}
	tm := openwpm.NewTaskManager(cfg)
	return tm.CrawlFromHooked(b.Sites, &openwpm.Checkpoint{}, openwpm.CrawlHooks{}), tm, rt
}

// recordReplay replays b under identical configuration, recording the replay
// into a second bundle for comparison.
func recordReplay(t *testing.T, b *Bundle) (*Bundle, *openwpm.CrawlReport, *openwpm.TaskManager) {
	t.Helper()
	rec := NewRecorder(b.Manifest.Meta)
	rep, tm, rt := replayCrawl(b, MissFail, func(cfg *openwpm.CrawlConfig) { cfg.Recorder = rec })
	if rt.Misses != 0 {
		t.Fatalf("identity replay had %d transport misses (want 0)", rt.Misses)
	}
	b2, err := Finalize([]*Recorder{rec}, tm.Cfg, b.Sites, tm.Storage.Crashes, rep)
	if err != nil {
		t.Fatalf("finalize replay bundle: %v", err)
	}
	return b2, rep, tm
}

func TestBundleGoldenDeterminism(t *testing.T) {
	// same seed + same site list ⇒ byte-identical bundle and digest
	record := func() ([]byte, string, string) {
		cfg, urls := testConfig(11, 6)
		b, _, tm, err := recordCrawl(cfg, urls, map[string]string{"seed": "11"})
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		data, err := b.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data, b.Digest, tm.Storage.Digest()
	}
	d1, dig1, sd1 := record()
	d2, dig2, sd2 := record()
	if !bytes.Equal(d1, d2) {
		t.Fatalf("two identical recordings produced different bytes (%d vs %d)", len(d1), len(d2))
	}
	if dig1 != dig2 {
		t.Fatalf("bundle digests differ: %s vs %s", dig1, dig2)
	}
	if sd1 != sd2 {
		t.Fatalf("storage digests differ: %s vs %s", sd1, sd2)
	}
	if dig1 == "" {
		t.Fatal("sealed bundle has empty digest")
	}
}

func TestBundleFileRoundTripAndVerify(t *testing.T) {
	cfg, urls := testConfig(7, 4)
	b, _, _, err := recordCrawl(cfg, urls, map[string]string{"scenario": "verify"})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	path := filepath.Join(t.TempDir(), "crawl.bundle.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Digest != b.Digest {
		t.Fatalf("digest changed across file round trip: %s vs %s", got.Digest, b.Digest)
	}
	if d := Diff(b, got); !d.Empty() {
		t.Fatalf("file round trip changed bundle content:\n%s", d)
	}

	// tampering with archived content must fail verification
	data, _ := os.ReadFile(path)
	tampered := bytes.Replace(data, []byte("navigator"), []byte("navigatox"), 1)
	if bytes.Equal(tampered, data) {
		t.Skip("no tamperable token in bundle")
	}
	bad := filepath.Join(t.TempDir(), "tampered.bundle.json")
	os.WriteFile(bad, tampered, 0o644)
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("tampered bundle passed verification")
	}

	// malformed storage drops must not verify: a drop's N runs from 1 to
	// its visit's write count for the table, on a page the visit requested
	// as a main frame
	v := b.Visits[0]
	writes := v.StorageWrites["http_requests"]
	if writes < 1 || v.StorageWrites["javascript_tamper"] != 0 {
		t.Fatalf("first visit wrote %v; the drop cases need http_requests and no javascript_tamper writes", v.StorageWrites)
	}
	page := v.Record.SiteURL
	withDrops := func(drops ...StorageDrop) *Bundle {
		c := *b
		c.Visits = append([]Visit(nil), b.Visits...)
		c.Visits[0].StorageDrops = drops
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	for _, d := range []StorageDrop{
		{Page: page, Table: "http_requests", N: 0},
		{Page: page, Table: "http_requests", N: writes + 1},
		{Page: page, Table: "javascript_tamper", N: 1},
		{Page: "https://never-requested.example/", Table: "http_requests", N: 1},
		{Page: b.Visits[1].Record.SiteURL, Table: "http_requests", N: 1},
	} {
		if err := withDrops(d).Verify(); err == nil {
			t.Fatalf("storage drop %+v passed verification", d)
		}
	}
	first, last := StorageDrop{Page: page, Table: "http_requests", N: 1}, StorageDrop{Page: page, Table: "http_requests", N: writes}
	if err := withDrops(first, last).Verify(); err != nil {
		t.Fatalf("drops of the first and last write fail verification: %v", err)
	}

	// an unsealed bundle must not verify
	unsealed := *b
	unsealed.Digest = ""
	if err := unsealed.Verify(); err == nil {
		t.Fatal("unsealed bundle passed verification")
	}
}

func TestRecordReplayIdentity(t *testing.T) {
	cfg, urls := testConfig(23, 6)
	b, rep, tm, err := recordCrawl(cfg, urls, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	b2, rep2, tm2 := recordReplay(t, b)

	if rep.String() != rep2.String() {
		t.Fatalf("replayed crawl report differs:\n--- recorded\n%s--- replayed\n%s", rep, rep2)
	}
	if d1, d2 := tm.Storage.Digest(), tm2.Storage.Digest(); d1 != d2 {
		t.Fatalf("replayed storage digest differs: %s vs %s", d1, d2)
	}
	if d := Diff(b, b2); !d.Empty() {
		t.Fatalf("replay bundle differs from recording:\n%s", d)
	}
}

func TestRecordReplayIdentityUnderFaults(t *testing.T) {
	cfg, urls := faultedConfig(41, 97, 8)
	b, rep, tm, err := recordCrawl(cfg, urls, map[string]string{"faults": "default"})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if rep.Failed+rep.Salvaged+rep.Restarts == 0 {
		t.Fatalf("fault profile injected nothing; pick different seeds (report: %s)", rep)
	}
	b2, rep2, tm2 := recordReplay(t, b)

	if rep.String() != rep2.String() {
		t.Fatalf("faulted replay report differs:\n--- recorded\n%s--- replayed\n%s", rep, rep2)
	}
	if d1, d2 := tm.Storage.Digest(), tm2.Storage.Digest(); d1 != d2 {
		t.Fatalf("faulted replay storage digest differs: %s vs %s", d1, d2)
	}
	if tm.Storage.DroppedTotal() != tm2.Storage.DroppedTotal() {
		t.Fatalf("dropped writes differ: %d vs %d", tm.Storage.DroppedTotal(), tm2.Storage.DroppedTotal())
	}
	if d := Diff(b, b2); !d.Empty() {
		t.Fatalf("faulted replay bundle differs from recording:\n%s", d)
	}
}

func TestReplayMissPolicies(t *testing.T) {
	cfg, urls := testConfig(5, 3)
	b, _, _, err := recordCrawl(cfg, urls, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	unrecorded := &httpsim.Request{Method: "GET", URL: "https://never-crawled.example/x", Type: httpsim.TypeScript}

	rt := NewReplayTransport(b, MissFail, nil)
	if _, err := rt.RoundTrip(unrecorded); err == nil {
		t.Fatal("MissFail served an unrecorded request")
	} else if faults.Classify(err) != faults.ClassPermanent {
		t.Fatalf("MissFail error class = %v, want permanent", faults.Classify(err))
	}

	rt = NewReplayTransport(b, MissSynthesize404, nil)
	resp, err := rt.RoundTrip(unrecorded)
	if err != nil || resp.Status != 404 {
		t.Fatalf("MissSynthesize404 = (%v, %v), want empty 404", resp, err)
	}

	served := false
	fallback := httpsim.RoundTripperFunc(func(*httpsim.Request) (*httpsim.Response, error) {
		served = true
		return &httpsim.Response{Status: 200, Body: "live"}, nil
	})
	rt = NewReplayTransport(b, MissPassthrough, fallback)
	resp, err = rt.RoundTrip(unrecorded)
	if err != nil || !served || resp.Body != "live" {
		t.Fatalf("MissPassthrough did not forward to fallback (resp=%v err=%v served=%t)", resp, err, served)
	}
	if rt.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", rt.Misses)
	}

	// recorded requests still hit
	first := b.Visits[0].Exchanges[0]
	req := &httpsim.Request{Method: first.Method, URL: first.URL, TopURL: first.TopURL}
	if _, err := rt.RoundTrip(req); err != nil {
		t.Fatalf("recorded request missed: %v", err)
	}
	if rt.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", rt.Hits)
	}
}

func TestParseMissPolicy(t *testing.T) {
	for name, want := range map[string]MissPolicy{
		"fail": MissFail, "passthrough": MissPassthrough,
		"synthesize-404": MissSynthesize404, "404": MissSynthesize404,
	} {
		got, err := ParseMissPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseMissPolicy(%q) = (%v, %v), want %v", name, got, err, want)
		}
	}
	if _, err := ParseMissPolicy("bogus"); err == nil {
		t.Fatal("ParseMissPolicy accepted bogus policy")
	}
}

func TestDiffFlagsVariantDivergence(t *testing.T) {
	cfg, urls := testConfig(31, 5)
	b, _, _, err := recordCrawl(cfg, urls, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	// replay with the JS instrument's honey properties removed: property
	// iterators stop touching bait symbols, so JS-call tallies must diverge
	rec := NewRecorder(nil)
	rep, tm, _ := replayCrawl(b, MissSynthesize404, func(c *openwpm.CrawlConfig) {
		c.HoneyProps = 0
		c.Recorder = rec
	})
	b2, err := Finalize([]*Recorder{rec}, tm.Cfg, b.Sites, tm.Storage.Crashes, rep)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	d := Diff(b, b2)
	if d.Empty() {
		t.Fatal("variant replay produced an empty diff")
	}
	if len(d.ConfigChanges) == 0 {
		t.Fatalf("diff did not surface the config change:\n%s", d)
	}
	if d.String() == "" || d.String() == "bundles identical\n" {
		t.Fatalf("diff rendering broken:\n%q", d.String())
	}
}
