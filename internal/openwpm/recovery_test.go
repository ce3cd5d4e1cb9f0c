package openwpm

import (
	"reflect"
	"testing"
	"testing/quick"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/websim"
)

// faultTransport wraps the canned web with scripted per-URL errors and
// per-URL response delays, so each recovery path can be exercised directly.
type faultTransport struct {
	inner *web
	errs  map[string]error   // URL → error returned on every request
	delay map[string]float64 // URL → DelaySeconds stamped on the response
}

func (f *faultTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	if err := f.errs[req.URL]; err != nil {
		return nil, err
	}
	resp, rerr := f.inner.RoundTrip(req)
	if resp != nil && f.delay[req.URL] > 0 {
		c := *resp
		c.DelaySeconds = f.delay[req.URL]
		resp = &c
	}
	return resp, rerr
}

func hardenedTM(t httpsim.RoundTripper, mut func(*CrawlConfig)) *TaskManager {
	cfg := CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport:    t,
		DwellSeconds: 1,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
	}.Hardened()
	cfg.BackoffBaseSeconds = 0 // keep virtual accounting easy to reason about
	if mut != nil {
		mut(&cfg)
	}
	return NewTaskManager(cfg)
}

// crawl runs a whole crawl from a fresh checkpoint.
func crawl(tm *TaskManager, urls []string) *CrawlReport {
	return tm.CrawlFromHooked(urls, &Checkpoint{}, CrawlHooks{})
}

func frontSite() map[string]*httpsim.Response {
	return map[string]*httpsim.Response{
		"https://a.com/": htmlPage(`<script src="/ok.js"></script>
			<script src="/boom.js"></script>
			<a href="/p1">p1</a><a href="/p2">p2</a><a href="/p3">p3</a>`, nil),
		"https://a.com/ok.js": {Status: 200, Headers: map[string]string{"Content-Type": "text/javascript"}, Body: "var ok = 1;"},
	}
}

func TestMalformedURLFailsFastAsPermanent(t *testing.T) {
	tm := hardenedTM(&web{pages: map[string]*httpsim.Response{}}, nil)
	for _, bad := range []string{"notaurl", "ftp://x.com/", "https:///nohost"} {
		sv, err := tm.VisitSite(bad)
		if err == nil {
			t.Fatalf("%q: want error", bad)
		}
		if faults.Classify(err) != faults.ClassPermanent {
			t.Fatalf("%q: class = %v, want permanent", bad, faults.Classify(err))
		}
		if sv.Restarts != 0 {
			t.Fatalf("%q: a malformed URL burned %d browser restarts", bad, sv.Restarts)
		}
	}
	if len(tm.Storage.Crashes) != 0 {
		t.Fatalf("malformed URLs must not write crash records, got %d", len(tm.Storage.Crashes))
	}
}

func TestNon200FrontPageFailsFast(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{}} // everything 404s
	tm := hardenedTM(w, nil)
	sv, err := tm.VisitSite("https://gone.com/")
	if err == nil {
		t.Fatal("want error")
	}
	if classifyError(err) != faults.ClassPermanent {
		t.Fatalf("class = %v, want permanent", classifyError(err))
	}
	if sv.Restarts != 0 || len(tm.Storage.Crashes) != 0 {
		t.Fatalf("permanent 404 must not trigger restarts: restarts=%d crashes=%d",
			sv.Restarts, len(tm.Storage.Crashes))
	}
	// exactly one attempt hit the network
	if got := len(w.log.URLs()); got != 1 {
		t.Fatalf("main document fetched %d times, want 1", got)
	}
	recs := tm.Storage.Visits
	if len(recs) != 1 || recs[0].OK || recs[0].ErrorClass != faults.ClassPermanent.String() {
		t.Fatalf("bad visit record: %+v", recs)
	}
}

func TestTransientFaultRecoversWithRestart(t *testing.T) {
	w := &web{pages: frontSite(), fail: map[string]int{"https://a.com/": 1}}
	tm := hardenedTM(w, nil)
	sv, err := tm.VisitSite("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", sv.Restarts)
	}
	cr := tm.Storage.Crashes
	if len(cr) != 1 || cr[0].Class != faults.ClassTransient.String() {
		t.Fatalf("crash records: %+v", cr)
	}
	if v := tm.Storage.Visits[0]; !v.OK || v.Restarts != 1 || v.Salvaged {
		t.Fatalf("visit record: %+v", v)
	}
}

func TestWatchdogSalvagesTarpittedSite(t *testing.T) {
	ft := &faultTransport{
		inner: &web{pages: frontSite()},
		delay: map[string]float64{"https://a.com/ok.js": 500}, // tarpit past any budget
	}
	tm := hardenedTM(ft, func(c *CrawlConfig) { c.MaxVisitSeconds = 60; c.MaxRetries = 1; c.MaxSubpages = 3 })
	rep := crawl(tm, []string{"https://a.com/"})

	if rep.Salvaged != 1 || rep.Completed != 0 || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !rep.Accounted() {
		t.Fatal("sites not fully accounted")
	}
	if rep.ErrorClasses[faults.ClassHang.String()] != 1 {
		t.Fatalf("error classes: %v", rep.ErrorClasses)
	}
	// both attempts hit the watchdog → both recorded as restarts
	if rep.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", rep.Restarts)
	}
	v := tm.Storage.Visits[0]
	if !v.Salvaged || v.OK || v.ErrorClass != faults.ClassHang.String() {
		t.Fatalf("visit record: %+v", v)
	}
	// salvage keeps the partial front page but does not descend into subpages
	for _, v := range tm.Storage.Visits {
		if v.Subpage {
			t.Fatalf("salvaged site must not visit subpages: %+v", v)
		}
	}
}

func TestCrashSalvageKeepsPartialRecords(t *testing.T) {
	ft := &faultTransport{
		inner: &web{pages: frontSite()},
		errs:  map[string]error{"https://a.com/boom.js": &faults.FaultError{Kind: faults.KindCrash, URL: "https://a.com/boom.js"}},
	}
	tm := hardenedTM(ft, func(c *CrawlConfig) { c.MaxRetries = 1 })
	rep := crawl(tm, []string{"https://a.com/"})
	if rep.Salvaged != 1 || !rep.Accounted() {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ErrorClasses[faults.ClassCrash.String()] != 1 {
		t.Fatalf("error classes: %v", rep.ErrorClasses)
	}
	// the pre-crash records survived: the main document and ok.js were seen
	seen := map[string]bool{}
	for _, r := range tm.Storage.Requests {
		seen[r.URL] = true
	}
	if !seen["https://a.com/"] || !seen["https://a.com/ok.js"] {
		t.Fatalf("partial request records lost: %v", seen)
	}
	for _, c := range tm.Storage.Crashes {
		if c.Class != faults.ClassCrash.String() {
			t.Fatalf("crash record class: %+v", c)
		}
	}
}

// dropRequests is a transport whose storage hook loses every http_requests
// write — the paper's "silent data loss" failure mode, made loud.
type dropRequests struct{ *web }

func (dropRequests) StorageFault(table string) bool { return table == "http_requests" }

func TestStorageFaultsCountedNotSilent(t *testing.T) {
	tm := hardenedTM(dropRequests{&web{pages: frontSite()}}, nil)
	rep := crawl(tm, []string{"https://a.com/"})
	if rep.Completed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if len(tm.Storage.Requests) != 0 {
		t.Fatalf("faulted table still has %d rows", len(tm.Storage.Requests))
	}
	if rep.DroppedWrites == 0 || tm.Storage.Dropped["http_requests"] != rep.DroppedWrites {
		t.Fatalf("drops not accounted: report=%d storage=%v", rep.DroppedWrites, tm.Storage.Dropped)
	}
	// visit accounting is exempt from storage faults by design
	if len(tm.Storage.Visits) == 0 {
		t.Fatal("visit table must survive storage faults")
	}
}

func TestCircuitBreakerSkipsRemainingSubpages(t *testing.T) {
	pages := frontSite() // links to /p1 /p2 /p3, none of which exist → 404
	tm := hardenedTM(&web{pages: pages}, func(c *CrawlConfig) {
		c.MaxSubpages = 3
		c.BreakerThreshold = 2
	})
	sv, err := tm.VisitSite("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if !sv.CircuitBroken {
		t.Fatal("breaker did not trip")
	}
	if sv.PageErrors != 2 {
		t.Fatalf("PageErrors = %d, want 2 (breaker at threshold)", sv.PageErrors)
	}
	rep := NewCrawlReport()
	rep.Absorb(sv, nil)
	if rep.CircuitBroken != 1 || rep.PageVisits != 3 { // front + 2 failed subpages
		t.Fatalf("report: %+v", rep)
	}
}

func TestCheckpointResumeMatchesOneShot(t *testing.T) {
	urls := []string{"https://a.com/", "https://gone.com/", "notaurl", "https://a.com/"}
	build := func() *TaskManager {
		return hardenedTM(&web{pages: frontSite()}, func(c *CrawlConfig) { c.MaxSubpages = 2 })
	}

	oneShot := crawl(build(), urls)

	tm := build()
	cp := &Checkpoint{}
	tm.CrawlFromHooked(urls[:2], cp, CrawlHooks{}) // interrupted after two sites
	if cp.Done != 2 {
		t.Fatalf("checkpoint Done = %d, want 2", cp.Done)
	}
	resumed := tm.CrawlFromHooked(urls, cp, CrawlHooks{})

	if !reflect.DeepEqual(oneShot, resumed) {
		t.Fatalf("resumed crawl diverged:\none-shot: %+v\nresumed:  %+v", oneShot, resumed)
	}
	if oneShot.String() != resumed.String() {
		t.Fatalf("reports render differently:\n%s\n%s", oneShot, resumed)
	}
}

func TestCrawlBudgetSkipsAreAccounted(t *testing.T) {
	ft := &faultTransport{
		inner: &web{pages: frontSite()},
		delay: map[string]float64{"https://a.com/": 100},
	}
	tm := hardenedTM(ft, func(c *CrawlConfig) { c.MaxCrawlSeconds = 150; c.MaxVisitSeconds = 0 })
	urls := []string{"https://a.com/", "https://a.com/", "https://a.com/", "https://a.com/"}
	rep := crawl(tm, urls)
	if !rep.Accounted() {
		t.Fatalf("unaccounted report: %+v", rep)
	}
	if rep.Skipped == 0 {
		t.Fatalf("budget exhaustion produced no skips: %+v", rep)
	}
	// skipped sites still get a visit record, never vanish
	if len(tm.Storage.Visits) < len(urls) {
		t.Fatalf("only %d visit records for %d input sites", len(tm.Storage.Visits), len(urls))
	}
	if rep.ErrorClasses["crawl-budget"] != rep.Skipped {
		t.Fatalf("error classes: %v", rep.ErrorClasses)
	}
}

// TestFaultRecoveryProperty: for any world seed, a hardened crawl under
// recoverable transient faults visits exactly the sites a fault-free crawl
// visits — faults change the road, not the destination.
func TestFaultRecoveryProperty(t *testing.T) {
	const n = 6
	urls := websim.Tranco(n)

	frontRecords := func(tm *TaskManager) map[string]bool {
		out := map[string]bool{}
		for _, v := range tm.Storage.Visits {
			if !v.Subpage {
				out[v.SiteURL] = true
			}
		}
		return out
	}

	prop := func(seed uint8) bool {
		worldSeed := int64(seed)
		run := func(faulted bool) (*CrawlReport, map[string]bool) {
			world := websim.New(websim.Options{Seed: worldSeed, NumSites: n})
			var transport httpsim.RoundTripper = world
			if faulted {
				transport = faults.NewInjector(worldSeed+1, faults.Profile{
					Buckets:               []faults.Bucket{{TransportPerMille: 300}},
					TransientRecoverAfter: 1,
				}, world)
			}
			tm := hardenedTM(transport, nil)
			return crawl(tm, urls), frontRecords(tm)
		}
		cleanRep, cleanSites := run(false)
		faultRep, faultSites := run(true)
		return cleanRep.Accounted() && faultRep.Accounted() &&
			cleanRep.Failed == 0 && faultRep.Failed == 0 &&
			len(cleanSites) == n && reflect.DeepEqual(cleanSites, faultSites)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestCrawlReportDeterministic: same fault seed, same world seed ⇒ the same
// CrawlReport, byte for byte.
func TestCrawlReportDeterministic(t *testing.T) {
	run := func() string {
		world := websim.New(websim.Options{Seed: 5, NumSites: 20})
		inj := faults.NewInjector(99, faults.HeavyProfile(), world)
		inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
		tm := hardenedTM(inj, func(c *CrawlConfig) { c.MaxSubpages = 2 })
		return crawl(tm, websim.Tranco(12)).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds produced different reports:\n%s\n%s", a, b)
	}
}
