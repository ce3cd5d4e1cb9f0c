package sched_test

import (
	"strings"
	"sync"
	"testing"

	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// crawlConfig is a small instrumented crawl over the synthetic web.
func crawlConfig(world *websim.World, tel *telemetry.Telemetry) func(sched.Shard) openwpm.CrawlConfig {
	return func(sched.Shard) openwpm.CrawlConfig {
		return openwpm.CrawlConfig{
			OS: jsdom.Ubuntu, Mode: jsdom.Regular,
			Transport: world, ClientID: "sched-test",
			DwellSeconds: 5,
			JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
			HTTPFilterJSOnly: true, HoneyProps: 2, MaxSubpages: 1,
			Telemetry: tel,
		}
	}
}

func TestPartitionProperties(t *testing.T) {
	for _, tc := range []struct{ sites, n int }{
		{0, 1}, {1, 1}, {5, 1}, {5, 2}, {5, 5}, {5, 8}, {17, 4}, {1000, 7},
	} {
		sites := websim.Tranco(tc.sites)
		shards := sched.Partition(sites, tc.n)
		var got []string
		min, max := 1<<31, 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Fatalf("shard %d has Index %d", i, sh.Index)
			}
			if sh.Start != len(got) {
				t.Fatalf("shard %d starts at %d, want %d (must be contiguous)", i, sh.Start, len(got))
			}
			got = append(got, sh.Sites...)
			if len(sh.Sites) < min {
				min = len(sh.Sites)
			}
			if len(sh.Sites) > max {
				max = len(sh.Sites)
			}
		}
		if len(got) != len(sites) {
			t.Fatalf("partition(%d,%d) covers %d sites", tc.sites, tc.n, len(got))
		}
		for i := range got {
			if got[i] != sites[i] {
				t.Fatalf("partition(%d,%d) reorders site %d", tc.sites, tc.n, i)
			}
		}
		if tc.sites > 0 && max-min > 1 {
			t.Fatalf("partition(%d,%d) shard sizes range %d..%d (want balanced)", tc.sites, tc.n, min, max)
		}
	}
}

func TestWorkersClampsToSitesNotOne(t *testing.T) {
	// the pre-scheduler scan collapsed to ONE worker whenever workers
	// exceeded sites; the clamp must keep all the parallelism the site
	// count allows
	if got := sched.Workers(8, 5); got != 5 {
		t.Fatalf("Workers(8, 5) = %d, want 5", got)
	}
	if got := sched.Workers(3, 100); got != 3 {
		t.Fatalf("Workers(3, 100) = %d, want 3", got)
	}
	if got := sched.Workers(3, 0); got != 1 {
		t.Fatalf("Workers(3, 0) = %d, want 1", got)
	}
	if got := sched.Workers(0, 4); got < 1 || got > 4 {
		t.Fatalf("Workers(0, 4) = %d, want within [1, 4]", got)
	}
}

// TestShardedMatchesSerial is the scheduler's determinism contract: the same
// crawl at 1 worker and at N workers must produce byte-identical merged
// storage digests, telemetry snapshots, crawl reports and sealed bundles.
func TestShardedMatchesSerial(t *testing.T) {
	const sites = 18
	run := func(workers int) *sched.Result {
		world := websim.New(websim.Options{Seed: 11, NumSites: sites})
		tel := telemetry.New()
		res, err := sched.Run(sched.Crawl{
			Sites:      websim.Tranco(sites),
			Workers:    workers,
			Config:     crawlConfig(world, tel),
			Record:     true,
			BundleMeta: map[string]string{"scenario": "sched-determinism"},
			Telemetry:  tel,
		})
		if err != nil {
			t.Fatalf("run with %d workers: %v", workers, err)
		}
		if res.Workers != workers {
			t.Fatalf("run requested %d workers, got %d", workers, res.Workers)
		}
		return res
	}
	serial := run(1)
	sharded := run(3)

	if a, b := serial.Storage.Digest(), sharded.Storage.Digest(); a != b {
		t.Fatalf("storage digest diverges: 1 worker %s, 3 workers %s", a, b)
	}
	if a, b := serial.Report.String(), sharded.Report.String(); a != b {
		t.Fatalf("crawl report diverges:\n1 worker:\n%s\n3 workers:\n%s", a, b)
	}
	sa, err := serial.Metrics.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sharded.Metrics.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) {
		t.Fatalf("telemetry snapshot diverges between 1 and 3 workers")
	}
	if serial.Bundle.Digest != sharded.Bundle.Digest {
		t.Fatalf("merged bundle digest diverges: 1 worker %s, 3 workers %s",
			serial.Bundle.Digest, sharded.Bundle.Digest)
	}
	if err := sharded.Bundle.Verify(); err != nil {
		t.Fatalf("merged bundle fails verification: %v", err)
	}
}

// TestTamperTelemetryCountsEachBodyOnce: every shard analyses its own first
// sighting of a script body, but the merged tamper table keeps one row per
// body, and the tamper series count exactly those rows — so the metrics, and
// a bundle that embeds them, are the same at any worker count.
func TestTamperTelemetryCountsEachBodyOnce(t *testing.T) {
	const sites = 12
	flagAll := func(string) (openwpm.TamperRecord, bool) {
		return openwpm.TamperRecord{Parsed: true, Findings: []openwpm.TamperFinding{{Rule: "any-body"}}}, true
	}
	run := func(workers int) *sched.Result {
		world := websim.New(websim.Options{Seed: 11, NumSites: sites})
		tel := telemetry.New()
		base := crawlConfig(world, tel)
		res, err := sched.Run(sched.Crawl{
			Sites:   websim.Tranco(sites),
			Workers: workers,
			Config: func(sh sched.Shard) openwpm.CrawlConfig {
				cfg := base(sh)
				cfg.Tamper = flagAll
				return cfg
			},
			Record:    true,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatalf("run with %d workers: %v", workers, err)
		}
		return res
	}
	serial, sharded := run(1), run(3)
	shardRows := 0
	for _, st := range sharded.Checkpoint.Shards {
		shardRows += len(st.Storage.Tampers)
	}
	rows := len(sharded.Storage.Tampers)
	if shardRows <= rows {
		t.Fatalf("shards stored %d tamper rows, merged %d: no body is shared across shards, the test measures nothing", shardRows, rows)
	}
	for _, key := range []string{"storage_writes_total{table=javascript_tamper}", "tamper_rule_hits_total{rule=any-body}"} {
		if got := sharded.Metrics.Counters[key]; got != int64(rows) {
			t.Errorf("%s = %d at 3 workers, want the merged table's %d rows", key, got, rows)
		}
	}
	if d := serial.Metrics.Diff(sharded.Metrics); len(d) > 0 {
		t.Errorf("metrics differ between 1 and 3 workers: %v", d)
	}
	if serial.Bundle.Digest != sharded.Bundle.Digest {
		t.Errorf("bundle with embedded metrics: 1 worker %s, 3 workers %s", serial.Bundle.Digest, sharded.Bundle.Digest)
	}
}

// TestKillAndResume interrupts a sharded crawl cooperatively, resumes it from
// the checkpoint, and requires the final merged output to be byte-identical
// to an uninterrupted run — with no site visited twice.
func TestKillAndResume(t *testing.T) {
	const sites = 16
	reference := func() *sched.Result {
		world := websim.New(websim.Options{Seed: 5, NumSites: sites})
		res, err := sched.Run(sched.Crawl{
			Sites:      websim.Tranco(sites),
			Workers:    2,
			Config:     crawlConfig(world, nil),
			Record:     true,
			BundleMeta: map[string]string{"scenario": "resume"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	world := websim.New(websim.Options{Seed: 5, NumSites: sites})
	stop := make(chan struct{})
	var once sync.Once
	crawl := sched.Crawl{
		Sites:         websim.Tranco(sites),
		Workers:       2,
		Config:        crawlConfig(world, nil),
		Record:        true,
		BundleMeta:    map[string]string{"scenario": "resume"},
		ProgressEvery: 1,
		Stop:          stop,
		OnProgress: func(done, total int) {
			if done >= 3 {
				once.Do(func() { close(stop) })
			}
		},
	}
	first, err := sched.Run(crawl)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted {
		t.Fatalf("crawl was not interrupted (done %d/%d)", first.Checkpoint.Done(), sites)
	}
	if first.Storage != nil || first.Bundle != nil {
		t.Fatalf("interrupted run must not produce merged outputs")
	}
	doneAtStop := first.Checkpoint.Done()
	if doneAtStop <= 0 || doneAtStop >= sites {
		t.Fatalf("interrupted checkpoint has %d/%d sites done", doneAtStop, sites)
	}

	crawl.Stop = nil
	crawl.OnProgress = nil
	crawl.ProgressEvery = 0
	crawl.Resume = first.Checkpoint
	resumed, err := sched.Run(crawl)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatalf("resumed run did not complete")
	}
	if got := resumed.Checkpoint.Done(); got != sites {
		t.Fatalf("resumed checkpoint has %d/%d sites done", got, sites)
	}
	if a, b := reference.Storage.Digest(), resumed.Storage.Digest(); a != b {
		t.Fatalf("resumed storage digest %s differs from uninterrupted %s", b, a)
	}
	if reference.Bundle.Digest != resumed.Bundle.Digest {
		t.Fatalf("resumed bundle digest differs from uninterrupted run")
	}
	if a, b := reference.Report.String(), resumed.Report.String(); a != b {
		t.Fatalf("resumed report diverges:\nuninterrupted:\n%s\nresumed:\n%s", a, b)
	}
	// no revisits: every site has exactly one front-page visit row
	front := map[string]int{}
	for _, v := range resumed.Storage.Visits {
		if !v.Subpage {
			front[v.Site]++
		}
	}
	for _, u := range websim.Tranco(sites) {
		if front[u] != 1 {
			t.Fatalf("site %s has %d front-page visit rows after resume, want exactly 1", u, front[u])
		}
	}
}

func TestResumeValidatesShape(t *testing.T) {
	const sites = 6
	world := websim.New(websim.Options{Seed: 3, NumSites: sites})
	crawl := sched.Crawl{
		Sites:   websim.Tranco(sites),
		Workers: 2,
		Config:  crawlConfig(world, nil),
	}
	res, err := sched.Run(crawl)
	if err != nil {
		t.Fatal(err)
	}
	crawl.Workers = 3
	crawl.Resume = res.Checkpoint
	if _, err := sched.Run(crawl); err == nil || !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("resuming with a different worker count must fail, got %v", err)
	}
	crawl.Workers = 2
	crawl.Sites = websim.Tranco(sites + 1)
	if _, err := sched.Run(crawl); err == nil {
		t.Fatalf("resuming with a different site list must fail")
	}
}

func TestFinalProgressEventAlwaysFires(t *testing.T) {
	// 7 sites with the default 1000-site granularity: no intermediate tick
	// is due, but completion must still be reported exactly once
	const sites = 7
	world := websim.New(websim.Options{Seed: 9, NumSites: sites})
	var mu sync.Mutex
	var events [][2]int
	_, err := sched.Run(sched.Crawl{
		Sites:   websim.Tranco(sites),
		Workers: 2,
		Config:  crawlConfig(world, nil),
		OnProgress: func(done, total int) {
			mu.Lock()
			events = append(events, [2]int{done, total})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d progress events, want exactly the final one", len(events))
	}
	if events[0] != [2]int{sites, sites} {
		t.Fatalf("final progress event is %v, want (%d, %d)", events[0], sites, sites)
	}
}

func TestEmptyCrawl(t *testing.T) {
	res, err := sched.Run(sched.Crawl{
		Sites:  nil,
		Config: crawlConfig(websim.New(websim.Options{Seed: 1, NumSites: 1}), nil),
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.Report.Sites != 0 || res.Bundle == nil {
		t.Fatalf("empty crawl should complete with an empty sealed bundle")
	}
	if err := res.Bundle.Verify(); err != nil {
		t.Fatalf("empty bundle fails verification: %v", err)
	}
}
