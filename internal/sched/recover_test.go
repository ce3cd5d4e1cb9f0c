package sched_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// truncateTail models a process killed mid-write: the shard log's final bytes
// — everything after frac of its total size — vanish, possibly mid-frame.
func truncateTail(t *testing.T, fs *wal.MemFS, frac float64) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		total += fs.Size(n)
	}
	cut := int64(float64(total) * frac)
	var cum int64
	cutting := false
	for _, n := range names {
		size := fs.Size(n)
		if cutting {
			if err := fs.Remove(n); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if cut <= cum+size {
			if err := fs.Truncate(n, cut-cum); err != nil {
				t.Fatal(err)
			}
			cutting = true
		}
		cum += size
	}
}

// crashConfig is crawlConfig behind a crash-heavy fault injector (six times
// the default crash rates, no storage drops) under the hardened pipeline.
// Each call builds a fresh injector, so every shard of every run gets its own.
func crashConfig(world *websim.World) func(sched.Shard) openwpm.CrawlConfig {
	base := crawlConfig(world, nil)
	return func(sh sched.Shard) openwpm.CrawlConfig {
		p := faults.DefaultProfile()
		p.StoragePerMille = 0
		for i := range p.Buckets {
			p.Buckets[i].CrashPerMille *= 6
		}
		cfg := base(sh)
		inj := faults.NewInjector(7, p, world)
		inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
		cfg.Transport = inj
		return cfg.Hardened()
	}
}

// TestKillAndRecoverFromWAL is the tentpole acceptance test: a recorded crawl
// with WAL backends is interrupted, the in-process checkpoint is thrown away
// entirely (a cooperative stop halts the goroutines; discarding every live
// object and truncating the logs at an arbitrary byte models the kill), the
// crawl is rebuilt from the on-disk WALs alone, and the resumed run's merged
// storage digest, crawl report and sealed bundle must be byte-identical to an
// uninterrupted run — at more than one worker count. The crash-heavy input
// checks that the bundle's crash table survives recovery too.
func TestKillAndRecoverFromWAL(t *testing.T) {
	const sites = 12
	for _, in := range []struct {
		prefix  string
		config  func(*websim.World) func(sched.Shard) openwpm.CrawlConfig
		crashes bool
	}{
		{"", func(w *websim.World) func(sched.Shard) openwpm.CrawlConfig { return crawlConfig(w, nil) }, false},
		{"crashes-", crashConfig, true},
	} {
		in := in
		var serialDigest string
		for _, workers := range []int{1, 3} {
			workers := workers
			t.Run(in.prefix+map[int]string{1: "serial", 3: "sharded"}[workers], func(t *testing.T) {
				testKillAndRecover(t, sites, workers, in.config, in.crashes, &serialDigest)
			})
		}
	}
}

// testKillAndRecover runs one TestKillAndRecoverFromWAL input at one worker
// count. serialDigest carries the input's first uninterrupted bundle digest
// across its worker counts, which must all seal the same bytes.
func testKillAndRecover(t *testing.T, sites, workers int, config func(*websim.World) func(sched.Shard) openwpm.CrawlConfig, crashes bool, serialDigest *string) {
	urls := websim.Tranco(sites)
	meta := map[string]string{"scenario": "wal-recover"}

	reference, err := sched.Run(sched.Crawl{
		Sites:      urls,
		Workers:    workers,
		Config:     config(websim.New(websim.Options{Seed: 5, NumSites: sites})),
		Record:     true,
		BundleMeta: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if crashes && len(reference.Bundle.Crashes) == 0 {
		t.Fatal("crash-heavy crawl archived no crash rows")
	}
	if *serialDigest == "" {
		*serialDigest = reference.Bundle.Digest
	} else if reference.Bundle.Digest != *serialDigest {
		t.Fatalf("%d-worker bundle digest %s differs from the serial %s", workers, reference.Bundle.Digest, *serialDigest)
	}

	fss := make([]*wal.MemFS, workers)
	for i := range fss {
		fss[i] = wal.NewMemFS()
	}
	backend := sched.WALBackend(func(sh sched.Shard) wal.FS { return fss[sh.Index] },
		workers, true, meta, wal.Options{})

	stop := make(chan struct{})
	var once sync.Once
	crawl := sched.Crawl{
		Sites:         urls,
		Workers:       workers,
		Config:        config(websim.New(websim.Options{Seed: 5, NumSites: sites})),
		Record:        true,
		BundleMeta:    meta,
		Backend:       backend,
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
	doneAtStop := first.Checkpoint.Done()

	// the kill: every in-process object is gone, and each log loses
	// its tail at an arbitrary byte point (mid-frame included)
	first = nil
	for _, fs := range fss {
		truncateTail(t, fs, 0.7)
	}

	walFSs := make([]wal.FS, workers)
	for i, fs := range fss {
		walFSs[i] = fs
	}
	recovered, recoveries, err := sched.Recover(walFSs, wal.Options{})
	if err != nil {
		t.Fatalf("recover from WALs: %v", err)
	}
	if got := recovered.Done(); got > doneAtStop {
		t.Fatalf("recovery invented progress: %d done, crawl had reached %d", got, doneAtStop)
	}
	for _, r := range recoveries {
		if r.MetaLost {
			// this shard's log lost even its metadata record: it
			// restarts from scratch, there is no storage to compare
			continue
		}
		// the recovered shard holds exactly the uninterrupted run's
		// visits of the sites it completed, in crawl order
		completed := map[string]bool{}
		for _, s := range r.Meta.Sites[:r.Done()] {
			completed[s] = true
		}
		var want []openwpm.VisitRecord
		for _, v := range reference.Storage.Visits {
			if completed[v.Site] {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(r.Storage.Visits, want) {
			t.Fatalf("shard %d: recovered %d visits differ from the uninterrupted run's %d for its %d completed sites",
				r.Meta.Index, len(r.Storage.Visits), len(want), r.Done())
		}
	}

	crawl.Stop = nil
	crawl.OnProgress = nil
	crawl.ProgressEvery = 0
	crawl.Config = config(websim.New(websim.Options{Seed: 5, NumSites: sites}))
	crawl.Resume = recovered
	resumed, err := sched.Run(crawl)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatal("resumed run did not complete")
	}
	if a, b := reference.Storage.Digest(), resumed.Storage.Digest(); a != b {
		t.Fatalf("recovered+resumed storage digest %s differs from uninterrupted %s", b, a)
	}
	if a, b := reference.Report.String(), resumed.Report.String(); a != b {
		t.Fatalf("recovered+resumed report diverges:\nuninterrupted:\n%s\nresumed:\n%s", a, b)
	}
	if reference.Bundle.Digest != resumed.Bundle.Digest {
		t.Fatal("recovered+resumed bundle digest differs from uninterrupted run")
	}
	if err := resumed.Bundle.Verify(); err != nil {
		t.Fatalf("recovered bundle fails verification: %v", err)
	}
	// no revisits in the durable world either: one front visit per site
	front := map[string]int{}
	for _, v := range resumed.Storage.Visits {
		if !v.Subpage {
			front[v.Site]++
		}
	}
	for _, u := range urls {
		if front[u] != 1 {
			t.Fatalf("site %s has %d front-page visit rows after recovery, want 1", u, front[u])
		}
	}
	if err := resumed.Checkpoint.CloseBackends(); err != nil {
		t.Fatalf("closing recovered backends: %v", err)
	}
}

// TestRecoverShardMetaLost models the worst per-shard damage a kill can
// leave: one shard's log torn inside its very first frame (the metadata
// record never became durable) and another's gone entirely. Neither shard
// made durable progress, so recovery must not fail the crawl — it identifies
// the lost shards by elimination, resets their logs, restarts them from site
// zero, and the resumed run still matches an uninterrupted one byte for byte.
func TestRecoverShardMetaLost(t *testing.T) {
	const sites, workers = 12, 3
	urls := websim.Tranco(sites)
	meta := map[string]string{"scenario": "wal-meta-lost"}

	reference, err := sched.Run(sched.Crawl{
		Sites:      urls,
		Workers:    workers,
		Config:     crawlConfig(websim.New(websim.Options{Seed: 5, NumSites: sites}), nil),
		Record:     true,
		BundleMeta: meta,
	})
	if err != nil {
		t.Fatal(err)
	}

	fss := make([]*wal.MemFS, workers)
	for i := range fss {
		fss[i] = wal.NewMemFS()
	}
	backend := sched.WALBackend(func(sh sched.Shard) wal.FS { return fss[sh.Index] },
		workers, true, meta, wal.Options{})

	stop := make(chan struct{})
	var once sync.Once
	crawl := sched.Crawl{
		Sites:         urls,
		Workers:       workers,
		Config:        crawlConfig(websim.New(websim.Options{Seed: 5, NumSites: sites}), nil),
		Record:        true,
		BundleMeta:    meta,
		Backend:       backend,
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
		t.Fatal("crawl was not interrupted")
	}
	doneAtStop := first.Checkpoint.Done()
	first = nil

	// the kill: shard 1's log is cut mid-way through its first frame, shard
	// 2's vanishes outright; shard 0 keeps whatever it had
	names, err := fss[1].List()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if i == 0 {
			if err := fss[1].Truncate(n, 3); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := fss[1].Remove(n); err != nil {
			t.Fatal(err)
		}
	}
	names, err = fss[2].List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := fss[2].Remove(n); err != nil {
			t.Fatal(err)
		}
	}

	walFSs := make([]wal.FS, workers)
	for i, fs := range fss {
		walFSs[i] = fs
	}
	recovered, recoveries, err := sched.Recover(walFSs, wal.Options{})
	if err != nil {
		t.Fatalf("recover with two unrecoverable shard logs: %v", err)
	}
	if got := recovered.Done(); got > doneAtStop {
		t.Fatalf("recovery invented progress: %d done, crawl had reached %d", got, doneAtStop)
	}
	var lostIdx []int
	for _, r := range recoveries {
		if r.MetaLost {
			lostIdx = append(lostIdx, r.Meta.Index)
			continue
		}
		if r.Meta.Index != 0 {
			t.Fatalf("shard %d recovered metadata from a destroyed log", r.Meta.Index)
		}
	}
	if len(lostIdx) != 2 || lostIdx[0] != 1 || lostIdx[1] != 2 {
		t.Fatalf("MetaLost shards = %v, want [1 2]", lostIdx)
	}

	crawl.Stop = nil
	crawl.OnProgress = nil
	crawl.ProgressEvery = 0
	crawl.Config = crawlConfig(websim.New(websim.Options{Seed: 5, NumSites: sites}), nil)
	crawl.Resume = recovered
	resumed, err := sched.Run(crawl)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatal("resumed run did not complete")
	}
	if a, b := reference.Storage.Digest(), resumed.Storage.Digest(); a != b {
		t.Fatalf("recovered+resumed storage digest %s differs from uninterrupted %s", b, a)
	}
	if a, b := reference.Report.String(), resumed.Report.String(); a != b {
		t.Fatalf("recovered+resumed report diverges:\nuninterrupted:\n%s\nresumed:\n%s", a, b)
	}
	if reference.Bundle.Digest != resumed.Bundle.Digest {
		t.Fatal("recovered+resumed bundle digest differs from uninterrupted run")
	}
	if err := resumed.Bundle.Verify(); err != nil {
		t.Fatalf("recovered bundle fails verification: %v", err)
	}

	// the restarted shards wrote fresh logs: a second recovery must now see
	// all three shards with metadata and full progress
	again, recoveries2, err := sched.Recover(walFSs, wal.Options{})
	if err != nil {
		t.Fatalf("second recovery after restart: %v", err)
	}
	for _, r := range recoveries2 {
		if r.MetaLost {
			t.Fatalf("shard %d still has no metadata after the restarted run", r.Meta.Index)
		}
	}
	if got := again.Done(); got != sites {
		t.Fatalf("second recovery sees %d/%d sites done", got, sites)
	}
	if err := resumed.Checkpoint.CloseBackends(); err != nil {
		t.Fatalf("closing recovered backends: %v", err)
	}
}

// readOnlyFS is a log directory that refuses every new file, as a read-only
// or full disk does when a shard opens its log.
type readOnlyFS struct{ *wal.MemFS }

func (readOnlyFS) Create(string) (wal.File, error) { return nil, errors.New("read-only file system") }

// TestWALOpenFailureIsCounted: a shard whose log cannot open crawls
// memory-only. The lost durability must show up as wal_open_failures_total
// (a nil backend never reaches the storage layer's backend-error
// accounting), and the crawl must still finish with every site accounted
// and the same storage as a memory-only run.
func TestWALOpenFailureIsCounted(t *testing.T) {
	const sites, workers = 6, 2
	urls := websim.Tranco(sites)
	reference, err := sched.Run(sched.Crawl{
		Sites:   urls,
		Workers: workers,
		Config:  crawlConfig(websim.New(websim.Options{Seed: 5, NumSites: sites}), nil),
	})
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	// shard 0's log cannot open; shard 1's can
	fss := func(sh sched.Shard) wal.FS {
		if sh.Index == 0 {
			return readOnlyFS{wal.NewMemFS()}
		}
		return wal.NewMemFS()
	}
	res, err := sched.Run(sched.Crawl{
		Sites:     urls,
		Workers:   workers,
		Config:    crawlConfig(websim.New(websim.Options{Seed: 5, NumSites: sites}), tel),
		Telemetry: tel,
		Backend:   sched.WALBackend(fss, workers, false, nil, wal.Options{Telemetry: tel}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Counters["wal_open_failures_total"]; got != 1 {
		t.Fatalf("wal_open_failures_total = %d, want 1 (one shard's log failed to open)", got)
	}
	if rep := res.Report; rep.Sites != sites || !rep.Accounted() {
		t.Fatalf("site accounting broken: %+v", rep)
	}
	if got, want := res.Storage.Digest(), reference.Storage.Digest(); got != want {
		t.Fatalf("storage digest %s, memory-only reference %s", got, want)
	}
}
