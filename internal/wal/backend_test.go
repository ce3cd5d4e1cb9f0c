package wal_test

import (
	"testing"

	"gullible/internal/faults"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

func testConfig(world *websim.World) openwpm.CrawlConfig {
	return openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "wal-test",
		DwellSeconds: 5,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true, HoneyProps: 2, MaxSubpages: 1,
	}
}

func shardMeta(sites []string) wal.ShardMeta {
	return wal.ShardMeta{Index: 0, Start: 0, Workers: 1, Sites: sites}
}

// TestCrossBackendEquivalence is the acceptance criterion that "memory" and
// "wal" are interchangeable: the same crawl through MemBackend and through
// the WAL backend yields identical Storage.Digest() values, and the WAL
// backend's own incremental digest equals both.
func TestCrossBackendEquivalence(t *testing.T) {
	const sites = 8
	run := func(be openwpm.Backend) *openwpm.TaskManager {
		world := websim.New(websim.Options{Seed: 21, NumSites: sites})
		cfg := testConfig(world)
		cfg.Backend = be
		tm := openwpm.NewTaskManager(cfg)
		tm.CrawlFromHooked(websim.Tranco(sites), &openwpm.Checkpoint{}, openwpm.CrawlHooks{})
		return tm
	}

	mem := run(openwpm.MemBackend{})
	fs := wal.NewMemFS()
	be, err := wal.Open(fs, shardMeta(websim.Tranco(sites)), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durable := run(be)
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	memDigest := mem.Storage.Digest()
	if d := durable.Storage.Digest(); d != memDigest {
		t.Fatalf("storage digest differs across backends: memory %s, wal %s", memDigest, d)
	}
	if d := be.Digest(); d != memDigest {
		t.Fatalf("WAL incremental digest %s differs from Storage.Digest() %s", d, memDigest)
	}
	if n := len(durable.Storage.BackendErrors); n != 0 {
		t.Fatalf("fault-free crawl recorded %d backend errors", n)
	}
}

// TestRecoverShardRebuildsStorage crawls with per-site checkpoints, abandons
// the writer mid-log (process kill), and requires RecoverShard to rebuild
// storage whose digest matches the WAL's own digest over the recovered
// stream, with the in-flight tail discarded.
func TestRecoverShardRebuildsStorage(t *testing.T) {
	const sites = 6
	urls := websim.Tranco(sites)
	world := websim.New(websim.Options{Seed: 33, NumSites: sites})
	fs := wal.NewMemFS()
	be, err := wal.Open(fs, shardMeta(urls), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(world)
	cfg.Backend = be
	tm := openwpm.NewTaskManager(cfg)
	cp := &openwpm.Checkpoint{}
	tm.CrawlFromHooked(urls, cp, openwpm.CrawlHooks{
		OnSite: func(o openwpm.SiteOutcome) {
			if err := be.AppendCheckpoint(o, nil, nil); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		},
	})
	// kill: no Flush, no Close — the writer's buffer dies with the process
	rec, err := wal.RecoverShard(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Done() != sites {
		t.Fatalf("recovered %d/%d site outcomes", rec.Done(), sites)
	}
	if rec.Meta.Index != 0 || len(rec.Meta.Sites) != sites {
		t.Fatalf("shard metadata did not survive: %+v", rec.Meta)
	}
	if a, b := rec.Storage.Digest(), rec.Backend.Digest(); a != b {
		t.Fatalf("recovered storage digest %s differs from replayed WAL digest %s", a, b)
	}
	if a, b := rec.Storage.Digest(), tm.Storage.Digest(); a != b {
		t.Fatalf("recovery after final checkpoint lost records: recovered %s, live %s", a, b)
	}
}

// TestENOSPCSalvageParity fills the device mid-crawl and requires salvage
// parity in the spirit of CrawlReport.Accounted(): every appended record is
// either committed (and recoverable) or counted lost — committed + lost ==
// appended, with nothing silently vanishing and the committed prefix intact.
func TestENOSPCSalvageParity(t *testing.T) {
	const sites = 6
	urls := websim.Tranco(sites)
	world := websim.New(websim.Options{Seed: 44, NumSites: sites})
	inj := faults.NewDiskInjector(9, faults.DiskProfile{ByteBudget: 64 << 10})
	fs := wal.NewMemFS()
	be, err := wal.Open(fs, shardMeta(urls), wal.Options{Disk: inj, SegmentBytes: 8 << 10, FlushBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(world)
	cfg.Backend = be
	tm := openwpm.NewTaskManager(cfg)
	report := tm.CrawlFromHooked(urls, &openwpm.Checkpoint{}, openwpm.CrawlHooks{})
	_ = be.Close()

	st := be.Stats()
	if st.Lost == 0 {
		t.Fatalf("byte budget never filled (stats %+v) — raise crawl size or lower budget", st)
	}
	if st.Committed+st.Lost != st.Appended {
		t.Fatalf("salvage parity violated: %d committed + %d lost != %d appended",
			st.Committed, st.Lost, st.Appended)
	}
	if got := inj.Counts()[faults.DiskENOSPC]; got == 0 {
		t.Fatal("injector reports no ENOSPC faults despite losses")
	}
	// the crawl itself must be unharmed: a full disk degrades durability only
	if !report.Accounted() {
		t.Fatal("crawl report no longer accounts for every site under ENOSPC")
	}
	if len(tm.Storage.BackendErrors) == 0 {
		t.Fatal("storage did not count backend append failures")
	}
	// and the committed prefix recovers clean
	recs, stats, err := wal.Scan(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != st.Committed {
		t.Fatalf("recovered %d records, writer committed %d", len(recs), st.Committed)
	}
	if stats.Records != len(recs) {
		t.Fatalf("scan stats disagree with scan result: %d vs %d", stats.Records, len(recs))
	}
}
