package main

import (
	"fmt"
	"os"
	"time"

	"gullible/internal/bundle"
	"gullible/internal/experiments"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// recordMeta labels the recorded bundle's manifest.
func recordMeta(worldSeed int64) map[string]string {
	return map[string]string{"tool": "wpmbench", "worldSeed": fmt.Sprint(worldSeed)}
}

// walFactory opens each shard's write-ahead log under dir with fsync at
// checkpoints.
func walFactory(dir string, workers int, meta map[string]string) func(sched.Shard) openwpm.Backend {
	return sched.WALBackend(sched.ShardDirFS(dir), workers, true, meta, wal.Options{Sync: wal.SyncCheckpoint})
}

// archive runs the bundle round trip a stored archive goes through:
// canonical encoding, decoding and integrity verification.
func archive(b *bundle.Bundle, tr *tracer) (*bundle.Bundle, []byte, error) {
	sp := tr.main.begin(spanMarshal)
	data, err := b.Marshal()
	tr.main.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.main.begin(spanUnmarshal)
	back, err := bundle.Unmarshal(data)
	tr.main.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.main.begin(spanVerify)
	err = back.Verify()
	tr.main.end(sp)
	return back, data, err
}

// recordReplayMeasure records the top ranked sites through
// experiments.RunScanObserved onto per-shard WALs with bundle recording,
// archives the bundle (marshal, unmarshal, verify), then replays the decoded
// archive with misses failing.
func recordReplayMeasure(spec passSpec, execNS int64) (*passResult, error) {
	world := websim.New(websim.Options{Seed: recordWorld})
	sites, last := topSites(spec.Seed, spec.Size.RRSites), spec.Size.RRSites
	workers := sched.Workers(spec.Workers, len(sites))
	dir, err := os.MkdirTemp("", "wpmbench-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	meta := recordMeta(recordWorld)
	tr := newTracer(false)
	recLanes := tr.shardLanes(workers, -1)
	repLanes := tr.shardLanes(workers, -1)
	r := &passResult{Ops: 2 * len(sites), Visits: 2 * len(sites)}
	if r.ready(spec, execNS) {
		return r, nil
	}

	m := startMeter()
	t0 := time.Now()
	rec, err := experiments.RunScanObserved(world, last, experiments.ScanOptions{
		Sites:        sites,
		MaxSubpages:  spec.Size.Subpages,
		Workers:      workers,
		RecordBundle: true,
		BundleMeta:   meta,
		Backend:      boundaryBackends(recLanes, walFactory(dir, workers, meta)),
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := rec.Checkpoint.CloseBackends(); err != nil {
		return nil, fmt.Errorf("seal WAL: %w", err)
	}
	t1 := time.Now()
	back, data, err := archive(rec.Bundle, tr)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	rep, err := experiments.RunScanObserved(world, last, experiments.ScanOptions{
		Sites:        sites,
		MaxSubpages:  spec.Size.Subpages,
		Workers:      workers,
		ReplayBundle: back,
		MissPolicy:   bundle.MissFail,
		Backend:      boundaryBackends(repLanes, nil),
	}, nil)
	m.stop(r)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()

	checkLanes(r, recLanes)
	checkLanes(r, repLanes)
	r.Failed += checkReport(r, "record", rec.Report, len(sites))
	r.Failed += checkReport(r, "replay", rep.Report, len(sites))
	r.LatMS = tr.siteLatencies()
	recDigest, repDigest := rec.Storage.Digest(), rep.Storage.Digest()
	if recDigest != repDigest {
		r.problemf("replay storage digest %s differs from the recording's %s", repDigest, recDigest)
	}
	r.digest("storage", recDigest)
	r.digest("bundle", rec.Bundle.Digest)
	n := float64(len(sites))
	r.extra("record_sites_per_s", n/t1.Sub(t0).Seconds())
	r.extra("archive_ms", float64(t2.Sub(t1).Microseconds())/1e3)
	r.extra("replay_sites_per_s", n/t3.Sub(t2).Seconds())
	r.extra("bundle_kb_per_site", float64(len(data))/1024/n)
	return r, nil
}

// recordReplayTraced is the record → archive → replay cycle through sched.Run
// with the configuration rebuilt as experiments.RunScanObserved builds it.
func recordReplayTraced(spec passSpec, execNS int64, tracing bool) (*passResult, error) {
	world := websim.New(websim.Options{Seed: recordWorld})
	sites := topSites(spec.Seed, spec.Size.RRSites)
	workers := sched.Workers(spec.Workers, len(sites))
	dir, err := os.MkdirTemp("", "wpmbench-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	meta := recordMeta(recordWorld)
	tr := newTracer(tracing)
	r := &passResult{Ops: 2 * len(sites), Visits: 2 * len(sites)}
	r.ready(spec, execNS)

	m := startMeter()
	tr.main.restart()
	pass := tr.main.begin(spanPass)
	run := tr.main.begin(spanSchedRun)
	recLanes := tr.shardLanes(workers, run)
	rec, err := sched.Run(sched.Crawl{
		Sites:      sites,
		Workers:    workers,
		Record:     true,
		BundleMeta: meta,
		Backend:    boundaryBackends(recLanes, walFactory(dir, workers, meta)),
		Config: func(sh sched.Shard) openwpm.CrawlConfig {
			return traceConfig(scanConfig(world, spec.Size.Subpages), recLanes[sh.Index])
		},
	})
	tr.main.end(run)
	if err != nil {
		return nil, err
	}
	sp := tr.main.begin(spanCloseWAL)
	err = rec.Checkpoint.CloseBackends()
	tr.main.end(sp)
	if err != nil {
		return nil, fmt.Errorf("seal WAL: %w", err)
	}
	back, _, err := archive(rec.Bundle, tr)
	if err != nil {
		return nil, err
	}
	run = tr.main.begin(spanSchedRun)
	repLanes := tr.shardLanes(workers, run)
	rep, err := sched.Run(sched.Crawl{
		Sites:   sites,
		Workers: workers,
		Backend: boundaryBackends(repLanes, nil),
		Config: func(sh sched.Shard) openwpm.CrawlConfig {
			rt := bundle.NewReplayTransport(back, bundle.MissFail, nil)
			if sh.Start > 0 {
				rt.OffsetStorage(back.StorageWritesFor(sites[:sh.Start]))
			}
			return traceConfig(scanConfig(rt, spec.Size.Subpages), repLanes[sh.Index])
		},
	})
	tr.main.end(run)
	if err != nil {
		return nil, err
	}
	sp = tr.main.begin(spanDigest)
	recDigest, repDigest := rec.Storage.Digest(), rep.Storage.Digest()
	tr.main.end(sp)
	tr.main.end(pass)
	m.stop(r)

	checkLanes(r, recLanes)
	checkLanes(r, repLanes)
	r.Failed += checkReport(r, "record", rec.Report, len(sites))
	r.Failed += checkReport(r, "replay", rep.Report, len(sites))
	if recDigest != repDigest {
		r.problemf("replay storage digest %s differs from the recording's %s", repDigest, recDigest)
	}
	if tracing {
		if err := unstealth(rec.Bundle); err != nil {
			return nil, err
		}
	}
	r.digest("storage", recDigest)
	r.digest("bundle", rec.Bundle.Digest)
	return r, finishTrace(r, tr, spec)
}
