package main

import (
	"fmt"
	"math/rand"

	"gullible/internal/analysis"
	"gullible/internal/experiments"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/websim"
)

// Every workload crawls a fixed input — the top-ranked sites of a fixed
// synthetic web, or a fixed pool of daemon jobs — and the run seed only
// orders it. Runs at different seeds therefore do the same work, and the
// spread between them is measurement noise, not a difference of inputs.
const (
	scanWorld   = 42 // scan, compare and the microbenchmarks
	recordWorld = 7  // record-replay crawls a different web
)

// shuffled is a seeded permutation of xs.
func shuffled[T any](seed int64, xs []T) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// topSites is the top n ranked sites of the synthetic Tranco list in the
// seed's order.
func topSites(seed int64, n int) []string {
	return shuffled(seed, websim.Tranco(n))
}

// scanConfig is the Sec. 4 crawler configuration as experiments.RunScanObserved
// builds it. The traced passes call sched.Run directly so they can wrap the
// configuration; the digest checks against the untraced goldens keep this
// copy honest.
func scanConfig(world httpsim.RoundTripper, subpages int) openwpm.CrawlConfig {
	return openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "scan-client",
		DwellSeconds: 60,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true,
		HoneyProps:       4,
		MaxSubpages:      subpages,
		Tamper:           analysis.TamperRecorder,
	}
}

// boundaryBackends returns a Crawl.Backend factory whose shard backends are
// next's, wrapped to mark site boundaries on the given lanes.
func boundaryBackends(lanes []*lane, next func(sched.Shard) openwpm.Backend) func(sched.Shard) openwpm.Backend {
	return func(sh sched.Shard) openwpm.Backend {
		var be openwpm.Backend = openwpm.MemBackend{}
		if next != nil {
			be = next(sh)
		}
		return wrapBackend(be, lanes[sh.Index])
	}
}

// checkLanes reports shards whose backend failed to open.
func checkLanes(r *passResult, lanes []*lane) {
	for i, l := range lanes {
		if l.failed {
			r.problemf("shard %d: storage backend failed to open", i)
		}
	}
}

// checkReport checks a crawl report's accounting and returns how many of its
// sites failed or were skipped.
func checkReport(r *passResult, what string, rep *openwpm.CrawlReport, sites int) int {
	if rep == nil {
		r.problemf("%s: no crawl report", what)
		return sites
	}
	if !rep.Accounted() || rep.Sites != sites {
		r.problemf("%s: report accounts for %d of %d sites (completed %d salvaged %d failed %d skipped %d)",
			what, rep.Completed+rep.Salvaged+rep.Failed+rep.Skipped, sites,
			rep.Completed, rep.Salvaged, rep.Failed, rep.Skipped)
	}
	return rep.Failed + rep.Skipped
}

// scanMeasure is one untraced scan pass through experiments.RunScanObserved:
// the top ranked sites, memory storage, tamper analysis, at the pass's
// worker count.
func scanMeasure(spec passSpec, execNS int64) (*passResult, error) {
	world := websim.New(websim.Options{Seed: scanWorld})
	sites, last := topSites(spec.Seed, spec.Size.ScanSites), spec.Size.ScanSites
	workers := sched.Workers(spec.Workers, len(sites))
	tr := newTracer(false)
	lanes := tr.shardLanes(workers, -1)
	r := &passResult{Ops: len(sites), Visits: len(sites)}
	if r.ready(spec, execNS) {
		return r, nil
	}

	m := startMeter()
	res, err := experiments.RunScanObserved(world, last, experiments.ScanOptions{
		Sites:       sites,
		MaxSubpages: spec.Size.Subpages,
		Workers:     workers,
		Backend:     boundaryBackends(lanes, nil),
	}, nil)
	m.stop(r)
	if err != nil {
		return nil, err
	}
	checkLanes(r, lanes)
	r.Failed += checkReport(r, "scan", res.Report, len(sites))
	r.LatMS = tr.siteLatencies()
	r.digest("storage", res.Storage.Digest())
	r.extra("sites_per_s", float64(len(sites))/r.WallS)
	return r, nil
}

// scanTraced is the scan through sched.Run with the scan's configuration
// rebuilt here, so the transport, instrument, tamper analyser and backend
// can be wrapped; with tracing off it is the traced pass's twin.
func scanTraced(spec passSpec, execNS int64, tracing bool) (*passResult, error) {
	world := websim.New(websim.Options{Seed: scanWorld})
	sites, last := topSites(spec.Seed, spec.Size.ScanSites), spec.Size.ScanSites
	workers := sched.Workers(spec.Workers, len(sites))
	tr := newTracer(tracing)
	r := &passResult{Ops: len(sites), Visits: len(sites)}
	r.ready(spec, execNS)

	m := startMeter()
	tr.main.restart()
	pass := tr.main.begin(spanPass)
	run := tr.main.begin(spanSchedRun)
	lanes := tr.shardLanes(workers, run)
	res, err := sched.Run(sched.Crawl{
		Sites:   sites,
		Workers: workers,
		Backend: boundaryBackends(lanes, nil),
		Config: func(sh sched.Shard) openwpm.CrawlConfig {
			return traceConfig(scanConfig(world, spec.Size.Subpages), lanes[sh.Index])
		},
	})
	tr.main.end(run)
	if err != nil {
		return nil, err
	}
	sp := tr.main.begin(spanAnalyze)
	merged := openwpm.NewTaskManager(scanConfig(world, spec.Size.Subpages))
	merged.Storage = res.Storage
	experiments.Analyze(world, merged, last)
	tr.main.end(sp)
	sp = tr.main.begin(spanDigest)
	digest := res.Storage.Digest()
	tr.main.end(sp)
	tr.main.end(pass)
	m.stop(r)

	checkLanes(r, lanes)
	r.Failed += checkReport(r, "scan", res.Report, len(sites))
	r.digest("storage", digest)
	return r, finishTrace(r, tr, spec)
}

// finishTrace attaches the layer table of a traced pass and writes its spans
// when asked to.
func finishTrace(r *passResult, tr *tracer, spec passSpec) error {
	if !tr.tracing {
		return nil
	}
	r.Layers = tr.table()
	if spec.SpansOut != "" {
		if err := tr.writeSpans(spec.SpansOut); err != nil {
			return fmt.Errorf("%s: %w", spec.Workload, err)
		}
	}
	return nil
}
