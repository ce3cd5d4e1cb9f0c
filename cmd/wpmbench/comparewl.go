package main

import (
	"fmt"

	"gullible/internal/experiments"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/stealth"
	"gullible/internal/websim"
)

// compareSites is experiments.DetectorSiteSample — the first n sites that
// deploy cloaking-capable detectors — in the seed's order.
func compareSites(world *websim.World, seed int64, n int) []string {
	return shuffled(seed, experiments.DetectorSiteSample(world, n))
}

// comparePair builds one repetition's two machines as
// experiments.RunComparison does: vanilla WPM and WPM_hide (stealth
// instrument) with their own client identities against the same world.
func comparePair(world *websim.World, ln *lane) (wpm, hide *openwpm.TaskManager) {
	wcfg := openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "wpm-machine",
		DwellSeconds: 60,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
	}
	hcfg := openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "hide-machine",
		DwellSeconds:   60,
		HTTPInstrument: true, CookieInstrument: true,
		Stealth: stealth.New(),
	}
	if ln.tracing {
		// the storage backend is a no-op in-memory one; attaching it only
		// gives the storage appends a timed boundary
		wcfg.Backend = &boundaryBackend{next: openwpm.MemBackend{}, ln: ln}
		hcfg.Backend = &boundaryBackend{next: openwpm.MemBackend{}, ln: ln}
	}
	return openwpm.NewTaskManager(traceConfig(wcfg, ln)), openwpm.NewTaskManager(traceConfig(hcfg, ln))
}

// runCompare crawls sites reps times with both machines, visiting each site
// with WPM and then WPM_hide as experiments.RunComparison does, and marks
// every pair on the main lane. It returns the per-repetition storages.
func runCompare(world *websim.World, sites []string, reps int, tr *tracer) []experiments.RunPair {
	ln := tr.main
	var out []experiments.RunPair
	for rep := 0; rep < reps; rep++ {
		wpm, hide := comparePair(world, ln)
		for _, u := range sites {
			sp := ln.beginReq(spanSite, u)
			wpm.VisitSite(u)
			ln.end(sp)
			sp = ln.beginReq(spanSite, u)
			hide.VisitSite(u)
			ln.end(sp)
			ln.mark(ln.now())
		}
		out = append(out, experiments.RunPair{WPM: wpm.Storage, Hide: hide.Storage})
	}
	return out
}

// compareDigests records each repetition's two storage digests.
func compareDigests(r *passResult, runs []experiments.RunPair) {
	for i, p := range runs {
		r.digest(fmt.Sprintf("wpm.r%d", i+1), p.WPM.Digest())
		r.digest(fmt.Sprintf("hide.r%d", i+1), p.Hide.Digest())
	}
}

// compareMeasure is one untraced Sec. 6.3 comparison: the detector sites,
// reps repetitions against one stateful world. Each pass also checks the
// benchmark's loop against experiments.RunComparison on a prefix of the
// sites, after its measured section.
func compareMeasure(spec passSpec, execNS int64) (*passResult, error) {
	world := websim.New(websim.Options{Seed: scanWorld})
	sites := compareSites(world, spec.Seed, spec.Size.CompareSites)
	reps := spec.Size.CompareReps
	tr := newTracer(false)
	r := &passResult{Ops: reps * len(sites), Visits: 2 * reps * len(sites)}
	if r.ready(spec, execNS) {
		return r, nil
	}

	m := startMeter()
	tr.main.restart()
	runs := runCompare(world, sites, reps, tr)
	m.stop(r)

	r.LatMS = tr.siteLatencies()
	compareDigests(r, runs)
	checkCompareLoop(r, spec, sites)
	return r, nil
}

// checkCompareLoop runs the benchmark's comparison loop and
// experiments.RunComparison on fresh worlds over a prefix of sites: the two
// must store identical bytes.
func checkCompareLoop(r *passResult, spec passSpec, sites []string) {
	n := min(spec.Size.CompareCheck, len(sites))
	reps := spec.Size.CompareReps
	lib := experiments.RunComparison(websim.New(websim.Options{Seed: scanWorld}), sites[:n], reps, nil)
	own := runCompare(websim.New(websim.Options{Seed: scanWorld}), sites[:n], reps, newTracer(false))
	for i := range lib.Runs {
		if lib.Runs[i].WPM.Digest() != own[i].WPM.Digest() || lib.Runs[i].Hide.Digest() != own[i].Hide.Digest() {
			r.problemf("comparison loop diverges from experiments.RunComparison in repetition %d", i+1)
		}
	}
}

// compareTraced is the comparison with every wrapper on, or its twin.
func compareTraced(spec passSpec, execNS int64, tracing bool) (*passResult, error) {
	world := websim.New(websim.Options{Seed: scanWorld})
	sites := compareSites(world, spec.Seed, spec.Size.CompareSites)
	reps := spec.Size.CompareReps
	tr := newTracer(tracing)
	r := &passResult{Ops: reps * len(sites), Visits: 2 * reps * len(sites)}
	r.ready(spec, execNS)

	m := startMeter()
	tr.main.restart()
	pass := tr.main.begin(spanPass)
	runs := runCompare(world, sites, reps, tr)
	tr.main.end(pass)
	m.stop(r)

	compareDigests(r, runs)
	return r, finishTrace(r, tr, spec)
}
