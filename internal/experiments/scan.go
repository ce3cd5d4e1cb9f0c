package experiments

import (
	"sort"

	"gullible/internal/analysis"
	"gullible/internal/bundle"
	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// ScanResult carries the Sec. 4 scan of the synthetic Tranco list plus the
// derived per-site classifications used by Tables 5–7 and 11–12 and
// Figures 3–5.
type ScanResult struct {
	NumSites int
	World    *websim.World
	Storage  *openwpm.Storage
	Honey    []string

	// Per-site detector classification (keyed by site eTLD+1).
	StaticRaw    map[string]bool // naive 'webdriver' pattern, front+sub
	StaticClean  map[string]bool // context-aware patterns
	DynamicRaw   map[string]bool // any webdriver/marker access recorded
	DynamicClean map[string]bool // detector class (iterators resolved)

	FrontStaticRaw    map[string]bool
	FrontStaticClean  map[string]bool
	FrontDynamicRaw   map[string]bool
	FrontDynamicClean map[string]bool

	// OpenWPM-specific probes: provider host → marker → site set.
	OpenWPMProbes map[string]map[string]map[string]bool

	// Third-party inclusions: hosting domain → site set.
	ThirdPartyInclusions map[string]map[string]bool
	// First-party detector scripts for Appendix-A clustering.
	FirstPartyScripts []analysis.FirstPartyScript

	// Site rank per eTLD+1 (for bucket figures) and category lookup.
	SiteRank map[string]int

	// Report is the crawl-level reliability accounting (completion,
	// restarts, error taxonomy), merged across workers.
	Report *openwpm.CrawlReport
	// Bundle is the sealed execution bundle when the scan ran with
	// ScanOptions.RecordBundle.
	Bundle *bundle.Bundle
	// FaultKinds tallies injected faults by kind name, merged across the
	// per-worker injectors (empty when the scan ran fault-free).
	FaultKinds map[string]int
	// Metrics is the final telemetry snapshot when the scan ran with
	// ScanOptions.Telemetry (nil otherwise).
	Metrics *telemetry.Snapshot
	// Trace is the merged whole-crawl span stream when the scan ran with
	// ScanOptions.Telemetry: one crawl root over every visit on the serial
	// clock, the same bytes at any worker count (see sched.Result.Trace).
	Trace []telemetry.SpanEvent
	// Workers is the effective (clamped) parallel worker count the
	// scheduler used for the crawl.
	Workers int

	// Interrupted is set when ScanOptions.Stop ended the crawl early; only
	// Checkpoint, FaultKinds and Workers are populated then, and passing
	// Checkpoint back via ScanOptions.Resume finishes the scan.
	Interrupted bool
	// Checkpoint is the scheduler's final per-shard state.
	Checkpoint *sched.Checkpoint
}

// scanCrawlConfig is the Sec. 4 crawler configuration.
func scanCrawlConfig(world *websim.World, maxSubpages int) openwpm.CrawlConfig {
	return openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "scan-client",
		DwellSeconds: 60,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true, // "stores a copy of any transmitted JavaScript file"
		HoneyProps:       4,
		MaxSubpages:      maxSubpages,
		// every stored script is statically analysed at crawl time; the
		// persisted tamper table feeds the static/dynamic agreement report
		Tamper: analysis.TamperRecorder,
	}
}

// ScanOptions augments the Sec. 4 scan with reliability controls: a fault
// profile to inject, and the hardening knobs forwarded to the crawler.
type ScanOptions struct {
	MaxSubpages int

	// Sites, when non-empty, is the explicit crawl list; the default is the
	// top-numSites ranked prefix of the synthetic web (websim.Tranco). The
	// daemon uses this to serve jobs over arbitrary site subsets.
	Sites []string

	// Workers is the parallel worker count, clamped by sched.Workers: zero
	// means GOMAXPROCS, and a crawl never gets more workers than sites.
	Workers int

	// FaultProfile, when non-nil, wraps the world in a per-worker seeded
	// fault injector.
	FaultProfile *faults.Profile
	FaultSeed    int64

	// Hardening knobs (zero values = vanilla behaviour).
	MaxVisitSeconds  float64
	MaxRetries       int
	BreakerThreshold int

	// RecordBundle archives the scan into an execution bundle. Each worker
	// records its own shard and the scheduler seals one archive from the
	// shard recorders — recording no longer forces a single worker, and the
	// bundle's digest is identical at any worker count.
	RecordBundle bool
	// BundleMeta labels the recorded bundle's manifest (seeds, scenario
	// names — deterministic content only).
	BundleMeta map[string]string

	// ReplayBundle, when non-nil, serves the scan from the archived crawl
	// instead of the live world (each worker gets its own replay cursor
	// over the shared read-only bundle). MissPolicy governs requests the
	// bundle never saw; MissPassthrough serves them from the live world.
	ReplayBundle *bundle.Bundle
	MissPolicy   bundle.MissPolicy

	// Telemetry, when non-nil, instruments the scan end to end. Worker
	// TaskManagers share this one registry (counters and histograms are
	// atomic and order-independent, so sharded snapshots stay
	// deterministic); the final whole-scan snapshot lands in
	// ScanResult.Metrics and Report.Metrics.
	Telemetry *telemetry.Telemetry

	// DetachMetrics keeps the telemetry snapshot out of the recorded
	// bundle's report so artifacts stay digest-identical across runs that
	// share a process-lifetime registry; see sched.Crawl.DetachMetrics.
	DetachMetrics bool

	// Backend, when non-nil, gives each shard a durable storage backend
	// (the WAL); see sched.Crawl.Backend for the contract.
	Backend func(sched.Shard) openwpm.Backend
	// Stop, when non-nil, interrupts the scan cooperatively at the next
	// site boundary; the interrupted result carries a resumable checkpoint.
	Stop <-chan struct{}
	// Resume continues an interrupted or WAL-recovered scan from its
	// checkpoint; completed sites are not revisited.
	Resume *sched.Checkpoint
}

// RunScan crawls the top numSites sites of the synthetic web with a vanilla
// OpenWPM client (regular mode, JS+HTTP instruments, honey properties,
// subpage crawling) and derives all detector classifications. Sites are
// sharded across GOMAXPROCS parallel browsers — OpenWPM, too, runs multiple
// browsers against the same measurement database. RunScan panics if the
// scan fails; callers that need scan options or the error use
// RunScanObserved.
func RunScan(world *websim.World, numSites, maxSubpages int, progress func(done, total int)) *ScanResult {
	r, err := RunScanObserved(world, numSites, ScanOptions{MaxSubpages: maxSubpages}, progress)
	if err != nil {
		panic(err)
	}
	return r
}

// RunScanObserved is the primary scan entry point: the crawl is sharded
// across opts.Workers parallel TaskManagers by the scheduler (contiguous
// rank slices, merged back in shard order). A non-nil progress callback gets
// a tick every 1000 sites plus always a final (total, total) call; when
// opts.Telemetry is set, the crawl_progress_done/crawl_progress_total gauges
// also track every visit. Each worker gets its own injector (same seed),
// recorder and replay transport; fault decisions hash the request or the
// page position, never the shard, so merged storage, report and bundle bytes
// are identical at any worker count.
func RunScanObserved(world *websim.World, numSites int, opts ScanOptions, progress func(done, total int)) (*ScanResult, error) {
	urls := opts.Sites
	if len(urls) == 0 {
		urls = websim.Tranco(numSites)
	}
	crawl := sched.Crawl{
		Sites:         urls,
		Workers:       opts.Workers,
		Record:        opts.RecordBundle,
		BundleMeta:    opts.BundleMeta,
		Telemetry:     opts.Telemetry,
		DetachMetrics: opts.DetachMetrics,
		Backend:       opts.Backend,
		Stop:          opts.Stop,
		Resume:        opts.Resume,
		OnProgress:    progress,
		Config: func(sched.Shard) openwpm.CrawlConfig {
			cfg := scanCrawlConfig(world, opts.MaxSubpages)
			cfg.MaxVisitSeconds = opts.MaxVisitSeconds
			if opts.MaxRetries > 0 {
				cfg.MaxRetries = opts.MaxRetries
			}
			cfg.BreakerThreshold = opts.BreakerThreshold
			switch {
			case opts.ReplayBundle != nil:
				// offline re-analysis: serve the archived crawl; the recorded
				// faults (errors and storage drops) replay with it, so a live
				// injector on top would double-fault. Passthrough misses go
				// to the live world.
				cfg.Transport = bundle.NewReplayTransport(opts.ReplayBundle, opts.MissPolicy, world)
			case opts.FaultProfile != nil:
				inj := faults.NewInjector(opts.FaultSeed, *opts.FaultProfile, world)
				inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
				inj.SetTelemetry(opts.Telemetry)
				cfg.Transport = inj
			}
			cfg.Telemetry = opts.Telemetry
			return cfg
		},
	}
	res, err := sched.Run(crawl)
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		// no merged outputs exist yet; the checkpoint resumes the scan (its
		// WAL backends, when present, stay open for the resuming process)
		return &ScanResult{
			NumSites: numSites, World: world,
			Interrupted: true, Checkpoint: res.Checkpoint,
			FaultKinds: res.FaultKinds, Workers: res.Workers,
		}, nil
	}
	merged := openwpm.NewTaskManager(scanCrawlConfig(world, opts.MaxSubpages))
	merged.Storage = res.Storage
	r := Analyze(world, merged, numSites)
	r.Report = res.Report
	r.Metrics = res.Metrics
	r.Trace = res.Trace
	r.Bundle = res.Bundle
	r.FaultKinds = res.FaultKinds
	r.Workers = res.Workers
	r.Checkpoint = res.Checkpoint
	return r, nil
}

// Analyze derives the scan classifications from a completed crawl.
func Analyze(world *websim.World, tm *openwpm.TaskManager, numSites int) *ScanResult {
	st := tm.Storage
	r := &ScanResult{
		NumSites: numSites, World: world, Storage: st,
		Honey:                openwpm.HoneyNames(tm.Cfg.ClientID, tm.Cfg.HoneyProps),
		StaticRaw:            map[string]bool{},
		StaticClean:          map[string]bool{},
		DynamicRaw:           map[string]bool{},
		DynamicClean:         map[string]bool{},
		FrontStaticRaw:       map[string]bool{},
		FrontStaticClean:     map[string]bool{},
		FrontDynamicRaw:      map[string]bool{},
		FrontDynamicClean:    map[string]bool{},
		OpenWPMProbes:        map[string]map[string]map[string]bool{},
		ThirdPartyInclusions: map[string]map[string]bool{},
		SiteRank:             map[string]int{},
	}
	for rank := 1; rank <= numSites; rank++ {
		r.SiteRank[httpsim.ETLDPlusOne(websim.SiteDomain(rank))] = rank
	}

	// Map script URL → (site, front?) inclusion contexts from the request log.
	type ctx struct {
		site  string
		front bool
	}
	scriptSites := map[string][]ctx{}
	for _, req := range st.Requests {
		if req.Type != httpsim.TypeScript {
			continue
		}
		site := httpsim.ETLDPlusOne(httpsim.Host(req.TopURL))
		front := httpsim.Path(req.TopURL) == "/"
		scriptSites[req.URL] = append(scriptSites[req.URL], ctx{site, front})
	}

	// ---- static analysis over stored script files ----------------------
	// Unique content is analysed once; classifications apply to every URL
	// that served it and every site that included those URLs.
	staticByURL := map[string]analysis.StaticResult{}
	for _, f := range st.ScriptFiles {
		res := analysis.AnalyzeStatic(f.Content)
		naive := false
		for _, hit := range res.PatternHits {
			if hit == "webdriver" {
				naive = true
			}
		}
		clean := res.SeleniumDetector || len(res.OpenWPMProps) > 0
		for _, url := range f.URLs {
			staticByURL[url] = res
			for _, c := range scriptSites[url] {
				if r.SiteRank[c.site] == 0 {
					continue
				}
				if naive || clean {
					r.StaticRaw[c.site] = true
					if c.front {
						r.FrontStaticRaw[c.site] = true
					}
				}
				if clean {
					r.StaticClean[c.site] = true
					if c.front {
						r.FrontStaticClean[c.site] = true
					}
				}
				// first-party detector corpus
				if clean && httpsim.ETLDPlusOne(httpsim.Host(url)) == c.site {
					r.FirstPartyScripts = append(r.FirstPartyScripts, analysis.FirstPartyScript{
						Site: c.site, URL: url, Content: f.Content,
					})
				}
			}
		}
	}

	// ---- dynamic analysis over recorded calls ---------------------------
	staticFlagged := func(url string) bool {
		res, ok := staticByURL[url]
		return ok && (res.SeleniumDetector || len(res.OpenWPMProps) > 0)
	}
	dyn := analysis.AnalyzeDynamic(st.JSCalls, r.Honey, staticFlagged)
	// script URL → per-top-URL context comes from the calls themselves
	callTops := map[string]map[string]bool{}
	for _, c := range st.JSCalls {
		if c.ScriptURL == "" {
			continue
		}
		if callTops[c.ScriptURL] == nil {
			callTops[c.ScriptURL] = map[string]bool{}
		}
		callTops[c.ScriptURL][c.TopURL] = true
	}
	for _, d := range dyn {
		if d.Class == analysis.ClassNone {
			continue
		}
		for top := range callTops[d.URL] {
			site := httpsim.ETLDPlusOne(httpsim.Host(top))
			if r.SiteRank[site] == 0 {
				continue
			}
			front := httpsim.Path(top) == "/"
			r.DynamicRaw[site] = true
			if front {
				r.FrontDynamicRaw[site] = true
			}
			if d.Class == analysis.ClassSeleniumDetector {
				r.DynamicClean[site] = true
				if front {
					r.FrontDynamicClean[site] = true
				}
			}
		}
		// OpenWPM-specific probes by provider host
		if len(d.OpenWPMProps) > 0 && d.Class == analysis.ClassSeleniumDetector {
			provider := httpsim.ETLDPlusOne(httpsim.Host(d.URL))
			if r.OpenWPMProbes[provider] == nil {
				r.OpenWPMProbes[provider] = map[string]map[string]bool{}
			}
			for _, marker := range d.OpenWPMProps {
				if r.OpenWPMProbes[provider][marker] == nil {
					r.OpenWPMProbes[provider][marker] = map[string]bool{}
				}
				for top := range callTops[d.URL] {
					site := httpsim.ETLDPlusOne(httpsim.Host(top))
					if r.SiteRank[site] != 0 {
						r.OpenWPMProbes[provider][marker][site] = true
					}
				}
			}
		}
	}

	// ---- third-party inclusion tally ------------------------------------
	// precomputed set of dynamically confirmed detector scripts: this tally
	// must stay O(urls + classifications), not their product — at 100K
	// sites the product is hundreds of billions of comparisons
	dynDetectorURL := map[string]bool{}
	for _, d := range dyn {
		if d.Class == analysis.ClassSeleniumDetector {
			dynDetectorURL[d.URL] = true
		}
	}
	for url, ctxs := range scriptSites {
		host := httpsim.Host(url)
		res := staticByURL[url]
		isDetectorHost := res.SeleniumDetector || len(res.OpenWPMProps) > 0 || dynDetectorURL[url]
		if !isDetectorHost {
			continue
		}
		for _, c := range ctxs {
			if r.SiteRank[c.site] == 0 || httpsim.ETLDPlusOne(host) == c.site {
				continue // first-party
			}
			dom := httpsim.ETLDPlusOne(host)
			if r.ThirdPartyInclusions[dom] == nil {
				r.ThirdPartyInclusions[dom] = map[string]bool{}
			}
			r.ThirdPartyInclusions[dom][c.site] = true
		}
	}
	return r
}

// union combines site sets.
func union(sets ...map[string]bool) map[string]bool {
	out := map[string]bool{}
	for _, s := range sets {
		for k := range s {
			out[k] = true
		}
	}
	return out
}

// bucketCounts groups a site set into per-1000-rank buckets.
func (r *ScanResult) bucketCounts(set map[string]bool) []int {
	buckets := make([]int, (r.NumSites+999)/1000)
	for site := range set {
		rank := r.SiteRank[site]
		if rank == 0 {
			continue
		}
		buckets[(rank-1)/1000]++
	}
	return buckets
}

// categoryCounts tallies inclusion categories for detector sites, split by
// first-party vs third-party deployment (Fig. 5).
func (r *ScanResult) categoryCounts() (first, third map[string]int) {
	first, third = map[string]int{}, map[string]int{}
	fpSites := map[string]bool{}
	for _, s := range r.FirstPartyScripts {
		fpSites[s.Site] = true
	}
	for site := range union(r.StaticClean, r.DynamicClean) {
		rank := r.SiteRank[site]
		if rank == 0 {
			continue
		}
		cat := r.World.Site(rank).Category
		if fpSites[site] {
			first[cat]++
		}
	}
	for _, sites := range r.ThirdPartyInclusions {
		for site := range sites {
			rank := r.SiteRank[site]
			if rank == 0 {
				continue
			}
			third[r.World.Site(rank).Category]++
		}
	}
	return first, third
}

// sortedKeysByCount orders map keys by descending count.
func sortedKeysByCount(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
