package experiments

import (
	"fmt"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// ReliabilityResult compares the vanilla (pre-hardening) and hardened crawl
// pipelines under identical fault seeds: same synthetic web, same fault
// function, two recovery strategies.
type ReliabilityResult struct {
	Sites     int
	WorldSeed int64
	FaultSeed int64

	Vanilla  *openwpm.CrawlReport
	Hardened *openwpm.CrawlReport

	// VanillaFaults and HardenedFaults tally the faults each run was
	// subjected to, by kind name. The runs share the fault function but
	// issue different requests and writes (retries, salvage), so the
	// tallies differ.
	VanillaFaults  map[string]int
	HardenedFaults map[string]int

	// VanillaTrace and HardenedTrace hold each run's flight-recorder span
	// events when ReliabilityOptions.Telemetry is set (nil otherwise).
	VanillaTrace  []telemetry.SpanEvent
	HardenedTrace []telemetry.SpanEvent

	// Interrupted is set when ReliabilityOptions.Stop ended a run early; a
	// partial experiment must not be compared (Hardened may be nil).
	Interrupted bool
}

// ReliabilityOptions configures RunReliability.
type ReliabilityOptions struct {
	NumSites int
	Profile  faults.Profile
	// Workers is the parallel worker count per run, clamped by
	// sched.Workers (zero means GOMAXPROCS). Each shard gets its own
	// injector and a proportional slice of the crawl-time budget.
	Workers int
	// DwellSeconds per page (default 5 — reliability runs don't need the
	// paper's full 60 s dwell).
	DwellSeconds float64
	// CrawlSecondsPerSite sizes the crawl-level virtual budget both
	// pipelines get (default 60 s per site). The budget is what makes hangs
	// hurt the vanilla pipeline: with no watchdog, each hang burns minutes
	// of it. It is enforced per shard (openwpm.CrawlConfig.MaxCrawlSeconds
	// of the shard's size), so which sites it skips can depend on Workers.
	CrawlSecondsPerSite float64
	// Telemetry instruments both runs. Each run gets its own fresh registry
	// (attached to its CrawlReport.Metrics) so the vanilla and hardened
	// pipelines can be compared metric by metric, not just by report.
	Telemetry bool
	// Stop, when non-nil, interrupts the experiment cooperatively: the
	// in-flight crawl halts at its next site boundary and
	// ReliabilityResult.Interrupted is set (the comparison is invalid on an
	// interrupted run — reports may be partial or missing).
	Stop <-chan struct{}
}

// RunReliability crawls the same ranked prefix twice under the same fault
// seed — once with the blind pre-hardening retry loop, once with the
// hardened pipeline (watchdog, classification, backoff, breaker, salvage) —
// and returns both crawl reports. Each run gets a fresh world and fresh
// injectors with the same seed, so both face the same fault function.
func RunReliability(worldSeed, faultSeed int64, opts ReliabilityOptions) *ReliabilityResult {
	if opts.NumSites == 0 {
		opts.NumSites = 500
	}
	if opts.DwellSeconds == 0 {
		opts.DwellSeconds = 5
	}
	if opts.CrawlSecondsPerSite == 0 {
		opts.CrawlSecondsPerSite = 60
	}
	if len(opts.Profile.Buckets) == 0 {
		opts.Profile = faults.DefaultProfile()
	}

	run := func(hardened bool) (*openwpm.CrawlReport, []telemetry.SpanEvent, map[string]int, bool) {
		world := websim.New(websim.Options{Seed: worldSeed, NumSites: opts.NumSites, AvailabilityAttacks: true})
		var tel *telemetry.Telemetry
		if opts.Telemetry {
			// one registry per run: vanilla and hardened metrics must not mix
			tel = telemetry.New()
		}
		res, err := sched.Run(sched.Crawl{
			Sites:     websim.Tranco(opts.NumSites),
			Workers:   opts.Workers,
			Telemetry: tel,
			Stop:      opts.Stop,
			Config: func(sh sched.Shard) openwpm.CrawlConfig {
				// per-shard injector (same seed: fault decisions hash the
				// request or the page position) and a budget slice
				// proportional to the shard's size
				inj := faults.NewInjector(faultSeed, opts.Profile, world)
				inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
				inj.SetTelemetry(tel)
				cfg := openwpm.CrawlConfig{
					OS: jsdom.Ubuntu, Mode: jsdom.Regular,
					Transport: inj, ClientID: "reliability-client",
					DwellSeconds:   opts.DwellSeconds,
					HTTPInstrument: true, CookieInstrument: true,
					MaxCrawlSeconds: float64(len(sh.Sites)) * opts.CrawlSecondsPerSite,
					Telemetry:       tel,
				}
				if hardened {
					cfg = cfg.Hardened()
				} else {
					cfg.BlindRetry = true
				}
				return cfg
			},
		})
		if err != nil {
			// sched.Run only fails on record-mode archive merges and resume
			// validation, neither of which this crawl uses
			panic(err)
		}
		// res.Trace is the scheduler's merged per-shard span stream: the
		// shared registry's own flight recorder stays empty now that each
		// shard records spans locally
		return res.Report, res.Trace, res.FaultKinds, res.Interrupted
	}

	vanilla, vtrace, vkinds, vint := run(false)
	r := &ReliabilityResult{
		Sites:         opts.NumSites,
		WorldSeed:     worldSeed,
		FaultSeed:     faultSeed,
		Vanilla:       vanilla,
		VanillaFaults: vkinds,
		VanillaTrace:  vtrace,
		Interrupted:   vint,
	}
	if vint {
		// the experiment is a paired comparison; an interrupted first leg
		// makes the second pointless
		return r
	}
	hardened, htrace, hkinds, hint := run(true)
	r.Hardened = hardened
	r.HardenedFaults = hkinds
	r.HardenedTrace = htrace
	r.Interrupted = hint
	return r
}

// TableReliability renders the vanilla-vs-hardened comparison.
func TableReliability(r *ReliabilityResult) *Table {
	t := &Table{
		ID:     "Reliability",
		Title:  fmt.Sprintf("Crawl completion under injected faults (%d sites, fault seed %d)", r.Sites, r.FaultSeed),
		Header: []string{"metric", "vanilla", "hardened"},
	}
	row := func(name string, f func(*openwpm.CrawlReport) any) {
		t.AddRow(name, f(r.Vanilla), f(r.Hardened))
	}
	row("completion rate", func(c *openwpm.CrawlReport) any { return fmt.Sprintf("%.1f%%", 100*c.CompletionRate()) })
	row("completed sites", func(c *openwpm.CrawlReport) any { return c.Completed })
	row("salvaged partials", func(c *openwpm.CrawlReport) any { return c.Salvaged })
	row("failed sites", func(c *openwpm.CrawlReport) any { return c.Failed })
	row("skipped (budget)", func(c *openwpm.CrawlReport) any { return c.Skipped })
	row("browser restarts", func(c *openwpm.CrawlReport) any { return c.Restarts })
	row("circuit-broken sites", func(c *openwpm.CrawlReport) any { return c.CircuitBroken })
	row("virtual seconds", func(c *openwpm.CrawlReport) any { return fmt.Sprintf("%.0f", c.VirtualSeconds+c.BackoffSeconds) })
	row("dropped writes", func(c *openwpm.CrawlReport) any { return c.DroppedWrites })
	both := map[string]int{}
	for k, n := range r.VanillaFaults {
		both[k] += n
	}
	for k, n := range r.HardenedFaults {
		both[k] += n
	}
	for _, k := range sortedKeysByCount(both) {
		t.AddRow("injected "+k+" faults", r.VanillaFaults[k], r.HardenedFaults[k])
	}
	t.Notes = append(t.Notes,
		"both pipelines face the same seeded fault function, but they issue different requests and writes, so each column counts its own injected faults; the hardened pipeline's watchdog, classification, backoff and salvage convert budget-devouring hangs and hard failures into completed or salvaged sites",
	)
	return t
}
