package experiments

import (
	"fmt"
	"sync"

	"gullible/internal/bundle"
	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/stealth"
	"gullible/internal/websim"
)

// BundleDiffResult is one offline "same site, different observer" check: a
// crawl recorded into an execution bundle, replayed against the archive
// under a variant configuration, and diffed per visit. Because the variant
// re-executes against the recorded web, every divergence is attributable to
// the observer — the sites cannot have changed between runs.
type BundleDiffResult struct {
	Sites     int
	WorldSeed int64
	Variant   string

	Base    *bundle.Bundle
	Replay  *bundle.Bundle
	Diff    *bundle.DiffReport
	Hits    int
	Misses  int
	BaseRep *openwpm.CrawlReport
	VarRep  *openwpm.CrawlReport
}

// BundleDiffOptions configures RunBundleDiff.
type BundleDiffOptions struct {
	NumSites    int
	MaxSubpages int

	// Variant selects the replay-side configuration change: "stealth"
	// (hardened instrument + automation masking), "headless" (run-mode
	// switch), "legacy" (OpenWPM 0.10.0 instrument globals) or "nohoney"
	// (honey properties removed). Default "stealth".
	Variant string

	// FaultProfile, when non-nil, records the base crawl under seeded fault
	// injection (the faults are archived and replayed too).
	FaultProfile *faults.Profile
	FaultSeed    int64

	// MissPolicy for the variant replay (default synthesize-404: variant
	// observers may issue requests the recording crawl never made).
	MissPolicy bundle.MissPolicy
}

// VariantMutator returns the configuration change for a named replay
// variant (shared with cmd/wpmbundle's replay subcommand).
func VariantMutator(variant string) (func(*openwpm.CrawlConfig), error) {
	switch variant {
	case "stealth":
		return func(c *openwpm.CrawlConfig) { c.Stealth = stealth.New() }, nil
	case "headless":
		return func(c *openwpm.CrawlConfig) { c.Mode = jsdom.Headless }, nil
	case "legacy":
		return func(c *openwpm.CrawlConfig) { c.LegacyInstrumentGlobals = true }, nil
	case "nohoney":
		return func(c *openwpm.CrawlConfig) { c.HoneyProps = 0 }, nil
	}
	return nil, fmt.Errorf("experiments: unknown bundle-diff variant %q (want stealth, headless, legacy or nohoney)", variant)
}

// Replay re-executes b offline through sched.Run. c supplies the worker
// count, recording and telemetry (Workers, Record, BundleMeta, Telemetry,
// DetachMetrics); Replay fills in the sites and a Config that gives every
// shard b's recorded configuration, changed by mutate when non-nil, served by
// its own bundle.ReplayTransport. hits and misses are summed over those
// transports. Storage drops replay by page position, so the result is the
// same at any worker count.
func Replay(b *bundle.Bundle, policy bundle.MissPolicy, mutate func(*openwpm.CrawlConfig), c sched.Crawl) (res *sched.Result, hits, misses int, err error) {
	var (
		mu  sync.Mutex // Config runs on the worker goroutines
		rts []*bundle.ReplayTransport
	)
	c.Sites = b.Sites
	c.Config = func(sched.Shard) openwpm.CrawlConfig {
		cfg := b.Config.CrawlConfig()
		rt := bundle.NewReplayTransport(b, policy, nil)
		mu.Lock()
		rts = append(rts, rt)
		mu.Unlock()
		cfg.Transport = rt
		if mutate != nil {
			mutate(&cfg)
		}
		cfg.Telemetry = c.Telemetry
		return cfg
	}
	res, err = sched.Run(c)
	for _, rt := range rts {
		hits += rt.Hits
		misses += rt.Misses
	}
	return res, hits, misses, err
}

// RunBundleDiff records a vanilla Sec. 4 scan configuration into a bundle,
// replays the archive under a variant observer, and returns the structured
// per-visit diff — the paper's gullibility checks without a second live
// crawl.
func RunBundleDiff(worldSeed int64, opts BundleDiffOptions) (*BundleDiffResult, error) {
	if opts.NumSites == 0 {
		opts.NumSites = 30
	}
	if opts.MaxSubpages == 0 {
		opts.MaxSubpages = 2
	}
	if opts.Variant == "" {
		opts.Variant = "stealth"
	}
	if opts.MissPolicy == bundle.MissFail {
		opts.MissPolicy = bundle.MissSynthesize404
	}
	mutate, err := VariantMutator(opts.Variant)
	if err != nil {
		return nil, err
	}

	world := websim.New(websim.Options{Seed: worldSeed, NumSites: opts.NumSites, AvailabilityAttacks: true})
	cfg := scanCrawlConfig(world, opts.MaxSubpages)
	cfg.DwellSeconds = 5 // offline checks don't need the paper's 60 s dwell
	meta := map[string]string{
		"experiment": "bundlediff",
		"worldSeed":  fmt.Sprint(worldSeed),
		"variant":    opts.Variant,
	}
	if opts.FaultProfile != nil {
		inj := faults.NewInjector(opts.FaultSeed, *opts.FaultProfile, world)
		inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
		cfg.Transport = inj
		cfg = cfg.Hardened()
		meta["faultSeed"] = fmt.Sprint(opts.FaultSeed)
	}

	recorded, err := sched.Run(sched.Crawl{
		Sites: websim.Tranco(opts.NumSites), Workers: 1, Record: true, BundleMeta: meta,
		Config: func(sched.Shard) openwpm.CrawlConfig { return cfg },
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: record base crawl: %w", err)
	}
	base := recorded.Bundle

	replayed, hits, misses, err := Replay(base, opts.MissPolicy, mutate, sched.Crawl{Workers: 1, Record: true, BundleMeta: meta})
	if err != nil {
		return nil, fmt.Errorf("experiments: replay variant crawl: %w", err)
	}

	return &BundleDiffResult{
		Sites:     opts.NumSites,
		WorldSeed: worldSeed,
		Variant:   opts.Variant,
		Base:      base,
		Replay:    replayed.Bundle,
		Diff:      bundle.Diff(base, replayed.Bundle),
		Hits:      hits,
		Misses:    misses,
		BaseRep:   recorded.Report,
		VarRep:    replayed.Report,
	}, nil
}

// TableBundleDiff renders the offline observer-divergence summary.
func TableBundleDiff(r *BundleDiffResult) *Table {
	t := &Table{
		ID:     "BundleDiff",
		Title:  fmt.Sprintf("Offline replay divergence, %q variant (%d sites, world seed %d)", r.Variant, r.Sites, r.WorldSeed),
		Header: []string{"metric", "value"},
	}
	symbols := map[string]bool{}
	reqA, reqB, bodies, cookies, outcomes := 0, 0, 0, 0, 0
	for _, v := range r.Diff.Visits {
		reqA += len(v.RequestsOnlyInA)
		reqB += len(v.RequestsOnlyInB)
		bodies += len(v.BodyChanged)
		cookies += len(v.CookiesOnlyInA) + len(v.CookiesOnlyInB)
		if v.OutcomeA != "" || v.OutcomeB != "" {
			outcomes++
		}
		for _, s := range v.JSSymbols {
			symbols[s.Symbol] = true
		}
	}
	t.AddRow("visits compared", len(r.Base.Visits))
	t.AddRow("visits differing", len(r.Diff.Visits))
	t.AddRow("config changes", len(r.Diff.ConfigChanges))
	t.AddRow("requests only in base", reqA)
	t.AddRow("requests only in variant", reqB)
	t.AddRow("bodies changed", bodies)
	t.AddRow("js symbols diverging", len(symbols))
	t.AddRow("cookie deltas", cookies)
	t.AddRow("outcome changes", outcomes)
	t.AddRow("replay hits / misses", fmt.Sprintf("%d / %d", r.Hits, r.Misses))
	t.Notes = append(t.Notes,
		"both observers executed against the identical archived web: every divergence is caused by the observer, not site churn",
	)
	return t
}
