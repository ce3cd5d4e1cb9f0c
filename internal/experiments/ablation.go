package experiments

import (
	"gullible/internal/httpsim"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/websim"
)

// AblationMethods quantifies what each analysis method contributes — the
// methodological point behind Table 5 and the paper's Sec. 8 advice. It
// scans the top n sites four ways and reports detector-site recovery
// against the generator's ground truth:
//
//   - static only (code patterns on collected files)
//   - dynamic only (recorded calls)
//   - combined (the paper's method)
//   - combined + interaction simulation (executes hover-gated detectors,
//     an extension beyond the paper)
func AblationMethods(world *websim.World, n int) *Table {
	t := &Table{
		ID:     "Ablation",
		Title:  "Analysis-method coverage of ground-truth detector sites",
		Header: []string{"method", "sites found", "ground truth", "recall"},
	}

	// ground truth: sites deploying any detector
	truth := map[string]bool{}
	for rank := 1; rank <= n; rank++ {
		if world.Site(rank).HasAnyDetector() {
			truth[httpsim.ETLDPlusOne(websim.SiteDomain(rank))] = true
		}
	}

	// baseline scan (no interaction)
	base := RunScan(world, n, 3, nil)

	// interaction scan
	cfg := scanCrawlConfig(world, 3)
	cfg.SimulateInteraction = true
	res, err := sched.Run(sched.Crawl{
		Sites: websim.Tranco(n), Workers: 1,
		Config: func(sched.Shard) openwpm.CrawlConfig { return cfg },
	})
	if err != nil {
		panic(err)
	}
	tm := openwpm.NewTaskManager(cfg)
	tm.Storage = res.Storage
	inter := Analyze(world, tm, n)

	row := func(name string, found map[string]bool) {
		hits := 0
		for site := range found {
			if truth[site] {
				hits++
			}
		}
		t.AddRow(name, len(found), len(truth), pct(hits, len(truth)))
	}
	row("static only", base.StaticClean)
	row("dynamic only", base.DynamicClean)
	row("dynamic + interaction", inter.DynamicClean)
	row("combined (paper)", union(base.StaticClean, base.DynamicClean))
	row("combined + interaction", union(inter.StaticClean, inter.DynamicClean))
	t.Notes = append(t.Notes,
		"interaction simulation executes hover-gated detectors that dynamic analysis otherwise misses — but cannot help with CSP-shielded pages, where the vanilla instrument never installs")
	return t
}
