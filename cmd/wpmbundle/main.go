// Command wpmbundle manages execution bundles — self-contained, replayable
// archives of a crawl (internal/bundle).
//
//	wpmbundle record -sites 50 -out crawl.bundle.json
//	wpmbundle replay -in crawl.bundle.json -variant stealth -out replay.bundle.json
//	wpmbundle diff   -a crawl.bundle.json -b replay.bundle.json
//	wpmbundle verify -in crawl.bundle.json
//
// record runs a crawl of the synthetic web (optionally under seeded fault
// injection) and archives it; replay re-executes a bundle offline, possibly
// under a variant observer configuration; diff compares two bundles per
// visit; verify checks a bundle's integrity digest, content pool and
// storage-drop table.
package main

import (
	"flag"
	"fmt"
	"os"

	"gullible/internal/bundle"
	"gullible/internal/experiments"
	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/websim"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wpmbundle <record|replay|diff|verify> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpmbundle %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	sites := fs.Int("sites", 50, "number of ranked sites to crawl")
	subpages := fs.Int("subpages", 2, "maximum subpages per site")
	seed := fs.Int64("seed", 42, "world seed")
	dwell := fs.Float64("dwell-s", 5, "post-load dwell per page in virtual seconds")
	faultMode := fs.String("faults", "off", "fault profile to inject: off|default|heavy")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector seed")
	out := fs.String("out", "crawl.bundle.json", "output bundle path")
	fs.Parse(args)

	world := websim.New(websim.Options{Seed: *seed, NumSites: *sites, AvailabilityAttacks: true})
	cfg := openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: world, ClientID: "wpmbundle-client",
		DwellSeconds: *dwell,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true, HoneyProps: 4,
		MaxSubpages: *subpages,
	}
	meta := map[string]string{
		"tool": "wpmbundle", "worldSeed": fmt.Sprint(*seed), "faults": *faultMode,
	}
	p, err := faults.ProfileNamed(*faultMode)
	if err != nil {
		return err
	}
	if p != nil {
		inj := faults.NewInjector(*faultSeed, *p, world)
		inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
		cfg.Transport = inj
		cfg = cfg.Hardened()
		meta["faultSeed"] = fmt.Sprint(*faultSeed)
	}

	res, err := sched.Run(sched.Crawl{
		Sites: websim.Tranco(*sites), Workers: 1, Record: true, BundleMeta: meta,
		Config: func(sched.Shard) openwpm.CrawlConfig { return cfg },
	})
	if err != nil {
		return err
	}
	if err := res.Bundle.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, res.Report.String())
	fmt.Printf("%s\nwrote %s (digest %s)\n", res.Bundle.Stats(), *out, res.Bundle.Digest)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "bundle to replay (required)")
	out := fs.String("out", "", "record the replay into a new bundle at this path")
	variant := fs.String("variant", "", "observer variant: stealth|headless|legacy|nohoney (default: identical config)")
	missMode := fs.String("miss", "fail", "miss policy: fail|synthesize-404")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	policy, err := bundle.ParseMissPolicy(*missMode)
	if err != nil {
		return err
	}
	if policy == bundle.MissPassthrough {
		return fmt.Errorf("-miss passthrough forwards misses to a live web, and an offline replay has none (wpmscan -replay-bundle has)")
	}

	b, err := bundle.ReadFile(*in)
	if err != nil {
		return err
	}
	var mutate func(*openwpm.CrawlConfig)
	if *variant != "" {
		if mutate, err = experiments.VariantMutator(*variant); err != nil {
			return err
		}
	}

	res, hits, misses, err := experiments.Replay(b, policy, mutate, sched.Crawl{Record: *out != "", BundleMeta: b.Manifest.Meta})
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, res.Report.String())
	fmt.Printf("replayed %d sites: %d archive hits, %d misses (policy %s)\n",
		len(b.Sites), hits, misses, policy)
	if *out != "" {
		if err := res.Bundle.WriteFile(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s (digest %s)\n", *out, res.Bundle.Digest)
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	a := fs.String("a", "", "first bundle (required)")
	b := fs.String("b", "", "second bundle (required)")
	fs.Parse(args)
	if *a == "" || *b == "" {
		return fmt.Errorf("-a and -b are required")
	}
	ba, err := bundle.ReadFile(*a)
	if err != nil {
		return err
	}
	bb, err := bundle.ReadFile(*b)
	if err != nil {
		return err
	}
	d := bundle.Diff(ba, bb)
	fmt.Print(d.String())
	if !d.Empty() {
		os.Exit(1) // diff convention: nonzero when the inputs differ
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "bundle to verify (required)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	b, err := bundle.ReadFile(*in) // ReadFile verifies digest, pool, drops and report
	if err != nil {
		return err
	}
	fmt.Printf("%s\nok: digest %s\n", b.Stats(), b.Digest)
	return nil
}
