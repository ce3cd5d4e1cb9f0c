package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"gullible/internal/bundle"
	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/websim"
)

// replayRunGolden is one replay of a recorded bundle, itself re-recorded.
type replayRunGolden struct {
	Variant string `json:"variant"`
	Digest  string `json:"digest"`
	Hits    int    `json:"hits"`
	Misses  int    `json:"misses"`
	Report  string `json:"report"`
}

// recordGolden is one `wpmbundle record` crawl and its replays.
type recordGolden struct {
	Faults  string            `json:"faults"`
	Digest  string            `json:"digest"`
	Report  string            `json:"report"`
	Replays []replayRunGolden `json:"replays"`
}

// bundleDiffGolden is one RunBundleDiff result.
type bundleDiffGolden struct {
	Variant      string `json:"variant"`
	BaseDigest   string `json:"base_digest"`
	ReplayDigest string `json:"replay_digest"`
	Hits         int    `json:"hits"`
	Misses       int    `json:"misses"`
	Diff         string `json:"diff"`
}

// replayGolden is the frozen record of every record and replay shape the
// command-line tools, the quickstart and the daemon produce, captured from
// the serial recorder that preceded the scheduler-driven one. There is
// deliberately no update flag: a diff means an archive changed bytes.
type replayGolden struct {
	WorldSeed  int64            `json:"world_seed"`
	Sites      int              `json:"sites"`
	Subpages   int              `json:"subpages"`
	FaultSeed  int64            `json:"fault_seed"`
	Records    []recordGolden   `json:"records"`
	BundleDiff bundleDiffGolden `json:"bundle_diff"`
}

const replayGoldenPath = "testdata/replay.golden.json"

// replayGoldenVariants are the replay observers the golden pins per bundle:
// the identical configuration plus every VariantMutator variant.
var replayGoldenVariants = []string{"none", "stealth", "headless", "legacy", "nohoney"}

// wpmbundleCrawl is `wpmbundle record`'s crawl at the golden's scale: its
// configuration, optionally under a seeded fault profile and hardening.
func wpmbundleCrawl(g replayGolden, faultMode string) (sched.Crawl, error) {
	p, err := faults.ProfileNamed(faultMode)
	if err != nil {
		return sched.Crawl{}, err
	}
	meta := map[string]string{
		"tool": "wpmbundle", "worldSeed": fmt.Sprint(g.WorldSeed), "faults": faultMode,
	}
	if p != nil {
		meta["faultSeed"] = fmt.Sprint(g.FaultSeed)
	}
	return sched.Crawl{
		Sites: websim.Tranco(g.Sites), Workers: 1, Record: true, BundleMeta: meta,
		Config: func(sched.Shard) openwpm.CrawlConfig {
			world := websim.New(websim.Options{Seed: g.WorldSeed, NumSites: g.Sites, AvailabilityAttacks: true})
			cfg := openwpm.CrawlConfig{
				OS: jsdom.Ubuntu, Mode: jsdom.Regular,
				Transport: world, ClientID: "wpmbundle-client",
				DwellSeconds: 5,
				JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
				HTTPFilterJSOnly: true, HoneyProps: 4,
				MaxSubpages: g.Subpages,
			}
			if p != nil {
				inj := faults.NewInjector(g.FaultSeed, *p, world)
				inj.RankOf = func(u string) int { return websim.RankOf(httpsim.Host(u)) }
				cfg.Transport = inj
				cfg = cfg.Hardened()
			}
			return cfg
		},
	}, nil
}

// replayRun replays b under a variant observer (strict miss policy, as
// `wpmbundle replay` defaults to) and re-records the replay, through Replay
// at one worker or, for workers > 1, through the same path unpinned.
func replayRun(t *testing.T, b *bundle.Bundle, variant string, workers int) replayRunGolden {
	t.Helper()
	var mutate func(*openwpm.CrawlConfig)
	if variant != "none" {
		m, err := VariantMutator(variant)
		if err != nil {
			t.Fatal(err)
		}
		mutate = m
	}
	replay := Replay
	if workers > 1 {
		replay = replayAt
	}
	res, hits, misses, err := replay(b, bundle.MissFail, mutate,
		sched.Crawl{Workers: workers, Record: true, BundleMeta: b.Manifest.Meta})
	if err != nil {
		t.Fatalf("replay %s at %d workers: %v", variant, workers, err)
	}
	if res.Workers != workers {
		t.Fatalf("replay %s ran %d workers, want %d", variant, res.Workers, workers)
	}
	return replayRunGolden{Variant: variant, Digest: res.Bundle.Digest, Hits: hits, Misses: misses, Report: res.Report.String()}
}

// TestReplayGolden pins the bytes of every one-worker record and replay:
// `wpmbundle record` with faults off and under the default profile, each
// bundle replayed and re-recorded under every observer variant, and a
// stealth RunBundleDiff. An identity replay is the same at any width, so
// each bundle's "none" replay at two workers must match the one-worker row.
func TestReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve synthetic-web crawls; skipped in -short mode")
	}
	raw, err := os.ReadFile(replayGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want replayGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode %s: %v", replayGoldenPath, err)
	}
	if len(want.Records) != 2 {
		t.Fatalf("golden has %d recordings, want faults off and default", len(want.Records))
	}
	for _, rg := range want.Records {
		crawl, err := wpmbundleCrawl(want, rg.Faults)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(crawl)
		if err != nil {
			t.Fatalf("record faults=%s: %v", rg.Faults, err)
		}
		if res.Bundle.Digest != rg.Digest {
			t.Errorf("faults=%s: bundle digest %s, golden %s", rg.Faults, res.Bundle.Digest, rg.Digest)
		}
		if got := res.Report.String(); got != rg.Report {
			t.Errorf("faults=%s: report diverges:\ngot:\n%s\ngolden:\n%s", rg.Faults, got, rg.Report)
		}
		if len(rg.Replays) != len(replayGoldenVariants) {
			t.Fatalf("faults=%s: golden has %d replays, want %d", rg.Faults, len(rg.Replays), len(replayGoldenVariants))
		}
		for i, variant := range replayGoldenVariants {
			if got := replayRun(t, res.Bundle, variant, 1); got != rg.Replays[i] {
				t.Errorf("faults=%s: replay diverges:\ngot:    %+v\ngolden: %+v", rg.Faults, got, rg.Replays[i])
			}
		}
		if got := replayRun(t, res.Bundle, "none", 2); got != rg.Replays[0] {
			t.Errorf("faults=%s: two-worker identity replay diverges from the one-worker row:\ngot:    %+v\ngolden: %+v", rg.Faults, got, rg.Replays[0])
		}
	}

	d, err := RunBundleDiff(want.WorldSeed, BundleDiffOptions{NumSites: want.Sites, Variant: want.BundleDiff.Variant})
	if err != nil {
		t.Fatalf("RunBundleDiff: %v", err)
	}
	got := bundleDiffGolden{
		Variant:    want.BundleDiff.Variant,
		BaseDigest: d.Base.Digest, ReplayDigest: d.Replay.Digest,
		Hits: d.Hits, Misses: d.Misses, Diff: d.Diff.String(),
	}
	if got != want.BundleDiff {
		t.Errorf("bundle diff diverges:\ngot:    %+v\ngolden: %+v", got, want.BundleDiff)
	}
}
