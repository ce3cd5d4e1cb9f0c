package bundle

import (
	"testing"

	"gullible/internal/analysis"
	"gullible/internal/openwpm"
)

// tamperedConfig attaches the AST tamper analyser to the test crawl.
func tamperedConfig(seed int64, numSites int) (openwpm.CrawlConfig, []string) {
	cfg, urls := testConfig(seed, numSites)
	cfg.Tamper = analysis.TamperRecorder
	return cfg, urls
}

func TestRecordReplayTamperIdentity(t *testing.T) {
	cfg, urls := tamperedConfig(23, 8)
	b, _, tm, err := recordCrawl(cfg, urls, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if !b.Config.TamperAnalysis {
		t.Fatal("bundle config should record the tamper analyser")
	}
	if len(tm.Storage.Tampers) == 0 {
		t.Fatal("crawl stored no tamper records; the synthetic web always serves detectors")
	}
	recorded := 0
	for _, v := range b.Visits {
		recorded += len(v.Tampers)
	}
	if recorded != len(tm.Storage.Tampers) {
		t.Fatalf("bundle archived %d tamper records, storage holds %d", recorded, len(tm.Storage.Tampers))
	}

	// Replay re-attaches the analyser automatically (Config.TamperAnalysis):
	// the static findings must reproduce byte-for-byte.
	b2, _, tm2 := recordReplay(t, b)
	if d1, d2 := tm.Storage.Digest(), tm2.Storage.Digest(); d1 != d2 {
		t.Fatalf("storage digest (tamper table included) differs: %s vs %s", d1, d2)
	}
	if d := Diff(b, b2); !d.Empty() {
		t.Fatalf("tamper-analysing replay differs from recording:\n%s", d)
	}
}

func TestDiffFlagsTamperDivergence(t *testing.T) {
	cfg, urls := tamperedConfig(23, 6)
	b, _, _, err := recordCrawl(cfg, urls, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	// variant replay with the analyser detached: every archived finding
	// becomes an A-only delta and the config change is surfaced
	rec := NewRecorder(nil)
	rep, tm, _ := replayCrawl(b, MissFail, func(c *openwpm.CrawlConfig) {
		c.Tamper = nil
		c.Recorder = rec
	})
	b2, err := Finalize([]*Recorder{rec}, tm.Cfg, b.Sites, tm.Storage, rep)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	d := Diff(b, b2)
	if d.Empty() {
		t.Fatal("diff should flag the missing tamper table")
	}
	foundCfg := false
	for _, c := range d.ConfigChanges {
		if c == "tamperAnalysis: true → false" {
			foundCfg = true
		}
	}
	if !foundCfg {
		t.Errorf("config diff missing tamperAnalysis change: %v", d.ConfigChanges)
	}
	foundTamper := false
	for _, v := range d.Visits {
		if len(v.TampersOnlyInA) > 0 {
			foundTamper = true
		}
		if len(v.TampersOnlyInB) > 0 {
			t.Errorf("variant without analyser produced findings: %v", v.TampersOnlyInB)
		}
	}
	if !foundTamper {
		t.Error("no per-visit tamper deltas surfaced")
	}
}
