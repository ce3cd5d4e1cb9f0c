package experiments

import (
	"testing"

	"gullible/internal/bundle"
	"gullible/internal/faults"
	"gullible/internal/sched"
)

func TestRunBundleDiffStealthVariantDiverges(t *testing.T) {
	r, err := RunBundleDiff(3, BundleDiffOptions{NumSites: 12, MaxSubpages: 1, Variant: "stealth"})
	if err != nil {
		t.Fatalf("RunBundleDiff: %v", err)
	}
	if err := r.Base.Verify(); err != nil {
		t.Fatalf("base bundle failed verification: %v", err)
	}
	if err := r.Replay.Verify(); err != nil {
		t.Fatalf("replay bundle failed verification: %v", err)
	}
	if r.Diff.Empty() {
		t.Fatal("stealth variant replay produced an empty diff — the observers should diverge")
	}
	if len(r.Diff.ConfigChanges) == 0 {
		t.Fatalf("diff missed the stealth config change:\n%s", r.Diff)
	}
	// the hardened instrument masks automation markers and removes the honey
	// properties, so per-symbol JS tallies must differ on some visit
	symbols := 0
	for _, v := range r.Diff.Visits {
		symbols += len(v.JSSymbols)
	}
	if symbols == 0 {
		t.Fatalf("stealth variant changed no JS-symbol tallies:\n%s", r.Diff)
	}
	if r.Hits == 0 {
		t.Fatal("variant replay never hit the archive")
	}
	if got := TableBundleDiff(r).String(); got == "" {
		t.Fatal("TableBundleDiff rendered nothing")
	}
}

func TestRunBundleDiffUnderFaults(t *testing.T) {
	p := faults.DefaultProfile()
	r, err := RunBundleDiff(9, BundleDiffOptions{
		NumSites: 10, MaxSubpages: 1, Variant: "nohoney",
		FaultProfile: &p, FaultSeed: 77,
		MissPolicy: bundle.MissSynthesize404,
	})
	if err != nil {
		t.Fatalf("RunBundleDiff: %v", err)
	}
	if r.Diff.Empty() {
		t.Fatal("nohoney variant under faults produced an empty diff")
	}
	if !r.BaseRep.Accounted() || !r.VarRep.Accounted() {
		t.Fatal("a crawl report lost sites")
	}
}

func TestRunBundleDiffRejectsUnknownVariant(t *testing.T) {
	if _, err := RunBundleDiff(1, BundleDiffOptions{NumSites: 2, Variant: "bogus"}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestReplayKeepsRecordedStealth: a WPM_hide recording replayed with no
// variant runs the stealth instrument it recorded, so re-recording it
// reproduces the bundle byte for byte.
func TestReplayKeepsRecordedStealth(t *testing.T) {
	r, err := RunBundleDiff(7, BundleDiffOptions{NumSites: 6, MaxSubpages: 1, Variant: "stealth"})
	if err != nil {
		t.Fatalf("RunBundleDiff: %v", err)
	}
	if !r.Replay.Config.Stealth {
		t.Fatal("the stealth replay's bundle does not record the stealth instrument")
	}
	res, _, _, err := Replay(r.Replay, bundle.MissSynthesize404, nil, sched.Crawl{
		Workers: 1, Record: true, BundleMeta: r.Replay.Manifest.Meta,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Bundle.Digest != r.Replay.Digest {
		t.Fatalf("re-recorded digest %s != recorded %s:\n%s",
			res.Bundle.Digest, r.Replay.Digest, bundle.Diff(r.Replay, res.Bundle))
	}
}
