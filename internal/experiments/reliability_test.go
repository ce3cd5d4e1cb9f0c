package experiments

import (
	"reflect"
	"strings"
	"testing"

	"gullible/internal/faults"
	"gullible/internal/websim"
)

// TestFaultedScanAccountingAndDeterminism is the acceptance criterion for the
// fault-injection harness: a seeded profile over a 500-site scan must inject
// at least four distinct fault kinds, account for every input site, and
// reproduce the identical crawl report byte-for-byte under the same seed.
func TestFaultedScanAccountingAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic-web crawl; skipped in -short mode (verify.sh races the whole repo short, the long tier runs it in full)")
	}
	const sites = 500
	run := func() *ScanResult {
		world := websim.New(websim.Options{Seed: 42, NumSites: sites})
		p := faults.DefaultProfile()
		r, err := RunScanObserved(world, sites, ScanOptions{
			MaxSubpages:     0,
			FaultProfile:    &p,
			FaultSeed:       9,
			MaxVisitSeconds: 90,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := run()
	rep := a.Report

	if rep.Sites != sites || !rep.Accounted() {
		t.Fatalf("site accounting broken: %+v", rep)
	}

	// no site is silently lost: every Tranco URL has a front-page visit record
	front := map[string]bool{}
	for _, v := range a.Storage.Visits {
		if !v.Subpage {
			front[v.SiteURL] = true
		}
	}
	for _, u := range websim.Tranco(sites) {
		if !front[u] {
			t.Fatalf("site %s has no visit record", u)
		}
	}

	kinds := 0
	for _, n := range a.FaultKinds {
		if n > 0 {
			kinds++
		}
	}
	if kinds < 4 {
		t.Fatalf("only %d fault kinds injected, want ≥ 4: %v", kinds, a.FaultKinds)
	}
	if rep.Restarts == 0 || rep.Completed == 0 {
		t.Fatalf("implausible crawl under faults: %+v", rep)
	}

	b := run()
	if rep.String() != b.Report.String() {
		t.Fatalf("same seed produced different reports:\n%s\n%s", rep, b.Report)
	}
	if !reflect.DeepEqual(a.FaultKinds, b.FaultKinds) {
		t.Fatalf("same seed injected different faults: %v vs %v", a.FaultKinds, b.FaultKinds)
	}
}

// TestRunReliabilityHardenedVsVanilla checks the vanilla-vs-hardened
// comparison: same fault function, the hardened pipeline keeps at least as
// many sites as the blind-retry one, and each table column reports its own
// run's injected faults. Every injected storage fault drops exactly one
// write, so in each column the two counts must agree.
func TestRunReliabilityHardenedVsVanilla(t *testing.T) {
	r := RunReliability(42, 7, ReliabilityOptions{NumSites: 60})
	if r.Vanilla.Sites != 60 || r.Hardened.Sites != 60 {
		t.Fatalf("site counts: vanilla %d hardened %d", r.Vanilla.Sites, r.Hardened.Sites)
	}
	if !r.Vanilla.Accounted() || !r.Hardened.Accounted() {
		t.Fatalf("unaccounted reports:\nvanilla %+v\nhardened %+v", r.Vanilla, r.Hardened)
	}
	if len(r.VanillaFaults) == 0 || len(r.HardenedFaults) == 0 {
		t.Fatal("no faults recorded — the comparison measured nothing")
	}
	if r.Hardened.CompletionRate() < r.Vanilla.CompletionRate() {
		t.Fatalf("hardened pipeline completed less than vanilla: %.3f < %.3f",
			r.Hardened.CompletionRate(), r.Vanilla.CompletionRate())
	}
	tbl := TableReliability(r)
	for _, want := range []string{"completion rate", "vanilla", "hardened"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("reliability table missing %q:\n%s", want, tbl)
		}
	}
	rows := map[string][]string{}
	for _, row := range tbl.Rows {
		rows[row[0]] = row[1:]
	}
	dropped, injected := rows["dropped writes"], rows["injected storage faults"]
	if injected == nil || dropped[0] == "0" && dropped[1] == "0" {
		t.Fatalf("no storage faults injected — the column check measures nothing:\n%s", tbl)
	}
	for i, run := range []string{"vanilla", "hardened"} {
		if injected[i] != dropped[i] {
			t.Errorf("%s column: %s injected storage faults but %s dropped writes", run, injected[i], dropped[i])
		}
	}
}
