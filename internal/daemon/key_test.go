package daemon

import (
	"encoding/json"
	"strings"
	"testing"

	"gullible/internal/websim"
)

// mustAddr computes a spec's content address or fails the test.
func mustAddr(t *testing.T, s JobSpec) string {
	t.Helper()
	addr, _, err := ContentAddress(s)
	if err != nil {
		t.Fatalf("ContentAddress(%+v): %v", s, err)
	}
	return addr
}

// decodeSpec parses a wire-format JSON job spec.
func decodeSpec(t *testing.T, raw string) JobSpec {
	t.Helper()
	var s JobSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return s
}

func TestContentAddressFieldOrderInvariant(t *testing.T) {
	a := decodeSpec(t, `{"kind":"crawl","numSites":5,"seed":7,"maxSubpages":2}`)
	b := decodeSpec(t, `{"maxSubpages":2,"seed":7,"numSites":5,"kind":"crawl"}`)
	if mustAddr(t, a) != mustAddr(t, b) {
		t.Fatal("field order changed the content address")
	}
}

func TestContentAddressDefaultsExplicit(t *testing.T) {
	implicit := JobSpec{Kind: KindCrawl, NumSites: 5}
	explicit := JobSpec{
		Kind: KindCrawl, NumSites: 5, Seed: DefaultSeed,
		MaxSubpages: DefaultMaxSubpages, Faults: DefaultFaults,
	}
	if mustAddr(t, implicit) != mustAddr(t, explicit) {
		t.Fatal("spelling out the defaults changed the content address")
	}
}

func TestContentAddressSiteListWhitespace(t *testing.T) {
	sites := websim.Tranco(3)
	clean := JobSpec{Kind: KindCrawl, Sites: sites}
	messy := JobSpec{Kind: KindCrawl, Sites: []string{
		" " + sites[0], sites[1] + "\t", "", "  ", sites[2],
	}}
	if mustAddr(t, clean) != mustAddr(t, messy) {
		t.Fatal("site-list whitespace changed the content address")
	}
}

func TestContentAddressRankedShorthand(t *testing.T) {
	short := JobSpec{Kind: KindCrawl, NumSites: 4}
	long := JobSpec{Kind: KindCrawl, Sites: websim.Tranco(4)}
	if mustAddr(t, short) != mustAddr(t, long) {
		t.Fatal("numSites shorthand and the explicit ranked list hashed differently")
	}
}

func TestContentAddressSplitsOnMeaning(t *testing.T) {
	base := JobSpec{Kind: KindCrawl, NumSites: 5}
	distinct := []JobSpec{
		{Kind: KindCrawl, NumSites: 5, Seed: 43},
		{Kind: KindCrawl, NumSites: 6},
		{Kind: KindCrawl, NumSites: 5, MaxSubpages: 1},
		{Kind: KindCrawl, NumSites: 5, Faults: "default"},
		{Kind: KindCrawl, NumSites: 5, Faults: "heavy", FaultSeed: 9},
		{Kind: KindDiff, NumSites: 5},
		{Kind: KindAgreement, NumSites: 5},
	}
	seen := map[string]bool{mustAddr(t, base): true}
	for _, s := range distinct {
		a := mustAddr(t, s)
		if seen[a] {
			t.Errorf("spec %+v collided with an earlier address", s)
		}
		seen[a] = true
	}
}

func TestContentAddressIgnoresUnusedFaultSeed(t *testing.T) {
	a := JobSpec{Kind: KindCrawl, NumSites: 5}
	b := JobSpec{Kind: KindCrawl, NumSites: 5, FaultSeed: 99} // faults off
	if mustAddr(t, a) != mustAddr(t, b) {
		t.Fatal("fault seed split the cache although fault injection is off")
	}
	c := JobSpec{Kind: KindCrawl, NumSites: 5, Faults: "default"}
	d := JobSpec{Kind: KindCrawl, NumSites: 5, Faults: "default", FaultSeed: 99}
	if mustAddr(t, c) == mustAddr(t, d) {
		t.Fatal("fault seed ignored although fault injection is on")
	}
}

func TestCanonicalizeReplay(t *testing.T) {
	c, err := Canonicalize(JobSpec{Kind: KindReplay, Source: " abc "})
	if err != nil {
		t.Fatal(err)
	}
	if c.Source != "abc" || c.Miss != DefaultMiss || c.Variant != DefaultVariant {
		t.Fatalf("replay canonical form %+v", c)
	}
	if c.NumSites != 0 || c.Seed != 0 || len(c.Sites) != 0 {
		t.Fatalf("replay canonical form kept crawl-only fields: %+v", c)
	}
	if _, err := Canonicalize(JobSpec{Kind: KindReplay}); err == nil {
		t.Fatal("replay without a source was accepted")
	}
}

func TestCanonicalizeAgreementZeroesUnusedKnobs(t *testing.T) {
	a := JobSpec{Kind: KindAgreement, NumSites: 5}
	b := JobSpec{Kind: KindAgreement, NumSites: 5, MaxSubpages: 9, MaxVisitSeconds: 3, Faults: "heavy", FaultSeed: 7}
	if mustAddr(t, a) != mustAddr(t, b) {
		t.Fatal("agreement jobs split on knobs the experiment does not consume")
	}
}

func TestCanonicalizeErrors(t *testing.T) {
	bad := []JobSpec{
		{},
		{Kind: "mine-bitcoin"},
		{Kind: KindCrawl},
		{Kind: KindCrawl, NumSites: maxSites + 1},
		{Kind: KindCrawl, NumSites: 5, Faults: "catastrophic"},
		{Kind: KindReplay, Source: "abc", Miss: "guess"},
		{Kind: KindReplay, Source: "abc", Variant: "invisible"},
		{Kind: KindDiff, NumSites: 3, Variant: "none"},
		{Kind: KindDiff, Sites: []string{"https://example.com/"}},
	}
	for _, s := range bad {
		if _, err := Canonicalize(s); err == nil {
			t.Errorf("Canonicalize(%+v) accepted a bad spec", s)
		}
	}
}

func TestUnknownFaultProfileListsNames(t *testing.T) {
	_, err := Canonicalize(JobSpec{Kind: KindCrawl, NumSites: 5, Faults: "catastrophic"})
	if err == nil || !strings.Contains(err.Error(), "off, default or heavy") {
		t.Fatalf("unknown fault profile error = %v; want it to list the valid names", err)
	}
}

func TestDiffRejectsCustomSiteList(t *testing.T) {
	sites := websim.Tranco(3)
	// the exact ranked prefix is fine...
	if _, err := Canonicalize(JobSpec{Kind: KindDiff, Sites: sites}); err != nil {
		t.Fatalf("ranked prefix rejected: %v", err)
	}
	// ...but a reordering is a different crawl than the experiment runs
	swapped := []string{sites[1], sites[0], sites[2]}
	if _, err := Canonicalize(JobSpec{Kind: KindDiff, Sites: swapped}); err == nil {
		t.Fatal("diff accepted a non-ranked site list")
	}
}

func TestCrawlAcceptsCustomSiteList(t *testing.T) {
	sites := websim.Tranco(5)
	subset := []string{sites[4], sites[1]}
	c, err := Canonicalize(JobSpec{Kind: KindCrawl, Sites: subset, NumSites: 5})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(c.Sites, ",") != strings.Join(subset, ",") {
		t.Fatalf("custom list rewritten: %v", c.Sites)
	}
	if mustAddr(t, JobSpec{Kind: KindCrawl, Sites: subset, NumSites: 5}) ==
		mustAddr(t, JobSpec{Kind: KindCrawl, NumSites: 5}) {
		t.Fatal("custom subset collided with the ranked list")
	}
}

func TestCost(t *testing.T) {
	crawl, _, _ := ContentAddress(JobSpec{Kind: KindCrawl, NumSites: 10})
	_ = crawl
	c, _ := Canonicalize(JobSpec{Kind: KindCrawl, NumSites: 10})
	if Cost(c) != 10 {
		t.Fatalf("crawl cost %d, want 10", Cost(c))
	}
	c, _ = Canonicalize(JobSpec{Kind: KindDiff, NumSites: 10})
	if Cost(c) != 20 {
		t.Fatalf("diff cost %d, want 20", Cost(c))
	}
	c, _ = Canonicalize(JobSpec{Kind: KindReplay, Source: "abc"})
	if Cost(c) != 1 {
		t.Fatalf("replay cost %d, want 1", Cost(c))
	}
}
