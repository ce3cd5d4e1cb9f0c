package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gullible/internal/analysis"
	"gullible/internal/websim"
)

// AgreementRow is the static/dynamic comparison for one tamper rule, counted
// over script URLs served during the crawl.
type AgreementRow struct {
	Rule string
	// Paired is true for rules with a dynamic counterpart in the JS
	// instrument (webdriver reads, marker reads, honey iteration); the
	// remaining rules are statically observable only, so their dynamic
	// columns are structurally zero.
	Paired bool
	// Both counts script URLs flagged by the static rule AND observed
	// triggering its dynamic signal; StaticOnly and DynamicOnly count the
	// disagreements. StaticOnly scripts are the paper's gullibility signal:
	// code that carries a probe the crawler never saw fire (dead branches,
	// interaction-gated paths). DynamicOnly scripts evaded static analysis
	// (obfuscation beyond the folder, or unparsable sources).
	Both, StaticOnly, DynamicOnly int
}

// AgreementResult is the per-rule static-vs-dynamic agreement over one scan.
type AgreementResult struct {
	NumSites int
	// ScriptURLs is the number of distinct script URLs considered.
	ScriptURLs int
	// TamperedScripts is the number of distinct script bodies with at least
	// one static finding (the persisted javascript_tamper table size).
	TamperedScripts int
	// Rows holds one entry per rule in analysis.AllRules order.
	Rows []AgreementRow
}

// AgreementFromScan derives the per-rule agreement report from a completed
// scan. The static side reads the persisted javascript_tamper table (falling
// back to re-analysis when the crawl ran without CrawlConfig.Tamper); the
// dynamic side reads the recorded JS-call log. Both sides key by script URL.
func AgreementFromScan(r *ScanResult) *AgreementResult {
	st := r.Storage

	// static rule → script URL set, via the content-addressed tamper table
	findingsBySHA := map[string][]string{}
	for _, t := range st.Tampers {
		rules := map[string]bool{}
		for _, f := range t.Findings {
			rules[f.Rule] = true
		}
		for rule := range rules {
			findingsBySHA[t.SHA256] = append(findingsBySHA[t.SHA256], rule)
		}
	}
	staticURLs := map[string]map[string]bool{}
	mark := func(rule, url string) {
		if staticURLs[rule] == nil {
			staticURLs[rule] = map[string]bool{}
		}
		staticURLs[rule][url] = true
	}
	allURLs := map[string]bool{}
	served := servedURLs(st)
	for sha, f := range st.ScriptFiles {
		for _, url := range served[sha] {
			allURLs[url] = true
		}
		rules, ok := findingsBySHA[sha]
		if !ok && len(st.Tampers) == 0 {
			// crawl ran without the tamper hook: analyse now (same code path,
			// so the report is identical to what the hook would have stored)
			rep := analysis.Analyze(f.Content)
			rules = rep.Rules()
		}
		for _, rule := range rules {
			for _, url := range served[sha] {
				mark(rule, url)
			}
		}
	}

	// dynamic signal → script URL set, from the recorded call log
	dynURLs := map[string]map[string]bool{}
	dynMark := func(rule, url string) {
		if dynURLs[rule] == nil {
			dynURLs[rule] = map[string]bool{}
		}
		dynURLs[rule][url] = true
	}
	honeySet := map[string]bool{}
	for _, h := range r.Honey {
		honeySet[h] = true
	}
	honeyHits := map[string]map[string]bool{}
	for _, c := range st.JSCalls {
		if c.ScriptURL == "" {
			continue
		}
		allURLs[c.ScriptURL] = true
		switch {
		case c.Symbol == "Navigator.webdriver":
			dynMark(analysis.RuleWebdriverProbe, c.ScriptURL)
		case strings.HasPrefix(c.Symbol, "honey:"):
			if name := strings.TrimPrefix(c.Symbol, "honey:"); honeySet[name] {
				if honeyHits[c.ScriptURL] == nil {
					honeyHits[c.ScriptURL] = map[string]bool{}
				}
				honeyHits[c.ScriptURL][name] = true
			}
		case strings.HasPrefix(c.Symbol, "window."):
			name := strings.TrimPrefix(c.Symbol, "window.")
			for _, m := range analysis.OpenWPMMarkers {
				if name == m {
					dynMark(analysis.RuleOpenWPMMarker, c.ScriptURL)
				}
			}
		}
	}
	// a script that touched every honey property iterated the object — the
	// dynamic counterpart of the honey-enumeration rule
	for url, hits := range honeyHits {
		if len(r.Honey) > 0 && len(hits) >= len(r.Honey) {
			dynMark(analysis.RuleHoneyEnumeration, url)
		}
	}

	paired := map[string]bool{
		analysis.RuleWebdriverProbe:   true,
		analysis.RuleOpenWPMMarker:    true,
		analysis.RuleHoneyEnumeration: true,
	}
	res := &AgreementResult{
		NumSites:        r.NumSites,
		ScriptURLs:      len(allURLs),
		TamperedScripts: len(st.Tampers),
	}
	for _, rule := range analysis.AllRules {
		row := AgreementRow{Rule: rule, Paired: paired[rule]}
		urls := map[string]bool{}
		for u := range staticURLs[rule] {
			urls[u] = true
		}
		for u := range dynURLs[rule] {
			urls[u] = true
		}
		keys := make([]string, 0, len(urls))
		for u := range urls {
			keys = append(keys, u)
		}
		sort.Strings(keys)
		for _, u := range keys {
			s, d := staticURLs[rule][u], dynURLs[rule][u]
			switch {
			case s && d:
				row.Both++
			case s:
				row.StaticOnly++
			default:
				row.DynamicOnly++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// RunStaticDynamicAgreement crawls the top numSites sites of a seeded
// synthetic web with the tamper hook attached and reports per-rule agreement
// between the persisted static findings and the dynamic instrumentation log.
// Same seed, same output: the report is deterministic.
func RunStaticDynamicAgreement(worldSeed int64, numSites int, progress func(done, total int)) *AgreementResult {
	world := websim.New(websim.Options{Seed: worldSeed, NumSites: numSites})
	r := RunScan(world, numSites, 2, progress)
	return AgreementFromScan(r)
}

// TableAgreement renders the agreement report.
func TableAgreement(a *AgreementResult) *Table {
	t := &Table{
		ID:     "AGREEMENT",
		Title:  "static (AST tamper rules) vs dynamic (JS instrument) agreement, by script URL",
		Header: []string{"rule", "both", "static-only", "dynamic-only", "agreement"},
	}
	for _, row := range a.Rows {
		total := row.Both + row.StaticOnly + row.DynamicOnly
		agr, dyn := "-", "-"
		if row.Paired {
			dyn = fmt.Sprint(row.DynamicOnly)
			if total > 0 {
				agr = pct(row.Both, total)
			}
		}
		t.AddRow(row.Rule, row.Both, row.StaticOnly, dyn, agr)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d script URLs over %d sites; %d distinct bodies with static findings",
			a.ScriptURLs, a.NumSites, a.TamperedScripts),
		"static-only on paired rules = probes the crawler never saw fire (the gullibility gap)",
		"dynamic-only = scripts that evaded static analysis",
		"unpaired rules have no dynamic counterpart; their dynamic columns are structurally empty")
	return t
}
