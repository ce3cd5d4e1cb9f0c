package experiments

import (
	"fmt"
	"math"
	"sort"

	"gullible/internal/blocklist"
	"gullible/internal/cookiecls"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/stats"
	"gullible/internal/stealth"
	"gullible/internal/websim"
)

// CompareResult holds the Sec. 6.3 parallel crawls: three repetitions of
// WPM (vanilla) and WPM_hide over the detector-site sample, on separate
// client identities against the same (stateful) world.
type CompareResult struct {
	Sites []string
	Runs  []RunPair
}

// RunPair is one repetition.
type RunPair struct {
	WPM  *openwpm.Storage
	Hide *openwpm.Storage
}

// DetectorSiteSample selects the comparison list: the first n sites (by
// rank) that deploy active, cloaking-capable detectors — the analogue of
// the paper's 1,487 detector sites.
func DetectorSiteSample(world *websim.World, n int) []string {
	var out []string
	for rank := 1; rank <= world.Opts.NumSites && len(out) < n; rank++ {
		s := world.Site(rank)
		if s.HasAnyDetector() && s.Cloaks {
			out = append(out, websim.SiteURL(rank))
		}
	}
	return out
}

// RunComparison performs `runs` repetitions of the parallel crawl.
func RunComparison(world *websim.World, sites []string, runs int, progress func(run, done, total int)) *CompareResult {
	res := &CompareResult{Sites: sites}
	for run := 0; run < runs; run++ {
		wpmTM := openwpm.NewTaskManager(openwpm.CrawlConfig{
			OS: jsdom.Ubuntu, Mode: jsdom.Regular,
			Transport: world, ClientID: "wpm-machine",
			DwellSeconds: 60,
			JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		})
		hideTM := openwpm.NewTaskManager(openwpm.CrawlConfig{
			OS: jsdom.Ubuntu, Mode: jsdom.Regular,
			Transport: world, ClientID: "hide-machine",
			DwellSeconds:   60,
			HTTPInstrument: true, CookieInstrument: true,
			Stealth: stealth.New(),
		})
		for i, u := range sites {
			// synchronised visits: both machines load the same site in turn
			wpmTM.VisitSite(u)
			hideTM.VisitSite(u)
			if progress != nil && (i+1)%250 == 0 {
				progress(run+1, i+1, len(sites))
			}
		}
		res.Runs = append(res.Runs, RunPair{WPM: wpmTM.Storage, Hide: hideTM.Storage})
	}
	return res
}

// Table8 compares HTTP request resource types between the variants.
func Table8(c *CompareResult) *Table {
	t := &Table{
		ID:     "Table 8",
		Title:  "Comparison of HTTP request resource types (WPM vs WPM_hide)",
		Header: []string{"resource type", "WPM r1", "WPM_hide r1", "diff r1", "diff r2", "diff r3"},
	}
	type counts struct{ wpm, hide map[httpsim.ResourceType]int }
	var per []counts
	for _, run := range c.Runs {
		per = append(per, counts{run.WPM.RequestsByType(), run.Hide.RequestsByType()})
	}
	// order rows by |diff r1| descending, like the paper
	type row struct {
		rt   httpsim.ResourceType
		diff float64
	}
	var rows []row
	for _, rt := range httpsim.AllResourceTypes {
		w := per[0].wpm[rt]
		h := per[0].hide[rt]
		if w == 0 && h == 0 {
			continue
		}
		d := 0.0
		if w > 0 {
			d = 100 * (float64(h) - float64(w)) / float64(w)
		} else {
			d = 100
		}
		rows = append(rows, row{rt, d})
	}
	sort.Slice(rows, func(i, j int) bool { return math.Abs(rows[i].diff) > math.Abs(rows[j].diff) })
	totalW, totalH := 0, 0
	for _, r := range rows {
		cells := []any{string(r.rt), per[0].wpm[r.rt], per[0].hide[r.rt], diffPct(per[0].wpm[r.rt], per[0].hide[r.rt])}
		for i := 1; i < len(per); i++ {
			cells = append(cells, diffPct(per[i].wpm[r.rt], per[i].hide[r.rt]))
		}
		for len(cells) < 6 {
			cells = append(cells, "")
		}
		t.AddRow(cells...)
	}
	for _, r := range rows {
		totalW += per[0].wpm[r.rt]
		totalH += per[0].hide[r.rt]
	}
	totals := []any{"total", totalW, totalH, diffPct(totalW, totalH)}
	for i := 1; i < len(per); i++ {
		tw, th := 0, 0
		for _, r := range rows {
			tw += per[i].wpm[r.rt]
			th += per[i].hide[r.rt]
		}
		totals = append(totals, diffPct(tw, th))
	}
	for len(totals) < 6 {
		totals = append(totals, "")
	}
	t.AddRow(totals...)
	t.Notes = append(t.Notes, "paper r1: csp_report -76%, beacon +11%, xhr +5%, image +1.5%, script +1.4%, total +1.9% (growing to +5.3% by r3)")
	return t
}

// Table9 counts ad/tracker requests via the EasyList/EasyPrivacy engines.
func Table9(c *CompareResult) *Table {
	t := &Table{
		ID:     "Table 9",
		Title:  "HTTP requests to ad/tracker resources (EasyList / EasyPrivacy)",
		Header: []string{"run", "EasyList WPM", "EasyList WPM_hide", "EasyPrivacy WPM", "EasyPrivacy WPM_hide"},
	}
	el, ep := websim.EasyList(), websim.EasyPrivacy()
	count := func(st *openwpm.Storage, l *blocklist.List) int {
		n := 0
		for _, r := range st.Requests {
			if l.Match(r.URL) {
				n++
			}
		}
		return n
	}
	for i, run := range c.Runs {
		elW, elH := count(run.WPM, el), count(run.Hide, el)
		epW, epH := count(run.WPM, ep), count(run.Hide, ep)
		t.AddRow(fmt.Sprintf("r%d", i+1),
			elW, fmt.Sprintf("%d (%s)", elH, diffPct(elW, elH)),
			epW, fmt.Sprintf("%d (%s)", epH, diffPct(epW, epH)))
	}
	t.Notes = append(t.Notes, "paper: WPM_hide sees ≈+1.6% to +5.8% EasyList and up to +7.9% EasyPrivacy traffic; significant by Wilcoxon (p < 0.0001)")
	// Wilcoxon over per-site ad/tracker counts of the final run
	if len(c.Runs) > 0 {
		last := c.Runs[len(c.Runs)-1]
		xs, ys := perSiteCounts(c.Sites, last.WPM, el), perSiteCounts(c.Sites, last.Hide, el)
		w := stats.Wilcoxon(xs, ys)
		if w.OK {
			t.Notes = append(t.Notes, fmt.Sprintf("measured Wilcoxon (EasyList, final run): p = %.6f over %d paired sites", w.P, w.N))
		}
	}
	return t
}

func perSiteCounts(sites []string, st *openwpm.Storage, l *blocklist.List) []float64 {
	bySite := map[string]int{}
	for _, r := range st.Requests {
		if l.Match(r.URL) {
			bySite[httpsim.ETLDPlusOne(httpsim.Host(r.TopURL))]++
		}
	}
	out := make([]float64, len(sites))
	for i, s := range sites {
		out[i] = float64(bySite[httpsim.ETLDPlusOne(httpsim.Host(s))])
	}
	return out
}

// Table10 compares served cookies: first-party, third-party and tracking.
func Table10(c *CompareResult) *Table {
	t := &Table{
		ID:    "Table 10",
		Title: "Served cookies and differences with WPM_hide",
		Header: []string{"run", "1st-party WPM", "1st-party hide", "3rd-party WPM", "3rd-party hide",
			"tracking WPM", "tracking hide"},
	}
	for i, run := range c.Runs {
		fw, tw := cookieSplit(run.WPM)
		fh, th := cookieSplit(run.Hide)
		trkW := len(trackingCookies(c, i, true))
		trkH := len(trackingCookies(c, i, false))
		t.AddRow(fmt.Sprintf("r%d", i+1),
			fw, fmt.Sprintf("%d (%s)", fh, diffPct(fw, fh)),
			tw, fmt.Sprintf("%d (%s)", th, diffPct(tw, th)),
			trkW, fmt.Sprintf("%d (%s)", trkH, diffPct(trkW, trkH)))
	}
	t.Notes = append(t.Notes, "paper: WPM_hide +3-4% first-party, +5-8% third-party, +42-60% tracking cookies; effect grows per run as WPM is re-identified")
	// significance: per-site cookie counts, final run
	if len(c.Runs) > 0 {
		last := c.Runs[len(c.Runs)-1]
		xs := perSiteCookieCounts(c.Sites, last.WPM)
		ys := perSiteCookieCounts(c.Sites, last.Hide)
		w := stats.Wilcoxon(xs, ys)
		if w.OK {
			t.Notes = append(t.Notes, fmt.Sprintf("measured Wilcoxon (cookies/site, final run): p = %.6f over %d paired sites", w.P, w.N))
		}
	}
	return t
}

func cookieSplit(st *openwpm.Storage) (first, third int) {
	for _, ck := range st.Cookies {
		if ck.FirstParty {
			first++
		} else {
			third++
		}
	}
	return
}

func perSiteCookieCounts(sites []string, st *openwpm.Storage) []float64 {
	bySite := map[string]int{}
	for _, ck := range st.Cookies {
		bySite[httpsim.ETLDPlusOne(httpsim.Host(ck.TopURL))]++
	}
	out := make([]float64, len(sites))
	for i, s := range sites {
		out[i] = float64(bySite[httpsim.ETLDPlusOne(httpsim.Host(s))])
	}
	return out
}

// trackingCookies classifies cookies of one run per the Englehardt/Chen
// criteria, pairing the two machines' observed values (Sec. 6.3.3).
func trackingCookies(c *CompareResult, run int, forWPM bool) []string {
	// collect values per (domain, name) per machine across ALL runs — the
	// "always set" and cross-run criteria need the full series
	type key struct{ domain, name string }
	valsW := map[key][]string{}
	valsH := map[key][]string{}
	expires := map[key]float64{}
	seenW := map[key]int{}
	seenH := map[key]int{}
	for _, rp := range c.Runs {
		curW := map[key]string{}
		for _, ck := range rp.WPM.Cookies {
			k := key{ck.Domain, ck.Name}
			curW[k] = ck.Value
			if ck.Expires > expires[k] {
				expires[k] = ck.Expires
			}
		}
		for k, v := range curW {
			valsW[k] = append(valsW[k], v)
			seenW[k]++
		}
		curH := map[key]string{}
		for _, ck := range rp.Hide.Cookies {
			k := key{ck.Domain, ck.Name}
			curH[k] = ck.Value
			if ck.Expires > expires[k] {
				expires[k] = ck.Expires
			}
		}
		for k, v := range curH {
			valsH[k] = append(valsH[k], v)
			seenH[k]++
		}
	}
	// classify; then count per machine for the requested run. "Always set"
	// uses the machine that consistently receives the cookie as reference:
	// a cookie withheld from the detected bot in some runs is still a
	// tracking cookie — that withholding is exactly the Table 10 effect.
	tracking := map[key]bool{}
	for k := range expires {
		obs := cookiecls.Observation{
			Name: k.name, Domain: k.domain,
			ExpiresSeconds: expires[k],
			ValuesA:        valsW[k], ValuesB: valsH[k],
			RunsObserved: max(seenW[k], seenH[k]), RunsTotal: len(c.Runs),
		}
		if len(obs.ValuesA) == 0 || len(obs.ValuesB) == 0 {
			// only one machine ever received it: user-identifying when
			// long-lived, identifier-sized and consistently set there
			tracking[k] = obs.ExpiresSeconds >= cookiecls.SecondsIn3Months &&
				obs.RunsObserved == len(c.Runs) &&
				(longEnough(valsW[k]) || longEnough(valsH[k]))
			continue
		}
		tracking[k] = cookiecls.IsTracking(obs)
	}
	var out []string
	rp := c.Runs[run]
	st := rp.WPM
	if !forWPM {
		st = rp.Hide
	}
	seen := map[key]bool{}
	for _, ck := range st.Cookies {
		k := key{ck.Domain, ck.Name}
		if tracking[k] && !seen[k] {
			seen[k] = true
			out = append(out, k.domain+"/"+k.name)
		}
	}
	sort.Strings(out)
	return out
}

func longEnough(vals []string) bool {
	for _, v := range vals {
		if len(v) >= cookiecls.MinValueLen {
			return true
		}
	}
	return false
}

// Figure6 computes per-API call coverage: the share of WPM_hide-observed
// calls that vanilla WPM also records.
func Figure6(c *CompareResult) *Table {
	t := &Table{
		ID:     "Figure 6",
		Title:  "API calls in the context of DOM creation: WPM coverage of WPM_hide's records",
		Header: []string{"API", "WPM calls", "WPM_hide calls", "coverage"},
	}
	if len(c.Runs) == 0 {
		return t
	}
	run := c.Runs[0]
	w := run.WPM.JSCallsBySymbol()
	h := run.Hide.JSCallsBySymbol()
	apis := []string{"Screen.top", "Screen.width", "Screen.availTop", "Screen.availLeft", "Navigator.userAgent"}
	for _, api := range apis {
		cov := "n/a"
		if h[api] > 0 {
			cov = fmt.Sprintf("%.0f%%", 100*float64(min(w[api], h[api]))/float64(h[api]))
		}
		t.AddRow(api, w[api], h[api], cov)
	}
	t.Notes = append(t.Notes, "paper: Screen.top ≈99% covered; Screen.availLeft only ≈63% — up to 37%-points of calls missed by vanilla WPM")
	return t
}
