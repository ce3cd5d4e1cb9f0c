package openwpm

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"gullible/internal/browser"
	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/telemetry"
)

// CrawlConfig selects platform, run mode, instruments and crawl behaviour.
type CrawlConfig struct {
	OS             jsdom.OS
	Mode           jsdom.Mode
	FirefoxVersion int

	Transport httpsim.RoundTripper
	ClientID  string
	// DwellSeconds is the post-load idle time (60 s in the paper's scans).
	DwellSeconds float64

	// Instrument toggles.
	JSInstrument     bool
	HTTPInstrument   bool
	CookieInstrument bool
	// HTTPFilterJSOnly stores only JavaScript response bodies instead of
	// all bodies (Sec. 5.4.2 attacks this mode).
	HTTPFilterJSOnly bool
	// LegacyInstrumentGlobals selects the OpenWPM 0.10.0 window globals.
	LegacyInstrumentGlobals bool
	// HoneyProps adds this many randomly named bait properties to navigator
	// and window to identify property iterators (Sec. 4.1.3).
	HoneyProps int

	// Stealth, when non-nil, replaces the vanilla JS instrument with a
	// hardened one (package stealth) and masks automation.
	Stealth Instrumentor

	// MaxSubpages is how many same-site subpages to visit after the front
	// page (the paper's scan uses 3).
	MaxSubpages int
	// SimulateInteraction fires mouseover/scroll listeners after page load.
	// OpenWPM's default crawls perform no interaction (Table 1), which is
	// why hover-gated detection code never executes under dynamic analysis;
	// this option closes that gap.
	SimulateInteraction bool
	// MaxRetries bounds browser restarts per page on failure.
	MaxRetries int

	// --- reliability hardening ------------------------------------------

	// MaxVisitSeconds is the per-visit virtual-clock watchdog: a visit that
	// burns this much virtual time is aborted and classified as a hang.
	// 0 disables the watchdog (vanilla OpenWPM behaviour).
	MaxVisitSeconds float64
	// MaxCrawlSeconds caps the whole crawl's virtual time (visiting plus
	// backoff). Once exhausted, remaining sites are recorded as skipped
	// rather than visited — never silently dropped. 0 means unlimited. The
	// budget belongs to one TaskManager, which in a sharded crawl is one
	// shard: which sites a budget skips can depend on the worker count.
	MaxCrawlSeconds float64
	// BackoffBaseSeconds enables exponential backoff between browser
	// restarts (base * 2^attempt, plus deterministic jitter). 0 disables.
	BackoffBaseSeconds float64
	// BackoffMaxSeconds caps one backoff interval (default unlimited).
	BackoffMaxSeconds float64
	// BreakerThreshold is the per-site circuit breaker: after this many
	// consecutive page failures the remaining subpages of the site are
	// skipped. 0 disables the breaker.
	BreakerThreshold int
	// BlindRetry restores the pre-hardening recovery loop: every error is
	// retried identically, with no classification, no watchdog salvage, no
	// backoff and no breaker. Kept for vanilla-vs-hardened comparisons
	// (experiments.RunReliability).
	BlindRetry bool

	// --- archival -------------------------------------------------------

	// Recorder, when non-nil, archives the crawl into an execution bundle:
	// the transport is wrapped so every HTTP exchange (responses and
	// errors alike) is captured, and the storage layer reports every
	// accepted record. Package bundle provides the implementation.
	Recorder Recorder

	// Backend, when non-nil, is attached as Storage.Backend: every accepted
	// record is also appended durably (package wal). Nil keeps storage
	// memory-only, today's behaviour.
	Backend Backend

	// --- static analysis ------------------------------------------------

	// Tamper, when non-nil, statically analyses every first-seen script
	// body at storage time and persists the resulting TamperRecord next to
	// the content table (internal/analysis provides TamperRecorder).
	Tamper TamperFunc

	// --- observability ---------------------------------------------------

	// Telemetry, when non-nil, instruments the whole pipeline: crawl/visit
	// spans over virtual time, outcome and recovery counters, per-table
	// storage metering and HTTP exchange metering. Nil (the default) keeps
	// every instrumentation point a nil check.
	Telemetry *telemetry.Telemetry
}

// Recorder archives a crawl. It observes the storage layer for accepted
// records and interposes on the transport for the raw HTTP exchanges —
// together the two feeds make a crawl replayable offline.
type Recorder interface {
	StorageObserver
	// WrapTransport interposes the recorder on the HTTP path; the returned
	// transport must forward to rt. Wrappers should also preserve the
	// optional StorageFault(table) bool capability of rt so storage-layer
	// fault injection keeps working under recording.
	WrapTransport(rt httpsim.RoundTripper) httpsim.RoundTripper
}

// Hardened fills in the reliability defaults the vanilla configuration
// leaves at zero: watchdog, extra retry, backoff and circuit breaker.
func (c CrawlConfig) Hardened() CrawlConfig {
	if c.MaxVisitSeconds == 0 {
		c.MaxVisitSeconds = 90
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBaseSeconds == 0 {
		c.BackoffBaseSeconds = 1
	}
	if c.BackoffMaxSeconds == 0 {
		c.BackoffMaxSeconds = 60
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	c.BlindRetry = false
	return c
}

// SiteVisit is the outcome of visiting a site (front page + subpages).
type SiteVisit struct {
	Site     string
	Front    *browser.VisitResult
	Subpages []*browser.VisitResult
	// Restarts counts browser-manager recoveries during this site.
	Restarts int
	// Salvaged marks a site whose front page aborted mid-visit but whose
	// partial records were kept (crash/watchdog salvage).
	Salvaged bool
	// CircuitBroken marks a site whose remaining subpages were skipped by
	// the per-site circuit breaker.
	CircuitBroken bool
	// ErrorClass is the taxonomy class of the site-level failure, "" when
	// the site completed cleanly.
	ErrorClass string
	// PageErrors counts subpage visits that failed (the front page failing
	// fails the whole site instead).
	PageErrors int
	// VirtualSeconds and BackoffSeconds are the virtual time this site
	// consumed visiting and backing off.
	VirtualSeconds float64
	BackoffSeconds float64
}

// TaskManager orchestrates crawls: it creates browsers, attaches
// instruments, visits sites and funnels records to Storage.
type TaskManager struct {
	Cfg     CrawlConfig
	Storage *Storage

	js        Instrumentor
	browserNo int

	curVisitSpan int64
	meters       *crawlMeters
}

// crawlMeters holds the framework layer's pre-resolved metric handles; nil
// when telemetry is off.
type crawlMeters struct {
	completed    *telemetry.Counter
	salvaged     *telemetry.Counter
	failed       *telemetry.Counter
	skipped      *telemetry.Counter
	pages        *telemetry.Counter
	breakerTrips *telemetry.Counter
	budgetSkips  *telemetry.Counter
	visitSeconds *telemetry.Histogram
	backoff      *telemetry.Histogram
}

func newCrawlMeters(tel *telemetry.Telemetry) *crawlMeters {
	if !tel.Enabled() {
		return nil
	}
	return &crawlMeters{
		completed:    tel.Counter("crawl_sites_total", telemetry.L("outcome", "completed")),
		salvaged:     tel.Counter("crawl_sites_total", telemetry.L("outcome", "salvaged")),
		failed:       tel.Counter("crawl_sites_total", telemetry.L("outcome", "failed")),
		skipped:      tel.Counter("crawl_sites_total", telemetry.L("outcome", "skipped")),
		pages:        tel.Counter("crawl_pages_total"),
		breakerTrips: tel.Counter("crawl_breaker_trips_total"),
		budgetSkips:  tel.Counter("crawl_budget_skips_total"),
		visitSeconds: tel.Histogram("visit_virtual_seconds", telemetry.SecondsBuckets),
		backoff:      tel.Histogram("crawl_backoff_seconds", telemetry.SecondsBuckets),
	}
}

// NewTaskManager creates a TaskManager with fresh storage.
func NewTaskManager(cfg CrawlConfig) *TaskManager {
	if cfg.DwellSeconds == 0 {
		cfg.DwellSeconds = 60
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.ClientID == "" {
		cfg.ClientID = "openwpm-client"
	}
	if cfg.Recorder != nil {
		// wrap before the StorageFault sniff below: the recorder's wrapper
		// re-exposes the underlying transport's fault hook while archiving
		// each drop decision, so faulted crawls replay their lost writes
		cfg.Transport = cfg.Recorder.WrapTransport(cfg.Transport)
	}
	tm := &TaskManager{Cfg: cfg, Storage: NewStorage(), meters: newCrawlMeters(cfg.Telemetry)}
	tm.Storage.SetTelemetry(cfg.Telemetry)
	// a fault-injecting transport may also fail storage writes; the hook is
	// an optional interface so this package stays decoupled from faults'
	// injector type
	if sf, ok := cfg.Transport.(interface{ StorageFault(table string) bool }); ok {
		tm.Storage.FaultFn = sf.StorageFault
	}
	tm.Storage.Observer = cfg.Recorder
	tm.Storage.Backend = cfg.Backend
	tm.Storage.TamperFn = cfg.Tamper
	if cfg.Stealth != nil {
		tm.js = cfg.Stealth
	} else if cfg.JSInstrument {
		tm.js = &JSInstrument{
			Legacy:     cfg.LegacyInstrumentGlobals,
			HoneyProps: HoneyNames(cfg.ClientID, cfg.HoneyProps),
		}
	}
	return tm
}

// HoneyNames derives n random-looking property names, stable per client so
// analyses can recognise them later.
func HoneyNames(seed string, n int) []string {
	var out []string
	h := uint64(14695981039346656037)
	for _, c := range []byte(seed) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := 0; i < n; i++ {
		h = (h ^ uint64(i+1)) * 1099511628211
		out = append(out, fmt.Sprintf("zx%08x", uint32(h)))
	}
	return out
}

// NewBrowser builds a fresh, instrumented browser (a fresh profile: the
// default OpenWPM crawl is stateless across sites).
func (tm *TaskManager) NewBrowser() *browser.Browser {
	cfg := jsdom.StandardConfig(tm.Cfg.OS, tm.Cfg.Mode, tm.firefoxVersion(), tm.browserNo)
	tm.browserNo++
	b := browser.New(browser.Options{
		Config:          cfg,
		Transport:       tm.Cfg.Transport,
		ClientID:        tm.Cfg.ClientID,
		DwellSeconds:    tm.Cfg.DwellSeconds,
		MaxVisitSeconds: tm.Cfg.MaxVisitSeconds,
		Telemetry:       tm.Cfg.Telemetry,
	})
	b.SpanParent = tm.curVisitSpan
	tm.attach(b)
	return b
}

func (tm *TaskManager) firefoxVersion() int {
	if tm.Cfg.FirefoxVersion == 0 {
		return 90
	}
	return tm.Cfg.FirefoxVersion
}

// attach wires the configured instruments into a browser.
func (tm *TaskManager) attach(b *browser.Browser) {
	st := tm.Storage
	if tm.js != nil {
		js := tm.js
		b.OnWindowCreated = func(d *jsdom.DOM, top bool) {
			js.OnWindow(b, st, d, top)
		}
	}
	if tm.Cfg.HTTPInstrument {
		AttachHTTPInstrument(b, st, tm.Cfg.HTTPFilterJSOnly)
	}
	if tm.Cfg.CookieInstrument {
		AttachCookieInstrument(b, st)
	}
}

// classifyError maps a visit error to the recovery taxonomy. Watchdog and
// deterministic browser failures are recognised here; everything else
// defers to the fault taxonomy (unknown errors count as transient).
func classifyError(err error) faults.Class {
	if err == nil {
		return faults.ClassNone
	}
	if errors.Is(err, browser.ErrVisitBudget) {
		return faults.ClassHang
	}
	if errors.Is(err, browser.ErrRedirectLoop) {
		return faults.ClassPermanent
	}
	var se *browser.StatusError
	if errors.As(err, &se) {
		return faults.ClassPermanent
	}
	return faults.Classify(err)
}

// validateURL rejects URLs no browser could load — retrying those only
// burns restarts, which is exactly the pre-hardening bug.
func validateURL(url string) error {
	scheme, host, _ := httpsim.URLParts(url)
	if scheme != "http" && scheme != "https" {
		return faults.Permanentf("openwpm: malformed URL %q: unsupported scheme", url)
	}
	if host == "" {
		return faults.Permanentf("openwpm: malformed URL %q: missing host", url)
	}
	return nil
}

// visitMeta carries recovery bookkeeping into a VisitRecord.
type visitMeta struct {
	restarts int
	salvaged bool
	class    string
}

// VisitSite crawls one site: the front page and up to MaxSubpages same-site
// subpages, with browser restarts on failure (the BrowserManager role). With
// telemetry enabled the whole site is recorded as a root "visit" span on the
// site's own clock, from 0 to its visiting plus backoff time (the scheduler
// places it on the crawl clock), and its outcome feeds the registry.
func (tm *TaskManager) VisitSite(url string) (*SiteVisit, error) {
	tel := tm.Cfg.Telemetry
	if tel.Enabled() {
		tm.curVisitSpan = tel.Begin("visit", 0, 0, telemetry.L("site", url))
	}
	sv, err := tm.visitSite(url)
	outcome := "completed"
	switch {
	case err != nil:
		outcome = "failed"
	case sv.Salvaged:
		outcome = "salvaged"
	}
	if m := tm.meters; m != nil {
		switch outcome {
		case "failed":
			m.failed.Inc()
		case "salvaged":
			m.salvaged.Inc()
		default:
			m.completed.Inc()
		}
		m.pages.Add(int64(1 + len(sv.Subpages) + sv.PageErrors))
		m.visitSeconds.Observe(sv.VirtualSeconds)
	}
	if tel.Enabled() {
		tel.End(tm.curVisitSpan, "visit", (sv.VirtualSeconds+sv.BackoffSeconds)*1000, telemetry.L("outcome", outcome))
		tm.curVisitSpan = 0
	}
	return sv, err
}

// visitSite is VisitSite without the telemetry envelope.
func (tm *TaskManager) visitSite(url string) (*SiteVisit, error) {
	// Window numbering restarts at every site: window geometry derives from
	// the browser index (jsdom.StandardConfig offsets screenX per window), so
	// a crawl-global counter would leak the site's position in the crawl into
	// JS-visible state. A site's records must be a pure function of
	// (site, config, seed) for sharded and serial crawls to store identical
	// bytes; restarts within the site still advance the index.
	tm.browserNo = 0
	tm.Storage.SetVisitContext(url)
	bm := &BrowserManager{tm: tm, site: url}
	sv := &SiteVisit{Site: url}
	finish := func() {
		sv.Restarts = bm.Restarts
		sv.VirtualSeconds = bm.virtualSeconds
		sv.BackoffSeconds = bm.backoffSeconds
	}

	front, err := bm.Visit(url)
	if err != nil {
		finish()
		class := classifyError(err)
		sv.ErrorClass = class.String()
		if front != nil {
			// salvage: the visit aborted mid-flight, but the records its
			// instruments captured up to the abort are already in Storage —
			// keep them, tagged, instead of pretending the site was never
			// seen. The link list is partial, so subpages are not attempted.
			sv.Front = front
			sv.Salvaged = true
			tm.recordVisit(url, url, front, false, err, visitMeta{bm.Restarts, true, sv.ErrorClass})
			return sv, nil
		}
		tm.recordVisit(url, url, nil, false, err, visitMeta{bm.Restarts, false, sv.ErrorClass})
		return sv, err
	}
	sv.Front = front
	tm.recordVisit(url, url, front, false, nil, visitMeta{restarts: bm.Restarts})

	// Subpage selection (Sec. 4.1.2): same-eTLD+1 links from the landing
	// page, deduplicated, capped.
	if tm.Cfg.MaxSubpages > 0 {
		for _, sub := range SelectSubpages(front.FinalURL, front.Links, tm.Cfg.MaxSubpages) {
			if bm.tripped {
				sv.CircuitBroken = true
				break
			}
			res, err := bm.Visit(sub)
			if err != nil {
				sv.PageErrors++
				salvaged := res != nil
				tm.recordVisit(url, sub, res, true, err, visitMeta{bm.Restarts, salvaged, classifyError(err).String()})
				continue
			}
			// same-origin redirects to foreign domains are skipped
			if res.OffDomain {
				tm.recordVisit(url, sub, res, true, fmt.Errorf("left site via redirect"), visitMeta{restarts: bm.Restarts})
				continue
			}
			sv.Subpages = append(sv.Subpages, res)
			tm.recordVisit(url, sub, res, true, nil, visitMeta{restarts: bm.Restarts})
		}
	}
	finish()
	return sv, nil
}

func (tm *TaskManager) recordVisit(site, url string, res *browser.VisitResult, subpage bool, err error, meta visitMeta) {
	rec := VisitRecord{
		SiteURL:    url,
		Site:       site,
		Subpage:    subpage,
		Restarts:   meta.restarts,
		Salvaged:   meta.salvaged,
		ErrorClass: meta.class,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if res != nil {
		rec.OK = err == nil
		rec.FinalURL = res.FinalURL
		rec.CSPReports = res.CSPReports
		rec.InstrumentInstalled = tm.js == nil || tm.js.TopInstallError() == nil
	}
	tm.Storage.AddVisit(rec)
}

// errCrawlBudget marks sites skipped because the crawl-level virtual-time
// budget ran out before they could be visited.
var errCrawlBudget = errors.New("openwpm: crawl virtual-time budget exhausted before visit")

// crawlBudgetClass is the taxonomy label for budget-skipped sites.
const crawlBudgetClass = "crawl-budget"

// CrawlReport is the accounting a crawl returns: every input site ends in
// exactly one of Completed, Salvaged, Failed or Skipped — nothing is lost
// silently (the reliability property the paper's Sec. 3 audit demands).
type CrawlReport struct {
	Sites     int
	Completed int
	Salvaged  int
	Failed    int
	Skipped   int

	CircuitBroken int
	Restarts      int
	PageVisits    int
	PageErrors    int
	DroppedWrites int

	// ErrorClasses histograms site-level failures by taxonomy class.
	ErrorClasses map[string]int

	VirtualSeconds float64
	BackoffSeconds float64

	// Metrics is the telemetry snapshot of the crawl, attached when the
	// crawl ran with CrawlConfig.Telemetry (omitted otherwise, so archived
	// reports from telemetry-free crawls serialise unchanged).
	Metrics *telemetry.Snapshot `json:"Metrics,omitempty"`
}

// NewCrawlReport returns an empty report.
func NewCrawlReport() *CrawlReport {
	return &CrawlReport{ErrorClasses: map[string]int{}}
}

// SiteOutcome is the compact, retained-nothing summary of one site's crawl
// outcome: exactly the fields CrawlReport accounting needs, without holding
// the visit's page results alive. The sharded scheduler streams per-shard
// outcomes and re-folds them in global site order — float sums are
// order-sensitive, so only a fixed fold order makes a merged report
// bit-identical across worker counts.
type SiteOutcome struct {
	Site     string
	Subpages int
	Restarts int

	PageErrors    int
	CircuitBroken bool
	Salvaged      bool
	Failed        bool
	// Skipped marks a site the crawl never reached (budget exhaustion): it
	// is accounted but contributes no page visits or virtual time.
	Skipped    bool
	ErrorClass string

	VirtualSeconds float64
	BackoffSeconds float64
}

// OutcomeOf summarises a completed VisitSite call.
func OutcomeOf(sv *SiteVisit, err error) SiteOutcome {
	return SiteOutcome{
		Site:           sv.Site,
		Subpages:       len(sv.Subpages),
		Restarts:       sv.Restarts,
		PageErrors:     sv.PageErrors,
		CircuitBroken:  sv.CircuitBroken,
		Salvaged:       sv.Salvaged,
		Failed:         err != nil,
		ErrorClass:     sv.ErrorClass,
		VirtualSeconds: sv.VirtualSeconds,
		BackoffSeconds: sv.BackoffSeconds,
	}
}

// Absorb folds one site outcome into the report.
func (r *CrawlReport) Absorb(sv *SiteVisit, err error) {
	r.AbsorbOutcome(OutcomeOf(sv, err))
}

// AbsorbOutcome folds one compact site outcome into the report. Every site
// lands in exactly one of Completed, Salvaged, Failed or Skipped.
func (r *CrawlReport) AbsorbOutcome(o SiteOutcome) {
	if r.ErrorClasses == nil {
		// tolerate zero-value reports (&CrawlReport{}), not just NewCrawlReport
		r.ErrorClasses = map[string]int{}
	}
	r.Sites++
	if o.ErrorClass != "" {
		r.ErrorClasses[o.ErrorClass]++
	}
	if o.Skipped {
		r.Skipped++
		return
	}
	r.Restarts += o.Restarts
	r.PageVisits += 1 + o.Subpages + o.PageErrors
	r.PageErrors += o.PageErrors
	r.VirtualSeconds += o.VirtualSeconds
	r.BackoffSeconds += o.BackoffSeconds
	if o.CircuitBroken {
		r.CircuitBroken++
	}
	switch {
	case o.Failed:
		r.Failed++
	case o.Salvaged:
		r.Salvaged++
	default:
		r.Completed++
	}
}

// CompletionRate is the fraction of sites that produced usable data
// (completed or salvaged). Salvaged sites carry only partial records —
// FullCompletionRate excludes them when the distinction matters.
func (r *CrawlReport) CompletionRate() float64 {
	if r.Sites == 0 {
		return 0
	}
	return float64(r.Completed+r.Salvaged) / float64(r.Sites)
}

// FullCompletionRate is the fraction of sites that completed cleanly, with
// salvaged partials excluded.
func (r *CrawlReport) FullCompletionRate() float64 {
	if r.Sites == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Sites)
}

// Accounted verifies the invariant that every site landed in exactly one
// outcome bucket.
func (r *CrawlReport) Accounted() bool {
	return r.Completed+r.Salvaged+r.Failed+r.Skipped == r.Sites
}

// String renders the report deterministically (same crawl ⇒ same bytes).
// Salvaged and skipped sites are called out separately: a salvaged site kept
// partial records, while a skipped site was never visited at all — folding
// the two together is exactly the silent-loss reporting the paper faults.
func (r *CrawlReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "crawl: %d sites — %d completed, %d salvaged, %d failed, %d skipped (completion %.1f%%, full %.1f%%)\n",
		r.Sites, r.Completed, r.Salvaged, r.Failed, r.Skipped, 100*r.CompletionRate(), 100*r.FullCompletionRate())
	if r.Salvaged > 0 || r.Skipped > 0 {
		fmt.Fprintf(&sb, "data loss: %d sites salvaged (partial records kept), %d sites skipped (never visited, no records)\n",
			r.Salvaged, r.Skipped)
	}
	fmt.Fprintf(&sb, "recovery: %d restarts, %d circuit-broken sites, %d page visits, %d page errors, %d dropped writes\n",
		r.Restarts, r.CircuitBroken, r.PageVisits, r.PageErrors, r.DroppedWrites)
	fmt.Fprintf(&sb, "virtual time: %.1fs visiting, %.1fs backing off\n", r.VirtualSeconds, r.BackoffSeconds)
	if len(r.ErrorClasses) > 0 {
		keys := make([]string, 0, len(r.ErrorClasses))
		for k := range r.ErrorClasses {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("errors:")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", k, r.ErrorClasses[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Checkpoint is resumable crawl state: how many input URLs are done and the
// report accumulated so far. An interrupted ranked scan resumes from the
// last completed rank by passing the same Checkpoint back to
// CrawlFromHooked.
type Checkpoint struct {
	Done   int
	Report *CrawlReport
}

// CrawlHooks lets a scheduler observe and steer a crawl at site
// granularity without owning the loop.
type CrawlHooks struct {
	// OnSite is called after each site is accounted (visited or
	// budget-skipped), with the checkpoint already advanced past it.
	OnSite func(SiteOutcome)
	// Stop, when non-nil, is polled before each site; returning true ends
	// the crawl at the site boundary, leaving the checkpoint resumable.
	Stop func() bool
}

// CrawlFromHooked visits every URL from the checkpoint on, in order, and
// advances the checkpoint after every site; per-site errors are recorded,
// not fatal, and the returned report accounts for every input site. It is
// the primitive under the sharded scheduler (package sched), the one driver
// of every crawl: each worker runs one of these over its shard, streaming
// outcomes out and polling for cooperative interruption.
func (tm *TaskManager) CrawlFromHooked(urls []string, cp *Checkpoint, h CrawlHooks) *CrawlReport {
	if cp.Report == nil {
		cp.Report = NewCrawlReport()
	}
	r := cp.Report
	dropped0 := tm.Storage.DroppedTotal()
	for cp.Done < len(urls) {
		if h.Stop != nil && h.Stop() {
			break
		}
		u := urls[cp.Done]
		tm.Storage.SetVisitContext(u)
		var o SiteOutcome
		if tm.Cfg.MaxCrawlSeconds > 0 && r.VirtualSeconds+r.BackoffSeconds >= tm.Cfg.MaxCrawlSeconds {
			// out of crawl budget: account for the site instead of dropping it
			tm.recordVisit(u, u, nil, false, errCrawlBudget, visitMeta{class: crawlBudgetClass})
			o = SiteOutcome{Site: u, Skipped: true, ErrorClass: crawlBudgetClass}
			r.AbsorbOutcome(o)
			if m := tm.meters; m != nil {
				m.skipped.Inc()
				m.budgetSkips.Inc()
			}
		} else {
			sv, err := tm.VisitSite(u)
			o = OutcomeOf(sv, err)
			r.AbsorbOutcome(o)
		}
		cp.Done++
		if h.OnSite != nil {
			h.OnSite(o)
		}
	}
	r.DroppedWrites += tm.Storage.DroppedTotal() - dropped0
	if tel := tm.Cfg.Telemetry; tel.Enabled() {
		r.Metrics = tel.Snapshot()
	}
	return r
}

// SelectSubpages picks up to max same-site URLs from links.
func SelectSubpages(base string, links []string, max int) []string {
	seen := map[string]bool{base: true}
	var out []string
	for _, l := range links {
		if len(out) >= max {
			break
		}
		if seen[l] || !httpsim.SameSite(base, l) {
			continue
		}
		if strings.HasPrefix(l, "javascript:") {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	return out
}

// BrowserManager owns one live browser, restarting it after crashes — the
// monitoring/recovery role of OpenWPM's framework layer.
type BrowserManager struct {
	tm       *TaskManager
	b        *browser.Browser
	site     string
	Restarts int

	consecFails    int
	tripped        bool
	virtualSeconds float64
	backoffSeconds float64
}

// Visit loads url with classified recovery: permanent failures fail fast,
// transient/hang/crash failures restart the browser (with backoff) up to
// MaxRetries, and an aborted attempt's partial result is returned alongside
// the error so the caller can salvage it.
func (bm *BrowserManager) Visit(url string) (*browser.VisitResult, error) {
	if err := validateURL(url); err != nil {
		bm.noteFailure()
		return nil, err
	}
	if bm.tm.Cfg.BlindRetry {
		return bm.visitBlind(url)
	}
	var lastErr error
	var partial *browser.VisitResult
	for attempt := 0; attempt <= bm.tm.Cfg.MaxRetries; attempt++ {
		res, err := bm.visitOnce(url)
		if err == nil {
			bm.noteSuccess()
			return res, nil
		}
		lastErr = err
		if res != nil {
			partial = res
		}
		class := classifyError(err)
		if class == faults.ClassPermanent {
			// deterministic failure: retrying cannot change the outcome
			break
		}
		// transient, hang or crash: discard the browser, note the restart,
		// back off, try again with a fresh profile
		bm.recordRestart(url, attempt, class, err)
		bm.discard()
		bm.backoff(url, attempt)
	}
	bm.noteFailure()
	return partial, lastErr
}

// visitBlind is the pre-hardening loop: retry everything identically, no
// classification, no salvage, no backoff.
func (bm *BrowserManager) visitBlind(url string) (*browser.VisitResult, error) {
	var lastErr error
	for attempt := 0; attempt <= bm.tm.Cfg.MaxRetries; attempt++ {
		res, err := bm.visitOnce(url)
		if err == nil {
			return res, nil
		}
		lastErr = err
		bm.recordRestart(url, attempt, classifyError(err), err)
		bm.discard()
	}
	return nil, lastErr
}

// visitOnce runs a single attempt, charging its virtual time to the site.
func (bm *BrowserManager) visitOnce(url string) (*browser.VisitResult, error) {
	if bm.b == nil {
		bm.b = bm.tm.NewBrowser()
	}
	start := bm.b.Now()
	res, err := bm.b.Visit(url)
	if err == nil && bm.tm.Cfg.SimulateInteraction {
		bm.b.FireListeners("mouseover")
		bm.b.FireListeners("scroll")
		bm.b.Idle(5) // let interaction-triggered beacons fire
	}
	bm.virtualSeconds += (bm.b.Now() - start) / 1000
	return res, err
}

// discard throws the browser away; the next attempt gets a fresh profile.
func (bm *BrowserManager) discard() {
	bm.b = nil
	bm.Restarts++
}

// recordRestart writes a crash-table row for a browser restart and counts
// it in the telemetry layer's restart counter by class.
func (bm *BrowserManager) recordRestart(url string, attempt int, class faults.Class, err error) {
	if tel := bm.tm.Cfg.Telemetry; tel.Enabled() {
		tel.Counter("crawl_restarts_total", telemetry.L("class", class.String())).Inc()
	}
	bm.tm.Storage.AddCrash(CrashRecord{
		SiteURL: bm.site,
		PageURL: url,
		Attempt: attempt,
		Class:   class.String(),
		Error:   err.Error(),
	})
}

// backoff sleeps (in virtual time) exponentially with deterministic jitter:
// the same client and URL always wait the same schedule, so crawls stay
// reproducible.
func (bm *BrowserManager) backoff(url string, attempt int) {
	base := bm.tm.Cfg.BackoffBaseSeconds
	if base <= 0 {
		return
	}
	d := base * float64(uint64(1)<<uint(attempt))
	if max := bm.tm.Cfg.BackoffMaxSeconds; max > 0 && d > max {
		d = max
	}
	d += base * float64(fnv64(bm.tm.Cfg.ClientID, url, fmt.Sprint(attempt))%1000) / 1000
	bm.backoffSeconds += d
	if m := bm.tm.meters; m != nil {
		m.backoff.Observe(d)
	}
}

// noteSuccess / noteFailure drive the per-site circuit breaker.
func (bm *BrowserManager) noteSuccess() { bm.consecFails = 0 }

func (bm *BrowserManager) noteFailure() {
	bm.consecFails++
	if th := bm.tm.Cfg.BreakerThreshold; th > 0 && bm.consecFails >= th && !bm.tripped {
		bm.tripped = true
		if m := bm.tm.meters; m != nil {
			m.breakerTrips.Inc()
		}
	}
}

// Browser exposes the live browser (tests inspect realms after visits).
func (bm *BrowserManager) Browser() *browser.Browser { return bm.b }

func fnv64(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * 1099511628211
		}
		h = (h ^ 0x3d) * 1099511628211
	}
	return h
}

// AttachHTTPInstrument records every request; response bodies are stored
// according to the filter mode.
func AttachHTTPInstrument(b *browser.Browser, st *Storage, filterJSOnly bool) {
	b.OnRequest = func(req *httpsim.Request, resp *httpsim.Response) {
		rec := RequestRecord{
			URL:    req.URL,
			TopURL: req.TopURL,
			Type:   req.Type,
			Method: req.Method,
			Time:   req.Time,
		}
		if resp != nil {
			rec.Status = resp.Status
			rec.CType = resp.Header("Content-Type")
			rec.BodySize = len(resp.Body)
		}
		st.AddRequest(rec)
		if resp == nil || resp.Status != 200 {
			return
		}
		if filterJSOnly {
			if isJavaScript(req, resp) {
				st.AddScriptFile(req.URL, resp.Body, rec.CType)
			}
			return
		}
		st.AddScriptFile(req.URL, resp.Body, rec.CType)
	}
}

// isJavaScript is the JS-only storage filter: resource type, extension or
// content type must say "JavaScript". Sec. 5.4.2 shows how to evade all
// three at once.
func isJavaScript(req *httpsim.Request, resp *httpsim.Response) bool {
	if req.Type == httpsim.TypeScript {
		return true
	}
	if strings.HasSuffix(httpsim.Path(req.URL), ".js") {
		return true
	}
	return strings.Contains(resp.Header("Content-Type"), "javascript")
}

// AttachCookieInstrument records jar writes.
func AttachCookieInstrument(b *browser.Browser, st *Storage) {
	b.OnCookieStored = func(rec browser.CookieRecord) {
		st.AddCookie(CookieEntry{
			Name:       Sanitize(rec.Cookie.Name),
			Value:      Sanitize(rec.Cookie.Value),
			Domain:     rec.Cookie.Domain,
			TopURL:     rec.TopURL,
			Expires:    rec.Cookie.Expires,
			ViaJS:      rec.ViaJS,
			FirstParty: rec.FirstParty(),
			Time:       rec.SetAt,
		})
	}
}
