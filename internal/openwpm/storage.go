// Package openwpm simulates the OpenWPM measurement framework on top of the
// simulated browser: a TaskManager orchestrating visits, a BrowserManager
// restarting crashed browsers, and the three instruments the paper studies —
// JavaScript call recording, HTTP traffic recording and cookie recording.
// The vanilla JS instrument deliberately reproduces the weaknesses the paper
// identifies (Secs. 3.1.4 and 5); package stealth provides the hardened
// variant (WPM_hide).
package openwpm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

	"gullible/internal/httpsim"
	"gullible/internal/telemetry"
)

// JSCall is one recorded JavaScript API interaction.
type JSCall struct {
	TopURL    string // set host-side; a page cannot spoof it (Sec. 5.2)
	FrameURL  string
	Symbol    string // "Interface.property"
	Operation string // "get", "set" or "call"
	Value     string
	Args      string
	ScriptURL string // as reported by the in-page instrumentation
	Time      float64
}

// RequestRecord is one recorded HTTP request.
type RequestRecord struct {
	URL      string
	TopURL   string
	Type     httpsim.ResourceType
	Method   string
	Status   int
	CType    string
	Time     float64
	BodySize int
}

// CookieEntry is one recorded cookie store operation.
type CookieEntry struct {
	Name       string
	Value      string
	Domain     string
	TopURL     string
	Expires    float64
	ViaJS      bool
	FirstParty bool
	Time       float64
}

// ScriptFile is a stored response body (a JavaScript file, or any body in
// full-coverage mode). Identical content is stored once, with the URL and
// content type of its first write; which URLs served it is recorded only in
// Storage.ContentWrites.
type ScriptFile struct {
	URL     string // first URL observed
	SHA256  string
	Content string
	CType   string
}

// ContentWrite is one accepted content-table write: the URL that served a
// body, the body's SHA-256 and the response's content type.
// Storage.ContentWrites keeps every write, repeats included, in order; it is
// the store's one record of which URL served which body.
type ContentWrite struct {
	URL   string `json:"url"`
	SHA   string `json:"sha"`
	CType string `json:"ctype,omitempty"`
}

// TamperFinding is one static tamper-rule hit inside a stored script. The
// types live here rather than in internal/analysis because analysis imports
// openwpm (for JSCall); the analyser adapts onto TamperFunc instead.
type TamperFinding struct {
	Rule   string `json:"rule"`
	Line   int    `json:"line"`
	Detail string `json:"detail,omitempty"`
}

// TamperRecord is the stored static analysis of one script body, keyed like
// the content table by SHA-256 of the body.
type TamperRecord struct {
	SHA256 string `json:"sha256"`
	URL    string `json:"url"` // first URL observed serving the body
	// Parsed is false when the analyser fell back to regex matching.
	Parsed   bool            `json:"parsed"`
	Findings []TamperFinding `json:"findings,omitempty"`
}

// TamperFunc statically analyses one script body. Returning false stores no
// record (a parsed, finding-free script). It must be pure: the same content
// must always produce the same record, or record→replay diffs break.
type TamperFunc func(content string) (TamperRecord, bool)

// VisitRecord summarises one page visit.
type VisitRecord struct {
	SiteURL  string
	FinalURL string
	// Site is the crawl input URL this page belongs to (equal to SiteURL
	// for front pages); it lets archival consumers group subpage visits
	// under their root site.
	Site       string
	Subpage    bool
	OK         bool
	Error      string
	CSPReports int
	// InstrumentInstalled reports whether the JS instrument attached
	// successfully (CSP can block the vanilla injection, Sec. 5.1.2).
	InstrumentInstalled bool
	// Restarts counts browser restarts consumed reaching this outcome.
	Restarts int
	// Salvaged marks a partial record: the visit aborted (crash/watchdog)
	// but whatever was captured before the abort was kept.
	Salvaged bool
	// ErrorClass is the recovery taxonomy of Error ("transient",
	// "permanent", "hang", "crash", "crawl-budget"), empty on success.
	ErrorClass string
}

// VisitRows is where each per-visit table stood when a visit row was stored:
// the rows a page stored all precede its own visit row.
type VisitRows struct {
	JSCalls, Cookies, ContentWrites, Tampers int
}

// CrashRecord mirrors OpenWPM's crash table: one row per browser restart,
// with the page being visited and why the browser was discarded.
type CrashRecord struct {
	SiteURL string
	PageURL string
	Attempt int
	Class   string
	Error   string
}

// Storage is OpenWPM's data store. Inputs that originate in page-controlled
// data pass through Sanitize, mirroring the parameterised SQLite layer the
// paper found to be injection-safe (Sec. 5.3).
//
// Storage is also the crawl's one record of each fact: an execution bundle
// (package bundle) cuts its per-visit JS calls, cookies, script references
// and tamper rows out of these tables at the VisitEnds boundaries.
type Storage struct {
	JSCalls     []JSCall
	Requests    []RequestRecord
	Cookies     []CookieEntry
	ScriptFiles map[string]ScriptFile // keyed by content hash
	Visits      []VisitRecord
	Crashes     []CrashRecord
	Tampers     []TamperRecord

	// ContentWrites lists every accepted content write in order, repeats
	// included.
	ContentWrites []ContentWrite
	// VisitEnds[i] is Rows() just after Visits[i] was stored: visit i owns
	// the rows between VisitEnds[i-1] (zero for the first visit) and
	// VisitEnds[i] of each per-visit table.
	VisitEnds []VisitRows

	// TamperFn, when set, statically analyses each first-seen script body
	// and stores the resulting TamperRecord alongside the content table.
	TamperFn TamperFunc

	// FaultFn, when set, simulates storage-layer write failures: a true
	// return drops the write. Instrument tables honour it; the visit and
	// crash tables never do — site accounting must survive storage faults.
	FaultFn func(table string) bool
	// Dropped counts writes lost to storage faults, per table.
	Dropped map[string]int

	// Backend, when set, receives every accepted record as a durable append
	// (package wal). Append failures are counted in BackendErrors
	// and telemetry; the in-memory tables are unaffected — a failing disk
	// degrades durability, never the live crawl.
	Backend Backend
	// BackendErrors counts backend appends that failed, per table.
	BackendErrors map[string]int

	// telemetry handles, pre-resolved per table by SetTelemetry. Lookups on
	// the nil maps return nil counters, whose updates are no-ops, so the
	// disabled path needs no branches.
	tel         *telemetry.Telemetry
	writeMeters map[string]*telemetry.Counter
	dropMeters  map[string]*telemetry.Counter
}

// backendErr accounts one failed backend append on table. The record stays
// in memory; the failure is visible in BackendErrors and telemetry.
func (s *Storage) backendErr(table string, err error) {
	if err == nil {
		return
	}
	if s.BackendErrors == nil {
		s.BackendErrors = map[string]int{}
	}
	s.BackendErrors[table]++
	if s.tel.Enabled() {
		s.tel.Counter("storage_backend_errors_total", telemetry.L("table", table)).Inc()
	}
}

// storageTables lists every table name the store writes, fault-exempt ones
// included.
var storageTables = []string{"site_visits", "crashes", "http_requests", "javascript_cookies", "javascript", "content", "javascript_tamper"}

// SetTelemetry wires the store into a telemetry registry: per-table write
// and drop counters. Call before crawling; a nil argument leaves telemetry
// off.
func (s *Storage) SetTelemetry(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	s.tel = tel
	s.writeMeters = make(map[string]*telemetry.Counter, len(storageTables))
	s.dropMeters = make(map[string]*telemetry.Counter, len(storageTables))
	for _, t := range storageTables {
		s.writeMeters[t] = tel.Counter("storage_writes_total", telemetry.L("table", t))
		s.dropMeters[t] = tel.Counter("storage_drops_total", telemetry.L("table", t))
	}
}

// NewStorage returns an empty store.
func NewStorage() *Storage {
	return &Storage{ScriptFiles: map[string]ScriptFile{}, Dropped: map[string]int{}}
}

// dropWrite consults the storage fault hook for one write to table.
// NewStorage allocates Dropped, so no lazy initialisation happens here.
func (s *Storage) dropWrite(table string) bool {
	if s.FaultFn != nil && s.FaultFn(table) {
		s.Dropped[table]++
		s.dropMeters[table].Inc()
		if s.Backend != nil {
			s.backendErr(table, s.Backend.AppendDrop(table, ""))
		}
		return true
	}
	s.writeMeters[table].Inc()
	return false
}

// DroppedTotal is the number of writes lost across all tables.
func (s *Storage) DroppedTotal() int {
	n := 0
	for _, c := range s.Dropped {
		n += c
	}
	return n
}

// Rows returns the current length of each per-visit table.
func (s *Storage) Rows() VisitRows {
	return VisitRows{len(s.JSCalls), len(s.Cookies), len(s.ContentWrites), len(s.Tampers)}
}

// AddVisit stores a visit record and marks the visit's end in every
// per-visit table (VisitEnds). Visit rows are exempt from storage faults:
// losing one would silently lose a site from the crawl accounting.
func (s *Storage) AddVisit(rec VisitRecord) {
	s.writeMeters["site_visits"].Inc()
	s.Visits = append(s.Visits, rec)
	s.VisitEnds = append(s.VisitEnds, s.Rows())
	if s.Backend != nil {
		s.backendErr("site_visits", s.Backend.AppendVisit(rec))
	}
}

// AddCrash stores a crash record (exempt from storage faults, like visits).
func (s *Storage) AddCrash(rec CrashRecord) {
	s.writeMeters["crashes"].Inc()
	rec.Error = Sanitize(rec.Error)
	s.Crashes = append(s.Crashes, rec)
	if s.Backend != nil {
		s.backendErr("crashes", s.Backend.AppendCrash(rec))
	}
}

// AddRequest stores an HTTP request record.
func (s *Storage) AddRequest(rec RequestRecord) {
	if s.dropWrite("http_requests") {
		return
	}
	s.Requests = append(s.Requests, rec)
	if s.Backend != nil {
		s.backendErr("http_requests", s.Backend.AppendRequest(rec))
	}
}

// AddCookie stores a cookie record.
func (s *Storage) AddCookie(c CookieEntry) {
	if s.dropWrite("javascript_cookies") {
		return
	}
	s.Cookies = append(s.Cookies, c)
	if s.Backend != nil {
		s.backendErr("javascript_cookies", s.Backend.AppendCookie(c))
	}
}

// maxSanitized bounds the stored length of page-controlled strings.
const maxSanitized = 512

// Sanitize neutralises page-controlled strings before storage: quotes are
// escaped and length is bounded, so stored fields can never break out of a
// record (the SQL-injection surface of RQ7). Truncation never splits a
// multi-byte rune or an escape pair, so sanitised fields stay valid UTF-8
// and serialise canonically (bundle archival relies on this).
func Sanitize(s string) string {
	s = strings.ReplaceAll(s, "'", "''")
	s = strings.ReplaceAll(s, "\x00", "")
	s = strings.ReplaceAll(s, "\n", "\\n")
	if len(s) > maxSanitized {
		cut := maxSanitized
		for cut > maxSanitized-utf8.UTFMax && !utf8.RuneStart(s[cut]) {
			cut--
		}
		s = s[:cut]
		// an odd run of trailing quotes means the cut split a doubled pair
		run := 0
		for run < len(s) && s[len(s)-1-run] == '\'' {
			run++
		}
		if run%2 == 1 {
			s = s[:len(s)-1]
		}
	}
	return s
}

// AddJSCall stores a JS call record, sanitising page-controlled fields.
func (s *Storage) AddJSCall(c JSCall) {
	if s.dropWrite("javascript") {
		return
	}
	c.Symbol = Sanitize(c.Symbol)
	c.Value = Sanitize(c.Value)
	c.Args = Sanitize(c.Args)
	c.ScriptURL = Sanitize(c.ScriptURL)
	s.JSCalls = append(s.JSCalls, c)
	if s.Backend != nil {
		s.backendErr("javascript", s.Backend.AppendJSCall(c))
	}
}

// AddTamperReport stores a static tamper-analysis record. Tamper rows are
// derived data — a pure function of stored content — so like visits they are
// exempt from storage faults: dropping one would desynchronise the content
// and tamper tables for no modelled failure mode. Each shard's store analyses
// its own first sighting of a body, so the write and per-rule counters are
// fed once per crawl from the merged, deduplicated table (CountTampers), not
// here.
func (s *Storage) AddTamperReport(rec TamperRecord) {
	s.Tampers = append(s.Tampers, rec)
	if s.Backend != nil {
		s.backendErr("javascript_tamper", s.Backend.AppendTamper(rec))
	}
}

// CountTampers feeds the crawl's tamper rows into tel: one
// storage_writes_total{table=javascript_tamper} write and one
// tamper_rule_hits_total hit per finding. The scheduler calls it once, on
// the merged store, so a body that several shards analysed counts once.
func (s *Storage) CountTampers(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	tel.Counter("storage_writes_total", telemetry.L("table", "javascript_tamper")).Add(int64(len(s.Tampers)))
	for _, t := range s.Tampers {
		for _, f := range t.Findings {
			tel.Counter("tamper_rule_hits_total", telemetry.L("rule", f.Rule)).Inc()
		}
	}
}

// AddScriptFile records one content write in ContentWrites and stores the
// body keyed by hash if it is new. First-seen content additionally runs
// through TamperFn.
func (s *Storage) AddScriptFile(url, content, ctype string) {
	if s.dropWrite("content") {
		return
	}
	sum := sha256.Sum256([]byte(content))
	key := hex.EncodeToString(sum[:])
	f, ok := s.ScriptFiles[key]
	if ok {
		key = f.SHA256 // the write list keeps the stored key, not a second copy
	}
	s.ContentWrites = append(s.ContentWrites, ContentWrite{URL: url, SHA: key, CType: ctype})
	if s.Backend != nil {
		s.backendErr("content", s.Backend.AppendScriptFile(url, key, content, ctype))
	}
	if ok {
		return
	}
	s.ScriptFiles[key] = ScriptFile{URL: url, SHA256: key, Content: content, CType: ctype}
	if s.TamperFn != nil {
		if rec, hit := s.TamperFn(content); hit {
			rec.SHA256 = key
			rec.URL = url
			s.AddTamperReport(rec)
		}
	}
}

// Merge folds other's records into s (used to combine per-worker storages
// after a sharded crawl). other's content writes follow s's; a body s
// already stores keeps s's entry, and a tamper row whose body s already
// analysed is dropped, so each body's entry and row stay with the first
// visit, in merge order, that stored it. other's visit ends move past s's
// rows.
func (s *Storage) Merge(other *Storage) {
	base := s.Rows()
	s.JSCalls = append(s.JSCalls, other.JSCalls...)
	s.Requests = append(s.Requests, other.Requests...)
	s.Cookies = append(s.Cookies, other.Cookies...)
	s.Visits = append(s.Visits, other.Visits...)
	s.Crashes = append(s.Crashes, other.Crashes...)
	s.ContentWrites = append(s.ContentWrites, other.ContentWrites...)
	have := make(map[string]bool, len(s.Tampers))
	for _, t := range s.Tampers {
		have[t.SHA256] = true
	}
	// kept[j] counts the rows of other.Tampers[:j] that survive the dedupe
	kept := make([]int, len(other.Tampers)+1)
	for j, t := range other.Tampers {
		kept[j+1] = kept[j]
		// shards that saw the same body both analysed it; keep one record
		if !have[t.SHA256] {
			have[t.SHA256] = true
			s.Tampers = append(s.Tampers, t)
			kept[j+1]++
		}
	}
	for _, e := range other.VisitEnds {
		s.VisitEnds = append(s.VisitEnds, VisitRows{
			JSCalls:       base.JSCalls + e.JSCalls,
			Cookies:       base.Cookies + e.Cookies,
			ContentWrites: base.ContentWrites + e.ContentWrites,
			Tampers:       base.Tampers + kept[e.Tampers],
		})
	}
	if len(other.Dropped) > 0 {
		if s.Dropped == nil {
			s.Dropped = map[string]int{}
		}
		for table, n := range other.Dropped {
			s.Dropped[table] += n
		}
	}
	if len(other.BackendErrors) > 0 {
		if s.BackendErrors == nil {
			s.BackendErrors = map[string]int{}
		}
		for table, n := range other.BackendErrors {
			s.BackendErrors[table] += n
		}
	}
	for key, f := range other.ScriptFiles {
		if _, ok := s.ScriptFiles[key]; !ok {
			s.ScriptFiles[key] = f
		}
	}
}

// JSCallsBySymbol tallies recorded calls per symbol.
func (s *Storage) JSCallsBySymbol() map[string]int {
	out := map[string]int{}
	for _, c := range s.JSCalls {
		out[c.Symbol]++
	}
	return out
}

// RequestsByType tallies requests per resource type.
func (s *Storage) RequestsByType() map[httpsim.ResourceType]int {
	out := map[httpsim.ResourceType]int{}
	for _, r := range s.Requests {
		out[r.Type]++
	}
	return out
}

// Digest is a deterministic SHA-256 over every table: two crawls that
// stored the same records in the same order share a digest. Each
// record-ordered table (visits, crashes, requests, JS calls, cookies) hashes
// in insertion order into its own section digest. The content table
// contributes, per body in SHA order, the first write's content type and
// the sorted, deduplicated URLs that served it (from ContentWrites); the
// tamper table (first row per body) and the dropped-write counters follow in
// sorted key order. The final digest hashes the labelled section digests
// and then the sorted sections. Replaying a crawl from its execution bundle
// must reproduce this digest exactly.
func (s *Storage) Digest() string {
	h, sec := sha256.New(), sha256.New()
	// endSection folds the section just written to sec into h, labelled
	endSection := func(name string) {
		fmt.Fprintf(h, "%s|%x\n", name, sec.Sum(nil))
		sec.Reset()
	}
	for _, v := range s.Visits {
		fmt.Fprintf(sec, "visit|%s|%s|%s|%t|%t|%q|%d|%t|%d|%s|%t\n",
			v.SiteURL, v.FinalURL, v.Site, v.Subpage, v.OK, v.Error,
			v.CSPReports, v.InstrumentInstalled, v.Restarts, v.ErrorClass, v.Salvaged)
	}
	endSection("visits")
	for _, c := range s.Crashes {
		fmt.Fprintf(sec, "crash|%s|%s|%d|%s|%q\n", c.SiteURL, c.PageURL, c.Attempt, c.Class, c.Error)
	}
	endSection("crashes")
	for _, r := range s.Requests {
		fmt.Fprintf(sec, "request|%s|%s|%s|%s|%d|%s|%g|%d\n",
			r.Method, r.URL, r.TopURL, r.Type, r.Status, r.CType, r.Time, r.BodySize)
	}
	endSection("requests")
	for _, c := range s.JSCalls {
		fmt.Fprintf(sec, "jscall|%s|%s|%s|%q|%q|%q|%s|%g\n",
			c.TopURL, c.FrameURL, c.Symbol, c.Operation, c.Value, c.Args, c.ScriptURL, c.Time)
	}
	endSection("jscalls")
	for _, c := range s.Cookies {
		fmt.Fprintf(sec, "cookie|%q|%q|%s|%s|%g|%t|%t|%g\n",
			c.Name, c.Value, c.Domain, c.TopURL, c.Expires, c.ViaJS, c.FirstParty, c.Time)
	}
	endSection("cookies")

	ctype := map[string]string{} // first write's content type per body
	urls := map[string][]string{}
	for _, w := range s.ContentWrites {
		if _, ok := ctype[w.SHA]; !ok {
			ctype[w.SHA] = w.CType
		}
		urls[w.SHA] = append(urls[w.SHA], w.URL)
	}
	for _, sha := range sortedKeys(ctype) {
		u := urls[sha]
		slices.Sort(u)
		fmt.Fprintf(h, "script|%s|%s|%s\n", sha, ctype[sha], strings.Join(slices.Compact(u), ","))
	}

	tampers := map[string]TamperRecord{}
	for _, t := range s.Tampers {
		if _, ok := tampers[t.SHA256]; !ok {
			tampers[t.SHA256] = t
		}
	}
	for _, sha := range sortedKeys(tampers) {
		t := tampers[sha]
		fmt.Fprintf(h, "tamper|%s|%s|%t", t.SHA256, t.URL, t.Parsed)
		for _, f := range t.Findings {
			fmt.Fprintf(h, "|%s:%d:%q", f.Rule, f.Line, f.Detail)
		}
		fmt.Fprintln(h)
	}
	for _, table := range sortedKeys(s.Dropped) {
		fmt.Fprintf(h, "dropped|%s|%d\n", table, s.Dropped[table])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
