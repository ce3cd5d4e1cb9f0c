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
// full-coverage mode). Identical content is stored once; URLs lists every
// location it was served from.
type ScriptFile struct {
	URL     string // first URL observed
	SHA256  string
	Content string
	CType   string
	URLs    []string // all URLs serving this content, deduplicated
}

// ContentWrite is one accepted content-table write: the URL that served a
// body and the body's SHA-256. ScriptFiles folds repeated writes of a body
// into one entry; Storage.ContentWrites keeps every write, in order.
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

// AddScriptFile stores a response body keyed by hash, tracking every URL
// that served it. First-seen content additionally runs through TamperFn.
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
	if !ok {
		s.ScriptFiles[key] = ScriptFile{URL: url, SHA256: key, Content: content, CType: ctype, URLs: []string{url}}
		if s.TamperFn != nil {
			if rec, hit := s.TamperFn(content); hit {
				rec.SHA256 = key
				rec.URL = url
				s.AddTamperReport(rec)
			}
		}
		return
	}
	for _, u := range f.URLs {
		if u == url {
			return
		}
	}
	f.URLs = append(f.URLs, url)
	s.ScriptFiles[key] = f
}

// Merge folds other's records into s (used to combine per-worker storages
// after a sharded crawl). other's visit ends move past s's rows; a tamper row
// whose body s already analysed is dropped, so each body's row stays on the
// first visit, in merge order, that stored it.
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
		existing, ok := s.ScriptFiles[key]
		if !ok {
			s.ScriptFiles[key] = f
			continue
		}
		for _, u := range f.URLs {
			dup := false
			for _, eu := range existing.URLs {
				if eu == u {
					dup = true
					break
				}
			}
			if !dup {
				existing.URLs = append(existing.URLs, u)
			}
		}
		s.ScriptFiles[key] = existing
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
// stored the same records in the same order share a digest. Record-ordered
// tables hash in insertion order; the content-addressed script store, the
// tamper table and the dropped-write counters hash in sorted key order.
// Replaying a crawl from its execution bundle must reproduce this digest
// exactly.
func (s *Storage) Digest() string {
	d := newDigestState()
	for _, v := range s.Visits {
		d.addVisit(v)
	}
	for _, c := range s.Crashes {
		d.addCrash(c)
	}
	for _, r := range s.Requests {
		d.addRequest(r)
	}
	for _, c := range s.JSCalls {
		d.addJSCall(c)
	}
	for _, c := range s.Cookies {
		d.addCookie(c)
	}
	for k, f := range s.ScriptFiles {
		for _, u := range f.URLs {
			d.addScript(u, k, f.CType)
		}
	}
	for _, t := range s.Tampers {
		d.addTamper(t)
	}
	for t, n := range s.Dropped {
		d.addDropped(t, n)
	}
	return d.sum()
}
