package openwpm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
)

// digestState accumulates Storage.Digest(): records are fed one at a time,
// in table order, and sum() is a deterministic SHA-256 over everything fed.
//
// Insertion-ordered tables (visits, crashes, requests, js calls, cookies)
// each keep a running hasher; the sorted sections (content-addressed
// scripts, tamper records, dropped-write counters) keep compact state and
// are serialised in key order at sum() time. The final digest hashes the
// per-section digests, labelled, in a fixed order.
type digestState struct {
	visits   hash.Hash
	crashes  hash.Hash
	requests hash.Hash
	jscalls  hash.Hash
	cookies  hash.Hash

	scripts map[string]*scriptDigest // keyed by content SHA-256
	tampers map[string]TamperRecord  // keyed by content SHA-256, first wins
	dropped map[string]int
}

// scriptDigest is the digest-relevant projection of one stored script file:
// its content type and the deduplicated set of URLs that served it.
type scriptDigest struct {
	ctype string
	urls  []string
	seen  map[string]bool
}

// newDigestState returns an empty accumulator.
func newDigestState() *digestState {
	return &digestState{
		visits:   sha256.New(),
		crashes:  sha256.New(),
		requests: sha256.New(),
		jscalls:  sha256.New(),
		cookies:  sha256.New(),
		scripts:  map[string]*scriptDigest{},
		tampers:  map[string]TamperRecord{},
		dropped:  map[string]int{},
	}
}

func (d *digestState) addVisit(v VisitRecord) {
	fmt.Fprintf(d.visits, "visit|%s|%s|%s|%t|%t|%q|%d|%t|%d|%s|%t\n",
		v.SiteURL, v.FinalURL, v.Site, v.Subpage, v.OK, v.Error,
		v.CSPReports, v.InstrumentInstalled, v.Restarts, v.ErrorClass, v.Salvaged)
}

func (d *digestState) addCrash(c CrashRecord) {
	fmt.Fprintf(d.crashes, "crash|%s|%s|%d|%s|%q\n", c.SiteURL, c.PageURL, c.Attempt, c.Class, c.Error)
}

func (d *digestState) addRequest(r RequestRecord) {
	fmt.Fprintf(d.requests, "request|%s|%s|%s|%s|%d|%s|%g|%d\n",
		r.Method, r.URL, r.TopURL, r.Type, r.Status, r.CType, r.Time, r.BodySize)
}

func (d *digestState) addJSCall(c JSCall) {
	fmt.Fprintf(d.jscalls, "jscall|%s|%s|%s|%q|%q|%q|%s|%g\n",
		c.TopURL, c.FrameURL, c.Symbol, c.Operation, c.Value, c.Args, c.ScriptURL, c.Time)
}

func (d *digestState) addCookie(c CookieEntry) {
	fmt.Fprintf(d.cookies, "cookie|%q|%q|%s|%s|%g|%t|%t|%g\n",
		c.Name, c.Value, c.Domain, c.TopURL, c.Expires, c.ViaJS, c.FirstParty, c.Time)
}

// addScript feeds one accepted content write. Only the content's hash, type
// and serving URLs are digest-relevant; duplicate URLs for the same hash
// collapse exactly as Storage.AddScriptFile collapses them.
func (d *digestState) addScript(url, sha, ctype string) {
	s, ok := d.scripts[sha]
	if !ok {
		s = &scriptDigest{ctype: ctype, seen: map[string]bool{}}
		d.scripts[sha] = s
	}
	if !s.seen[url] {
		s.seen[url] = true
		s.urls = append(s.urls, url)
	}
}

// addTamper feeds one stored tamper record; duplicates for the same body
// (shards that both analysed it) collapse to the first, matching
// Storage.Merge.
func (d *digestState) addTamper(t TamperRecord) {
	if _, ok := d.tampers[t.SHA256]; !ok {
		d.tampers[t.SHA256] = t
	}
}

// addDropped feeds n dropped writes on table.
func (d *digestState) addDropped(table string, n int) { d.dropped[table] += n }

// sum finalises the digest over everything fed.
func (d *digestState) sum() string {
	h := sha256.New()
	for _, sec := range []struct {
		name string
		h    hash.Hash
	}{
		{"visits", d.visits}, {"crashes", d.crashes}, {"requests", d.requests},
		{"jscalls", d.jscalls}, {"cookies", d.cookies},
	} {
		fmt.Fprintf(h, "%s|%x\n", sec.name, sec.h.Sum(nil))
	}
	hashes := make([]string, 0, len(d.scripts))
	for k := range d.scripts {
		hashes = append(hashes, k)
	}
	sort.Strings(hashes)
	for _, k := range hashes {
		s := d.scripts[k]
		urls := append([]string(nil), s.urls...)
		sort.Strings(urls)
		fmt.Fprintf(h, "script|%s|%s|%s\n", k, s.ctype, strings.Join(urls, ","))
	}
	shas := make([]string, 0, len(d.tampers))
	for k := range d.tampers {
		shas = append(shas, k)
	}
	sort.Strings(shas)
	for _, k := range shas {
		t := d.tampers[k]
		fmt.Fprintf(h, "tamper|%s|%s|%t", t.SHA256, t.URL, t.Parsed)
		for _, f := range t.Findings {
			fmt.Fprintf(h, "|%s:%d:%q", f.Rule, f.Line, f.Detail)
		}
		fmt.Fprintln(h)
	}
	tables := make([]string, 0, len(d.dropped))
	for t := range d.dropped {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Fprintf(h, "dropped|%s|%d\n", t, d.dropped[t])
	}
	return hex.EncodeToString(h.Sum(nil))
}
