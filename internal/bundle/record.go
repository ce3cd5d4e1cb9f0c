package bundle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/openwpm"
)

// Spool receives the recorder's archive stream as it is produced, so a
// durable backend can persist bundle state incrementally instead of only at
// Finalize. Bodies are spooled once per SHA (the pool is content-addressed);
// visits are spooled as they close. A spool failure never blocks recording —
// the in-memory bundle stays authoritative and failures are counted.
type Spool interface {
	SpoolBody(sha, content string) error
	SpoolVisit(v Visit) error
}

// Recorder archives a crawl into a Bundle. It implements openwpm.Recorder:
// a transport wrapper captures every HTTP exchange (responses and errors
// alike) and every storage-fault drop decision, while the storage-observer
// side receives each accepted record. Visits arrive last for their page, so
// everything buffered since the previous visit row belongs to them.
//
// A Recorder serves one crawl on one goroutine (sharded crawls need one
// recorder per worker); Finalize assembles the Bundle.
type Recorder struct {
	meta map[string]string

	// Spool, when non-nil, receives bodies and visits as they are archived
	// (streamed off the same append path as the storage backend).
	Spool Spool

	bodies      map[string]string
	spoolErrors int

	// per-visit buffers, flushed by ObserveVisit
	pendingExchanges []Exchange
	pendingJSCalls   []openwpm.JSCall
	pendingCookies   []openwpm.CookieEntry
	pendingScripts   []ScriptRef
	pendingTampers   []openwpm.TamperRecord

	visits  []Visit
	crashes []openwpm.CrashRecord

	// storage-fault archive: writeSeq counts fault-filter consultations per
	// table; drops holds the 1-based sequence numbers that were dropped, and
	// lastWriteSeq remembers each table's count at the previous visit row so
	// ObserveVisit can attribute the delta to the closing visit.
	writeSeq     map[string]int
	drops        map[string][]int
	lastWriteSeq map[string]int
}

// NewRecorder creates a Recorder. meta labels the bundle manifest; it must
// be deterministic content (seeds, scenario names — never timestamps).
func NewRecorder(meta map[string]string) *Recorder {
	return &Recorder{
		meta:         meta,
		bodies:       map[string]string{},
		writeSeq:     map[string]int{},
		drops:        map[string][]int{},
		lastWriteSeq: map[string]int{},
	}
}

// intern stores content in the body pool and returns its SHA-256 key.
func (r *Recorder) intern(content string) string {
	sum := sha256.Sum256([]byte(content))
	key := hex.EncodeToString(sum[:])
	if _, ok := r.bodies[key]; !ok {
		r.bodies[key] = content
		r.spoolBody(key, content)
	}
	return key
}

// spoolBody forwards a newly interned body to the spool, counting failures.
func (r *Recorder) spoolBody(sha, content string) {
	if r.Spool == nil {
		return
	}
	if err := r.Spool.SpoolBody(sha, content); err != nil {
		r.spoolErrors++
	}
}

// SpoolErrors reports how many spool appends failed (the in-memory bundle is
// unaffected; the durable copy is missing those records).
func (r *Recorder) SpoolErrors() int { return r.spoolErrors }

// WrapTransport implements openwpm.Recorder.
func (r *Recorder) WrapTransport(rt httpsim.RoundTripper) httpsim.RoundTripper {
	return &recorderTransport{rec: r, next: rt}
}

// recorderTransport records every round trip. It always advertises the
// StorageFault capability: delegating to the wrapped transport when present,
// archiving each drop decision either way, so replays can reproduce the
// exact storage losses of a faulted crawl.
type recorderTransport struct {
	rec  *Recorder
	next httpsim.RoundTripper
}

// RoundTrip archives the exchange and passes the result through unchanged —
// the browser type-asserts fault metadata on the raw error, so errors must
// not be wrapped here.
func (t *recorderTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	resp, err := t.next.RoundTrip(req)
	e := Exchange{
		Method: req.Method,
		URL:    req.URL,
		Type:   string(req.Type),
		TopURL: req.TopURL,
	}
	if err != nil {
		e.Err = err.Error()
		e.ErrClass = faults.Classify(err).String()
		if vc, ok := err.(interface{ VirtualCost() float64 }); ok {
			e.ErrSeconds = vc.VirtualCost()
		}
		if ab, ok := err.(interface{ AbortsVisit() bool }); ok {
			e.ErrAborts = ab.AbortsVisit()
		}
	} else if resp != nil {
		e.Status = resp.Status
		e.Headers = resp.Headers
		e.SetCookies = resp.SetCookies
		e.DelaySeconds = resp.DelaySeconds
		if resp.Body != "" {
			e.BodySHA = t.rec.intern(resp.Body)
		}
	}
	t.rec.pendingExchanges = append(t.rec.pendingExchanges, e)
	return resp, err
}

// StorageFault implements the storage fault hook, archiving the decision.
func (t *recorderTransport) StorageFault(table string) bool {
	r := t.rec
	r.writeSeq[table]++
	drop := false
	if sf, ok := t.next.(interface{ StorageFault(table string) bool }); ok {
		drop = sf.StorageFault(table)
	}
	if drop {
		r.drops[table] = append(r.drops[table], r.writeSeq[table])
	}
	return drop
}

// ObserveVisit closes out the current page: everything buffered since the
// previous visit row rode along with this one.
func (r *Recorder) ObserveVisit(rec openwpm.VisitRecord) {
	v := Visit{
		Record:        rec,
		Exchanges:     r.pendingExchanges,
		JSCalls:       r.pendingJSCalls,
		Cookies:       r.pendingCookies,
		Scripts:       r.pendingScripts,
		Tampers:       r.pendingTampers,
		StorageWrites: r.visitWrites(),
	}
	r.visits = append(r.visits, v)
	if r.Spool != nil {
		if err := r.Spool.SpoolVisit(v); err != nil {
			r.spoolErrors++
		}
	}
	r.pendingExchanges = nil
	r.pendingJSCalls = nil
	r.pendingCookies = nil
	r.pendingScripts = nil
	r.pendingTampers = nil
}

// visitWrites snapshots the per-table fault-filter consultations consumed
// since the previous visit row; nil when the visit wrote nothing.
func (r *Recorder) visitWrites() map[string]int {
	var out map[string]int
	for table, seq := range r.writeSeq {
		d := seq - r.lastWriteSeq[table]
		if d == 0 {
			continue
		}
		if out == nil {
			out = map[string]int{}
		}
		out[table] = d
		r.lastWriteSeq[table] = seq
	}
	return out
}

// ObserveCrash archives a browser-restart row (crashes happen mid-visit, so
// they keep their own table rather than a per-visit buffer).
func (r *Recorder) ObserveCrash(rec openwpm.CrashRecord) {
	r.crashes = append(r.crashes, rec)
}

// ObserveRequest is a no-op: the transport wrapper sees the same traffic
// with bodies and fault metadata the request table lacks.
func (r *Recorder) ObserveRequest(openwpm.RequestRecord) {}

// ObserveCookie buffers a cookie row for the current visit.
func (r *Recorder) ObserveCookie(c openwpm.CookieEntry) {
	r.pendingCookies = append(r.pendingCookies, c)
}

// ObserveJSCall buffers a JS-call row for the current visit.
func (r *Recorder) ObserveJSCall(c openwpm.JSCall) {
	r.pendingJSCalls = append(r.pendingJSCalls, c)
}

// ObserveScriptFile buffers a stored script body for the current visit.
func (r *Recorder) ObserveScriptFile(url, sha, content, ctype string) {
	if _, ok := r.bodies[sha]; !ok {
		r.bodies[sha] = content
		r.spoolBody(sha, content)
	}
	r.pendingScripts = append(r.pendingScripts, ScriptRef{URL: url, SHA: sha, CType: ctype})
}

// ObserveTamperReport buffers a static-analysis record for the current
// visit. Records are derived purely from script content, so a replay with
// the same analyser reproduces them byte-for-byte.
func (r *Recorder) ObserveTamperReport(rec openwpm.TamperRecord) {
	r.pendingTampers = append(r.pendingTampers, rec)
}

// Finalize assembles and seals the bundle for a finished crawl. cfg should
// be the task manager's effective configuration (tm.Cfg) so defaulted fields
// are archived as they ran.
func (r *Recorder) Finalize(cfg openwpm.CrawlConfig, sites []string, report *openwpm.CrawlReport) (*Bundle, error) {
	b := &Bundle{
		Manifest: Manifest{Format: Format, Tool: Tool, Meta: r.meta},
		Config:   ConfigOf(cfg),
		Sites:    append([]string(nil), sites...),
		Visits:   r.visits,
		Crashes:  r.crashes,
		Bodies:   r.bodies,
		Report:   report,
	}
	if len(r.drops) > 0 {
		b.StorageDrops = map[string][]int{}
		for table, seqs := range r.drops {
			b.StorageDrops[table] = append([]int(nil), seqs...)
			sort.Ints(b.StorageDrops[table])
		}
	}
	if err := b.Seal(); err != nil {
		return nil, err
	}
	return b, nil
}

// RecorderState is the compact resumable part of a Recorder at a site
// boundary: the storage-fault bookkeeping that cannot be rebuilt from the
// archived visits alone. Bodies, visits and crashes are recovered from the
// spooled stream; this blob rides inside checkpoint records.
type RecorderState struct {
	WriteSeq     map[string]int   `json:"writeSeq,omitempty"`
	LastWriteSeq map[string]int   `json:"lastWriteSeq,omitempty"`
	Drops        map[string][]int `json:"drops,omitempty"`
	SpoolErrors  int              `json:"spoolErrors,omitempty"`
}

// StateJSON snapshots the recorder's resumable state as JSON. Call it at a
// visit boundary (after ObserveVisit), where the pending buffers are empty.
func (r *Recorder) StateJSON() []byte {
	s := RecorderState{
		WriteSeq:     r.writeSeq,
		LastWriteSeq: r.lastWriteSeq,
		Drops:        r.drops,
		SpoolErrors:  r.spoolErrors,
	}
	out, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	return out
}

// RestoreRecorder rebuilds a Recorder from recovered durable state: the
// bundle meta, the spooled body pool and visit stream, the crash rows (which
// share the storage crash table), and the RecorderState blob from the last
// checkpoint. The restored recorder continues exactly where the checkpoint
// left it — pending buffers are empty because checkpoints land on visit
// boundaries.
func RestoreRecorder(meta map[string]string, bodies map[string]string, visits []Visit, crashes []openwpm.CrashRecord, state []byte) (*Recorder, error) {
	r := NewRecorder(meta)
	for sha, content := range bodies {
		r.bodies[sha] = content
	}
	r.visits = append(r.visits, visits...)
	r.crashes = append(r.crashes, crashes...)
	if len(state) > 0 {
		var s RecorderState
		if err := json.Unmarshal(state, &s); err != nil {
			return nil, fmt.Errorf("bundle: recorder state: %w", err)
		}
		for t, n := range s.WriteSeq {
			r.writeSeq[t] = n
		}
		for t, n := range s.LastWriteSeq {
			r.lastWriteSeq[t] = n
		}
		for t, seqs := range s.Drops {
			r.drops[t] = append([]int(nil), seqs...)
		}
		r.spoolErrors = s.SpoolErrors
	}
	return r, nil
}
