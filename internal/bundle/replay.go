package bundle

import (
	"fmt"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
)

// MissPolicy decides what a ReplayTransport does for a request the bundle
// never saw (variant replays — different instruments, different interaction
// settings — can issue requests the recording crawl did not).
type MissPolicy int

const (
	// MissFail returns a permanent error for unrecorded requests (the
	// strict default: replays should stay inside the archive).
	MissFail MissPolicy = iota
	// MissPassthrough forwards unrecorded requests to a fallback transport:
	// a replay inside a scan that still holds its live world (hybrid
	// replays). Without a fallback every miss fails as under MissFail.
	MissPassthrough
	// MissSynthesize404 answers unrecorded requests with an empty 404.
	MissSynthesize404
)

func (p MissPolicy) String() string {
	switch p {
	case MissFail:
		return "fail"
	case MissPassthrough:
		return "passthrough"
	case MissSynthesize404:
		return "synthesize-404"
	}
	return fmt.Sprintf("misspolicy(%d)", int(p))
}

// ParseMissPolicy parses a policy name as used by CLI flags.
func ParseMissPolicy(s string) (MissPolicy, error) {
	switch s {
	case "fail":
		return MissFail, nil
	case "passthrough":
		return MissPassthrough, nil
	case "synthesize-404", "404":
		return MissSynthesize404, nil
	}
	return MissFail, fmt.Errorf("bundle: unknown miss policy %q (want fail, passthrough or synthesize-404)", s)
}

// replayError reproduces an archived transport failure: the exact error
// string plus the fault metadata the browser and recovery pipeline sniff
// (class, virtual cost, visit abortion), so a replayed faulted crawl takes
// the same recovery path and stores the same error strings.
type replayError struct {
	msg     string
	class   faults.Class
	seconds float64
	aborts  bool
}

func (e *replayError) Error() string { return e.msg }

// FaultClass implements faults.Classified.
func (e *replayError) FaultClass() faults.Class { return e.class }

// VirtualCost reports the archived virtual time the failure consumed.
func (e *replayError) VirtualCost() float64 { return e.seconds }

// AbortsVisit reports whether the archived failure killed its visit.
func (e *replayError) AbortsVisit() bool { return e.aborts }

// parseClass maps an archived class name back to the taxonomy.
func parseClass(s string) faults.Class {
	switch s {
	case "none", "":
		return faults.ClassNone
	case "transient":
		return faults.ClassTransient
	case "permanent":
		return faults.ClassPermanent
	case "hang":
		return faults.ClassHang
	case "crash":
		return faults.ClassCrash
	}
	return faults.ClassTransient
}

// ReplayTransport serves a recorded crawl back through the ordinary
// httpsim.RoundTripper interface. Exchanges are indexed by
// (method, URL, top URL) with a (method, URL) fallback, and each key keeps a
// cursor over its recorded sequence — so a request that first failed and
// then succeeded on retry replays as exactly that sequence. A cursor that
// runs past its sequence keeps serving the final exchange (variant replays
// may repeat requests more often than the recording did). A storage write is
// dropped exactly when the recording dropped the write at the same page
// position (faults.PageCursor).
//
// One ReplayTransport serves one goroutine; sharded replays give each
// worker its own transport over the shared read-only bundle.
type ReplayTransport struct {
	bundle   *Bundle
	policy   MissPolicy
	fallback httpsim.RoundTripper

	exchanges []Exchange
	byFull    map[string][]int
	byURL     map[string][]int
	cursor    map[string]int

	drops map[StorageDrop]bool
	pages faults.PageCursor

	// Hits and Misses count recorded vs unrecorded requests served.
	Hits   int
	Misses int
}

// NewReplayTransport indexes a bundle for replay. fallback is only used
// under MissPassthrough and may be nil otherwise.
func NewReplayTransport(b *Bundle, policy MissPolicy, fallback httpsim.RoundTripper) *ReplayTransport {
	t := &ReplayTransport{
		bundle:   b,
		policy:   policy,
		fallback: fallback,
		byFull:   map[string][]int{},
		byURL:    map[string][]int{},
		cursor:   map[string]int{},
		drops:    map[StorageDrop]bool{},
	}
	for _, v := range b.Visits {
		for _, d := range v.StorageDrops {
			t.drops[d] = true
		}
		for _, e := range v.Exchanges {
			i := len(t.exchanges)
			t.exchanges = append(t.exchanges, e)
			fk := e.Method + "\x00" + e.URL + "\x00" + e.TopURL
			uk := e.Method + "\x00" + e.URL
			t.byFull[fk] = append(t.byFull[fk], i)
			t.byURL[uk] = append(t.byURL[uk], i)
		}
	}
	return t
}

// RoundTrip serves the next recorded exchange for the request, or applies
// the miss policy.
func (t *ReplayTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	t.pages.Observe(req)
	fk := req.Method + "\x00" + req.URL + "\x00" + req.TopURL
	key, seq := fk, t.byFull[fk]
	if len(seq) == 0 {
		key = req.Method + "\x00" + req.URL
		seq = t.byURL[key]
	}
	if len(seq) == 0 {
		t.Misses++
		switch t.policy {
		case MissPassthrough:
			if t.fallback != nil {
				return t.fallback.RoundTrip(req)
			}
			return nil, faults.Permanentf("bundle: replay miss for %s %s (no fallback transport)", req.Method, req.URL)
		case MissSynthesize404:
			return &httpsim.Response{Status: 404}, nil
		default:
			return nil, faults.Permanentf("bundle: replay miss for %s %s (not in bundle)", req.Method, req.URL)
		}
	}
	t.Hits++
	i := t.cursor[key]
	if i >= len(seq) {
		i = len(seq) - 1 // exhausted: keep serving the final outcome
	} else {
		t.cursor[key] = i + 1
	}
	e := t.exchanges[seq[i]]
	if e.Err != "" {
		return nil, &replayError{
			msg:     e.Err,
			class:   parseClass(e.ErrClass),
			seconds: e.ErrSeconds,
			aborts:  e.ErrAborts,
		}
	}
	resp := &httpsim.Response{
		Status:       e.Status,
		Headers:      e.Headers,
		SetCookies:   e.SetCookies,
		DelaySeconds: e.DelaySeconds,
	}
	if e.BodySHA != "" {
		resp.Body = t.bundle.Bodies[e.BodySHA]
	}
	return resp, nil
}

// OffsetStorage does nothing: storage drops are archived at page positions,
// which no shard boundary moves, so a sharded replay needs no offset. The
// benchmark harness (cmd/wpmbench) still calls it.
func (t *ReplayTransport) OffsetStorage(map[string]int) {}

// StorageFault replays the recorded storage drops: a write is dropped on
// replay exactly when the recording dropped the write at the same page
// position.
func (t *ReplayTransport) StorageFault(table string) bool {
	page, n := t.pages.Next(table)
	return t.drops[StorageDrop{Page: page, Table: table, N: n}]
}
