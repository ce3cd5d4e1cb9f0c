package bundle

import (
	"crypto/sha256"
	"encoding/hex"

	"gullible/internal/faults"
	"gullible/internal/httpsim"
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

// Recorder archives what only the transport sees. It implements
// openwpm.Recorder: a transport wrapper captures every HTTP exchange
// (responses and errors alike) into the body pool, counts every storage
// write and archives each drop at its page position, and EndVisit closes the
// page. The storage rows themselves stay in openwpm.Storage; Finalize cuts
// each visit's share out of the merged store.
//
// A Recorder serves one crawl on one goroutine (sharded crawls need one
// recorder per worker); Finalize assembles the Bundle from a crawl's
// recorders and its storage.
type Recorder struct {
	meta map[string]string

	// Spool, when non-nil, receives bodies and visits as they are archived
	// (streamed off the same append path as the storage backend).
	Spool Spool

	bodies map[string]string

	// per-visit buffers, flushed by EndVisit
	pendingExchanges []Exchange
	pendingWrites    map[string]int
	pendingDrops     []StorageDrop

	// visits hold only what the recorder saw: exchanges, writes and drops
	visits []Visit
}

// NewRecorder creates a Recorder. meta labels the bundle manifest; it must
// be deterministic content (seeds, scenario names — never timestamps).
func NewRecorder(meta map[string]string) *Recorder {
	return &Recorder{meta: meta, bodies: map[string]string{}}
}

// intern stores content in the body pool, forwarding a new body to the
// spool, and returns its SHA-256 key.
func (r *Recorder) intern(content string) string {
	sum := sha256.Sum256([]byte(content))
	key := hex.EncodeToString(sum[:])
	if _, ok := r.bodies[key]; !ok {
		r.bodies[key] = content
		if r.Spool != nil {
			// a failed append is the WAL writer's to count (Stats().Lost);
			// the in-memory pool keeps the body either way
			_ = r.Spool.SpoolBody(key, content)
		}
	}
	return key
}

// WrapTransport implements openwpm.Recorder.
func (r *Recorder) WrapTransport(rt httpsim.RoundTripper) httpsim.RoundTripper {
	return &recorderTransport{rec: r, next: rt}
}

// recorderTransport records every round trip. It always advertises the
// StorageFault capability: delegating to the wrapped transport when present,
// and archiving each drop at its page position either way, so replays can
// reproduce the exact storage losses of a faulted crawl.
type recorderTransport struct {
	rec   *Recorder
	next  httpsim.RoundTripper
	pages faults.PageCursor
}

// RoundTrip archives the exchange and passes the result through unchanged —
// the browser type-asserts fault metadata on the raw error, so errors must
// not be wrapped here.
func (t *recorderTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	t.pages.Observe(req)
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
	page, n := t.pages.Next(table)
	if r.pendingWrites == nil {
		r.pendingWrites = map[string]int{}
	}
	r.pendingWrites[table]++
	drop := false
	if sf, ok := t.next.(interface{ StorageFault(table string) bool }); ok {
		drop = sf.StorageFault(table)
	}
	if drop {
		r.pendingDrops = append(r.pendingDrops, StorageDrop{Page: page, Table: table, N: n})
	}
	return drop
}

// EndVisit implements openwpm.Recorder: everything the transport saw since
// the previous visit row belongs to the page whose row was just stored.
func (r *Recorder) EndVisit() {
	v := Visit{
		Exchanges:     r.pendingExchanges,
		StorageWrites: r.pendingWrites,
		StorageDrops:  r.pendingDrops,
	}
	r.visits = append(r.visits, v)
	if r.Spool != nil {
		// counted by the WAL writer, like a failed body append
		_ = r.Spool.SpoolVisit(v)
	}
	r.pendingExchanges = nil
	r.pendingWrites = nil
	r.pendingDrops = nil
}

// RestoreRecorder rebuilds a Recorder from recovered durable state: the
// bundle meta and the spooled body pool and visit stream. The restored
// recorder continues exactly where the last checkpoint left it: checkpoints
// land on visit boundaries, where the pending buffers are empty, and each
// spooled visit carries its own exchanges, storage writes and drops. A
// visit spooled by an older recorder also carries storage rows; Finalize
// takes those from the storage instead.
func RestoreRecorder(meta map[string]string, bodies map[string]string, visits []Visit) *Recorder {
	r := NewRecorder(meta)
	for sha, content := range bodies {
		r.bodies[sha] = content
	}
	r.visits = append(r.visits, visits...)
	return r
}
