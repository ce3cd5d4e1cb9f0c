package main

import (
	"gullible/internal/browser"
	"gullible/internal/bundle"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
)

// The wrappers below time calls across the boundaries the crawl already
// exposes for injection — the transport, the storage backend, the JS
// instrument slot and the tamper analyser — recording spans on the lane of
// the goroutine that makes the call. Each forwards everything else
// unchanged, including the optional capabilities callers sniff for with type
// assertions, so a traced crawl stores the same bytes as an untraced one.

// storageFaulter and faultCounter are the optional transport capabilities
// openwpm (storage-fault hook) and sched (injected-fault tallies) sniff.
type storageFaulter interface{ StorageFault(table string) bool }
type faultCounter interface{ CountsByName() map[string]int }

type tracedTransport struct {
	next httpsim.RoundTripper
	ln   *lane
}

func (t *tracedTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	i := t.ln.begin(spanHTTP)
	resp, err := t.next.RoundTrip(req)
	t.ln.end(i)
	return resp, err
}

type transportSF struct {
	*tracedTransport
	sf storageFaulter
}

func (t transportSF) StorageFault(table string) bool { return t.sf.StorageFault(table) }

type transportFC struct {
	*tracedTransport
	fc faultCounter
}

func (t transportFC) CountsByName() map[string]int { return t.fc.CountsByName() }

type transportSFFC struct {
	*tracedTransport
	sf storageFaulter
	fc faultCounter
}

func (t transportSFFC) StorageFault(table string) bool { return t.sf.StorageFault(table) }
func (t transportSFFC) CountsByName() map[string]int   { return t.fc.CountsByName() }

// wrapTransport times rt's round trips on ln, exposing exactly the optional
// capabilities rt has.
func wrapTransport(rt httpsim.RoundTripper, ln *lane) httpsim.RoundTripper {
	base := &tracedTransport{next: rt, ln: ln}
	sf, hasSF := rt.(storageFaulter)
	fc, hasFC := rt.(faultCounter)
	switch {
	case hasSF && hasFC:
		return transportSFFC{base, sf, fc}
	case hasSF:
		return transportSF{base, sf}
	case hasFC:
		return transportFC{base, fc}
	}
	return base
}

// boundaryBackend wraps a storage backend. With tracing off it only marks
// site boundaries (AppendCheckpoint), which give the per-site latency
// samples; with tracing on it also times every append and turns each
// boundary into a site span.
type boundaryBackend struct {
	next openwpm.Backend
	ln   *lane
}

func (b *boundaryBackend) timed(name string, f func() error) error {
	i := b.ln.begin(name)
	err := f()
	b.ln.end(i)
	return err
}

func (b *boundaryBackend) AppendVisit(v openwpm.VisitRecord) error {
	err := b.timed(spanAppend, func() error { return b.next.AppendVisit(v) })
	if b.ln.tracing {
		b.ln.visitEnd = b.ln.now()
	}
	return err
}

func (b *boundaryBackend) AppendCrash(c openwpm.CrashRecord) error {
	return b.timed(spanAppend, func() error { return b.next.AppendCrash(c) })
}

func (b *boundaryBackend) AppendRequest(r openwpm.RequestRecord) error {
	return b.timed(spanAppend, func() error { return b.next.AppendRequest(r) })
}

func (b *boundaryBackend) AppendCookie(c openwpm.CookieEntry) error {
	return b.timed(spanAppend, func() error { return b.next.AppendCookie(c) })
}

func (b *boundaryBackend) AppendJSCall(c openwpm.JSCall) error {
	return b.timed(spanAppend, func() error { return b.next.AppendJSCall(c) })
}

func (b *boundaryBackend) AppendScriptFile(url, sha, content, ctype string) error {
	return b.timed(spanAppend, func() error { return b.next.AppendScriptFile(url, sha, content, ctype) })
}

func (b *boundaryBackend) AppendTamper(t openwpm.TamperRecord) error {
	return b.timed(spanAppend, func() error { return b.next.AppendTamper(t) })
}

func (b *boundaryBackend) AppendDrop(table, site string) error {
	return b.timed(spanAppend, func() error { return b.next.AppendDrop(table, site) })
}

// AppendCheckpoint closes the site that just finished. The scheduler
// prepares each checkpoint (recorder state, flight-recorder delta) between
// the site's last visit record and this call; that stretch becomes a
// sched.checkpoint_prep span inside the site.
func (b *boundaryBackend) AppendCheckpoint(o openwpm.SiteOutcome, recorder, trace []byte) error {
	l := b.ln
	if l.tracing {
		t := l.now()
		if l.visitEnd > l.siteStart {
			l.spans = append(l.spans, span{Name: spanPrep, Start: l.visitEnd, End: t, Parent: -1})
		}
		l.closeSite(o.Site, l.siteStart, t)
	}
	err := b.timed(spanCheckpoint, func() error { return b.next.AppendCheckpoint(o, recorder, trace) })
	l.pending = len(l.spans) // the checkpoint is the shard's, not the next site's
	l.mark(l.now())
	return err
}

// Flush is called once, when the shard's worker exits: it ends the lane.
func (b *boundaryBackend) Flush() error {
	err := b.timed(spanFlush, b.next.Flush)
	b.ln.done = b.ln.now()
	return err
}

// Close runs on the caller's goroutine after the crawl; it is not timed.
func (b *boundaryBackend) Close() error { return b.next.Close() }

// spoolBackend adds the bundle.Spool capability when the wrapped backend
// (the WAL) has it, so recording keeps streaming through the backend.
type spoolBackend struct {
	*boundaryBackend
	sp bundle.Spool
}

func (b spoolBackend) SpoolBody(sha, content string) error {
	return b.timed(spanAppend, func() error { return b.sp.SpoolBody(sha, content) })
}

func (b spoolBackend) SpoolVisit(v bundle.Visit) error {
	return b.timed(spanAppend, func() error { return b.sp.SpoolVisit(v) })
}

// wrapBackend wraps a shard's backend and starts the shard's lane. A nil
// backend (a WAL that failed to open) stays nil and marks the lane failed.
func wrapBackend(next openwpm.Backend, ln *lane) openwpm.Backend {
	ln.restart()
	if next == nil {
		ln.failed = true
		return nil
	}
	base := &boundaryBackend{next: next, ln: ln}
	if sp, ok := next.(bundle.Spool); ok {
		return spoolBackend{base, sp}
	}
	return base
}

// tracedInstrument times an instrument's synchronous window hook. Vanilla
// subframe instrumentation is deferred to the page's event loop by the
// instrument itself, so it lands in browser.other.
type tracedInstrument struct {
	inner openwpm.Instrumentor
	ln    *lane
	name  string
}

func (t *tracedInstrument) Name() string           { return t.inner.Name() }
func (t *tracedInstrument) TopInstallError() error { return t.inner.TopInstallError() }

func (t *tracedInstrument) OnWindow(b *browser.Browser, st *openwpm.Storage, d *jsdom.DOM, top bool) {
	i := t.ln.begin(t.name)
	t.inner.OnWindow(b, st, d, top)
	t.ln.end(i)
}

// traceConfig wraps a crawl configuration's transport, JS instrument and
// tamper analyser so their calls record spans on ln. With tracing off the
// configuration is returned unchanged.
//
// The vanilla instrument has no injection point of its own, so it moves into
// the Stealth slot, built exactly as openwpm.NewTaskManager would build it.
// Storage is unaffected, but a recorded bundle's config then says
// stealth=true: callers comparing bundle digests reset that flag and reseal.
func traceConfig(cfg openwpm.CrawlConfig, ln *lane) openwpm.CrawlConfig {
	if !ln.tracing {
		return cfg
	}
	cfg.Transport = wrapTransport(cfg.Transport, ln)
	switch {
	case cfg.Stealth != nil:
		cfg.Stealth = &tracedInstrument{inner: cfg.Stealth, ln: ln, name: spanStealth}
	case cfg.JSInstrument:
		client := cfg.ClientID
		if client == "" {
			client = "openwpm-client"
		}
		cfg.Stealth = &tracedInstrument{ln: ln, name: spanInstrument, inner: &openwpm.JSInstrument{
			Legacy:     cfg.LegacyInstrumentGlobals,
			HoneyProps: openwpm.HoneyNames(client, cfg.HoneyProps),
		}}
	}
	if tamper := cfg.Tamper; tamper != nil {
		cfg.Tamper = func(content string) (openwpm.TamperRecord, bool) {
			i := ln.begin(spanTamper)
			rec, ok := tamper(content)
			ln.end(i)
			return rec, ok
		}
	}
	return cfg
}

// unstealth undoes traceConfig's mark on a recorded bundle (the vanilla
// instrument rode in the Stealth slot) and reseals it, so its digest can be
// compared with an untraced recording.
func unstealth(b *bundle.Bundle) error {
	b.Config.Stealth = false
	return b.Seal()
}
