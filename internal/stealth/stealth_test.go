package stealth

import (
	"strings"
	"testing"

	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/openwpm"
)

type web struct {
	pages map[string]*httpsim.Response
	log   httpsim.Log
}

func (w *web) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
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

// stealthTM builds a TaskManager running WPM_hide.
func stealthTM(w *web) *openwpm.TaskManager {
	return openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: w, DwellSeconds: 1,
		HTTPInstrument: true, CookieInstrument: true,
		Stealth: New(),
	})
}

// vanillaTM builds a TaskManager running vanilla OpenWPM.
func vanillaTM(w *web) *openwpm.TaskManager {
	return openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: w, DwellSeconds: 1,
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
	})
}

func onePage(body string) *web {
	return &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage(body, nil),
	}}
}

func visitAndEval(t *testing.T, tm *openwpm.TaskManager, url, expr string) string {
	t.Helper()
	bm := &openwpm.BrowserManager{}
	b := tm.NewBrowser()
	if _, err := b.Visit(url); err != nil {
		t.Fatal(err)
	}
	_ = bm
	v, err := b.Top.It.RunScript(expr, "check.js")
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v.ToString()
}

func TestWebdriverHidden(t *testing.T) {
	tm := stealthTM(onePage("<html></html>"))
	if got := visitAndEval(t, tm, "https://a.com/", "navigator.webdriver"); got != "false" {
		t.Errorf("navigator.webdriver = %s, want false", got)
	}
	// the replacement getter still brand-checks like the original
	got := visitAndEval(t, tm, "https://a.com/", `
		var r = "no-throw";
		try {
			Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "webdriver").get.call({});
		} catch (e) { r = e.name }
		r`)
	if got != "TypeError" {
		t.Errorf("foreign-this webdriver getter: %s, want TypeError", got)
	}
}

func TestToStringPreserved(t *testing.T) {
	tm := stealthTM(onePage("<html></html>"))
	// wrapped method
	got := visitAndEval(t, tm, "https://a.com/",
		`document.createElement("canvas").getContext.toString()`)
	if !strings.Contains(got, "[native code]") || !strings.Contains(got, "function getContext()") {
		t.Errorf("method toString leaks: %q", got)
	}
	// wrapped getter
	got = visitAndEval(t, tm, "https://a.com/",
		`Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "userAgent").get.toString()`)
	if !strings.Contains(got, "[native code]") {
		t.Errorf("getter toString leaks: %q", got)
	}
	if strings.Contains(got, "getOriginatingScriptContext") || strings.Contains(got, "logCall") {
		t.Errorf("getter toString contains wrapper source: %q", got)
	}
}

func TestNoDOMResidue(t *testing.T) {
	tm := stealthTM(onePage("<html></html>"))
	for _, global := range []string{"getInstrumentJS", "jsInstruments", "instrumentFingerprintingApis", "__wpmCfg"} {
		if got := visitAndEval(t, tm, "https://a.com/", "typeof window."+global); got != "undefined" {
			t.Errorf("window.%s = %s, want undefined", global, got)
		}
	}
}

func TestNoPrototypePollution(t *testing.T) {
	tm := stealthTM(onePage("<html></html>"))
	got := visitAndEval(t, tm, "https://a.com/", `
		Object.getPrototypeOf(document).hasOwnProperty("cookie") + "," +
		Document.prototype.hasOwnProperty("cookie")`)
	if got != "false,true" {
		t.Errorf("pollution marker = %s, want false,true (cookie stays on Document.prototype)", got)
	}
}

func TestCleanStackTraces(t *testing.T) {
	tm := stealthTM(onePage("<html></html>"))
	got := visitAndEval(t, tm, "https://a.com/", `
		var leak = "";
		try { new AudioContext().decodeAudioData(); } catch (e) { leak = e.stack }
		leak`)
	if got == "" {
		t.Fatal("wrapped decodeAudioData no longer throws")
	}
	for _, marker := range []string{"openwpm", "instrument", "stealth", "wrapper"} {
		if strings.Contains(strings.ToLower(got), marker) {
			t.Errorf("stack trace leaks %q:\n%s", marker, got)
		}
	}
}

// TestBrandCheckErrorsPropagate: an error thrown through a wrapped getter,
// method or setter, or through the masked webdriver getter, reaches the
// page with the name, message and e.stack it has in a realm with no JS
// instrument, masked the same way or not masked at all. A wrapper that
// pushed a frame of its own would show the native frame twice (Sec. 6.1.3).
func TestBrandCheckErrorsPropagate(t *testing.T) {
	probes := []struct{ name, expr, frame string }{
		{"getter", `Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "userAgent").get.call({})`, "get userAgent@native"},
		{"webdriver", `Object.getOwnPropertyDescriptor(Object.getPrototypeOf(navigator), "webdriver").get.call({})`, "get webdriver@native"},
		{"method", `new AudioContext().decodeAudioData()`, "decodeAudioData@native"},
		{"setter", `document.cookie = "a=b"`, "set cookie@native"},
	}
	b := stealthTM(onePage("<html></html>")).NewBrowser()
	realm := func(instrument func(*jsdom.DOM)) *jsdom.DOM {
		d := jsdom.Build(jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0), &jsdom.NopHost{}, "https://a.com/")
		// the only hooked setter, document.cookie, never throws: stand in
		// one that rejects its value, as a WebIDL setter may
		dp := d.Protos["Document"]
		cookie := dp.GetOwn("cookie")
		set := d.It.NewNative("set cookie", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			return minjs.Undefined(), it.ThrowError("TypeError", "'set cookie' rejected its value")
		})
		dp.DefineAccessor("cookie", cookie.Get, set, true)
		if instrument != nil {
			instrument(d)
		}
		return d
	}
	realms := []struct {
		name string
		d    *jsdom.DOM
	}{
		{"bare", realm(nil)},
		{"masked", realm(func(d *jsdom.DOM) { MaskAutomation(d, DefaultSettings()) })},
		{"stealth", realm(func(d *jsdom.DOM) { New().OnWindow(b, openwpm.NewStorage(), d, true) })},
	}
	for _, p := range probes {
		var want string
		for _, r := range realms {
			v, err := r.d.It.RunScript(`
				var r = "no-throw";
				try { `+p.expr+`; } catch (e) { r = e.name + ": " + e.message + "\n" + e.stack }
				r`, "check.js")
			if err != nil {
				t.Fatalf("%s in %s realm: %v", p.name, r.name, err)
			}
			got := v.ToString()
			if !strings.HasPrefix(got, "TypeError: ") || strings.Count(got, p.frame) != 1 {
				t.Errorf("%s in %s realm: want a TypeError whose stack holds %s once, got\n%s", p.name, r.name, p.frame, got)
			}
			if r.name == "bare" {
				want = got
			} else if got != want {
				t.Errorf("%s in %s realm differs from the bare realm:\n%s\nwant\n%s", p.name, r.name, got, want)
			}
		}
	}
}

func TestRecordingStillWorks(t *testing.T) {
	w := onePage(`<script src="https://a.com/p.js"></script>`)
	w.pages["https://a.com/p.js"] = &httpsim.Response{
		Status: 200, Headers: map[string]string{"Content-Type": "text/javascript"},
		Body: "var ua = navigator.userAgent; screen.availLeft;",
	}
	tm := stealthTM(w)
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	calls := tm.Storage.JSCallsBySymbol()
	if calls["Navigator.userAgent"] == 0 || calls["Screen.availLeft"] == 0 {
		t.Errorf("stealth did not record calls: %v", calls)
	}
	var attributed bool
	for _, c := range tm.Storage.JSCalls {
		if c.Symbol == "Navigator.userAgent" && strings.Contains(c.ScriptURL, "p.js") {
			attributed = true
		}
	}
	if !attributed {
		t.Error("script attribution missing")
	}
}

func TestDispatcherAttackIneffective(t *testing.T) {
	// The Listing 2 attack: with stealth, messages never travel through
	// document.dispatchEvent, so interception learns nothing and blocks
	// nothing.
	attack := `
		var dispatch_fn = document.dispatchEvent.bind(document);
		var grabbedID = "";
		document.dispatchEvent = function (event) {
			if (grabbedID === "") { grabbedID = event.type; }
			return true;
		};
		navigator.userAgent;     // would leak the id under vanilla
		navigator.oscpu;         // must still be recorded
		window.__grabbed = grabbedID;
	`
	tm := stealthTM(onePage("<script>" + attack + "</script>"))
	bm := tm.NewBrowser()
	if _, err := bm.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	v, _ := bm.Top.It.RunScript("window.__grabbed", "c.js")
	if v.ToString() != "" {
		t.Errorf("attacker learned an event id: %q", v.ToString())
	}
	// recording unaffected — attach storage-backed count via TaskManager run
	tm2 := stealthTM(onePage("<script>" + attack + "</script>"))
	if _, err := tm2.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	calls := tm2.Storage.JSCallsBySymbol()
	if calls["Navigator.oscpu"] == 0 {
		t.Errorf("recording was blocked: %v", calls)
	}
}

func TestFakeInjectionIneffective(t *testing.T) {
	attack := `
		document.dispatchEvent(new CustomEvent("openwpm-00000000", { detail: {
			symbol: "Navigator.FAKE", operation: "call", args: "forged"
		}}));
	`
	tm := stealthTM(onePage("<script>" + attack + "</script>"))
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if tm.Storage.JSCallsBySymbol()["Navigator.FAKE"] != 0 {
		t.Error("forged record accepted by stealth instrument")
	}
}

func TestIframeImmediateAccessRecorded(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://a.com/": htmlPage(`<div id="unobserved"></div><script>
			setTimeout(function () {
				var element = document.querySelector("#unobserved");
				var iframe = document.createElement("iframe");
				iframe.src = "https://a.com/frame";
				element.appendChild(iframe);
				iframe.contentWindow.navigator.userAgent; // immediate
			}, 500);
		</script>`, nil),
		"https://a.com/frame": htmlPage("<html></html>", nil),
	}}
	tm := stealthTM(w)
	tm.Cfg.DwellSeconds = 3
	if _, err := tm.VisitSite("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	var caught bool
	for _, c := range tm.Storage.JSCalls {
		if c.FrameURL == "https://a.com/frame" && c.Symbol == "Navigator.userAgent" {
			caught = true
		}
	}
	if !caught {
		t.Error("frame protection missed immediate access (Sec. 6.2.2)")
	}
}

func TestCSPDoesNotBlockStealth(t *testing.T) {
	w := &web{pages: map[string]*httpsim.Response{
		"https://csp.com/": htmlPage(
			`<script src="/p.js"></script>`,
			map[string]string{"Content-Security-Policy": "script-src 'self'; report-uri /csp"}),
		"https://csp.com/p.js": {Status: 200, Headers: map[string]string{"Content-Type": "text/javascript"},
			Body: "navigator.userAgent;"},
	}}
	tm := stealthTM(w)
	if _, err := tm.VisitSite("https://csp.com/"); err != nil {
		t.Fatal(err)
	}
	if tm.Storage.JSCallsBySymbol()["Navigator.userAgent"] == 0 {
		t.Error("stealth instrumentation blocked by CSP")
	}
	if n := w.log.CountByType()[httpsim.TypeCSPReport]; n != 0 {
		t.Errorf("stealth caused %d csp_report requests", n)
	}
	if len(tm.Storage.Visits) == 0 || !tm.Storage.Visits[0].InstrumentInstalled {
		t.Error("visit record claims install failure")
	}
}

func TestSettingsGeometry(t *testing.T) {
	tm := stealthTM(onePage("<html></html>"))
	got := visitAndEval(t, tm, "https://a.com/",
		`window.innerWidth + "x" + window.innerHeight + "@" + window.screenX + "," + window.screenY`)
	if got != "1295x722@112,76" {
		t.Errorf("geometry = %s", got)
	}
	// custom settings
	inst := New()
	inst.Settings = Settings{WindowW: 1440, WindowH: 900, WindowX: 10, WindowY: 20}
	tm2 := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular,
		Transport: onePage("<html></html>"), DwellSeconds: 1, Stealth: inst,
	})
	got = visitAndEval(t, tm2, "https://a.com/", `window.innerWidth + "," + window.screenX`)
	if got != "1440,10" {
		t.Errorf("custom geometry = %s", got)
	}
}

func TestVanillaVsStealthSideBySide(t *testing.T) {
	// the canonical Listing 1 check distinguishes the two variants
	probe := `document.createElement("canvas").getContext.toString()`
	v := visitAndEval(t, vanillaTM(onePage("<html></html>")), "https://a.com/", probe)
	s := visitAndEval(t, stealthTM(onePage("<html></html>")), "https://a.com/", probe)
	if !strings.Contains(v, "logCall") {
		t.Error("vanilla wrapper should leak")
	}
	if strings.Contains(s, "logCall") || !strings.Contains(s, "[native code]") {
		t.Error("stealth wrapper leaked")
	}
}
