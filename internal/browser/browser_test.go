package browser

import (
	"fmt"
	"strings"
	"testing"

	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
)

// fakeWeb serves canned pages keyed by URL.
type fakeWeb struct {
	pages map[string]*httpsim.Response
	log   httpsim.Log
}

func (w *fakeWeb) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	resp, ok := w.pages[req.URL]
	w.log.Add(req, resp)
	if !ok {
		return &httpsim.Response{Status: 404, Headers: map[string]string{"Content-Type": "text/plain"}}, nil
	}
	return resp, nil
}

func page(body string, headers map[string]string) *httpsim.Response {
	h := map[string]string{"Content-Type": "text/html"}
	for k, v := range headers {
		h[k] = v
	}
	return &httpsim.Response{Status: 200, Headers: h, Body: body}
}

func newTestBrowser(w *fakeWeb) *Browser {
	return New(Options{
		Config:       jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0),
		Transport:    w,
		ClientID:     "test-client",
		DwellSeconds: 1,
	})
}

func TestVisitFetchesResources(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`
			<html><head>
			<link rel="stylesheet" href="/style.css">
			<script src="https://cdn.a.com/app.js"></script>
			</head><body>
			<img src="/logo.png">
			<a href="/about">About</a>
			<a href="https://other.com/x">Other</a>
			<script>var inlineRan = 42;</script>
			</body></html>`, nil),
		"https://a.com/style.css":  {Status: 200, Body: "body{}", Headers: map[string]string{"Content-Type": "text/css"}},
		"https://cdn.a.com/app.js": {Status: 200, Body: "var external = 7;", Headers: map[string]string{"Content-Type": "text/javascript"}},
		"https://a.com/logo.png":   {Status: 200, Body: "PNG", Headers: map[string]string{"Content-Type": "image/png"}},
	}}
	b := newTestBrowser(w)
	res, err := b.Visit("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	counts := w.log.CountByType()
	for _, c := range []struct {
		rt   httpsim.ResourceType
		want int
	}{
		{httpsim.TypeMainFrame, 1},
		{httpsim.TypeScript, 1},
		{httpsim.TypeStylesheet, 1},
		{httpsim.TypeImage, 1},
	} {
		if counts[c.rt] != c.want {
			t.Errorf("%s requests = %d, want %d", c.rt, counts[c.rt], c.want)
		}
	}
	if len(res.Links) != 2 {
		t.Errorf("links = %v", res.Links)
	}
	// both scripts ran in the page realm
	v, err := b.Top.It.RunScript("inlineRan + external", "check.js")
	if err != nil || v.Num != 49 {
		t.Errorf("scripts did not run: %v %v", v, err)
	}
	// scripts recorded
	if len(b.Scripts) != 2 {
		t.Errorf("recorded %d scripts, want 2", len(b.Scripts))
	}
}

func TestRedirectsFollowedAndOffDomainDetected(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/":        {Status: 302, Headers: map[string]string{"Location": "https://b.net/landing"}},
		"https://b.net/landing": page("<html></html>", nil),
	}}
	b := newTestBrowser(w)
	res, err := b.Visit("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "https://b.net/landing" {
		t.Errorf("final URL = %q", res.FinalURL)
	}
	if !res.OffDomain {
		t.Error("off-domain redirect not detected")
	}
}

func TestCookiesStoredAndSentBack(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": {
			Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
			Body:       "<html></html>",
			SetCookies: []httpsim.Cookie{{Name: "sid", Value: "xyz", Expires: 10000000}},
		},
	}}
	b := newTestBrowser(w)
	var seen []CookieRecord
	b.OnCookieStored = func(rec CookieRecord) { seen = append(seen, rec) }
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Cookie.Name != "sid" {
		t.Fatalf("cookie hook got %v", seen)
	}
	if !seen[0].FirstParty() {
		t.Error("cookie should be first-party")
	}
	// second visit sends the cookie
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	last := w.log.Entries[len(w.log.Entries)-1]
	if !strings.Contains(last.Request.Headers["Cookie"], "sid=xyz") {
		t.Errorf("cookie not sent back: %q", last.Request.Headers["Cookie"])
	}
}

func TestDocumentCookieRoundTrip(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`<script>document.cookie = "jsck=1; Max-Age=86400"; var got = document.cookie;</script>`, nil),
	}}
	b := newTestBrowser(w)
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Top.It.RunScript("got", "check.js")
	if !strings.Contains(v.Str, "jsck=1") {
		t.Errorf("document.cookie read back %q", v.Str)
	}
	if b.Jar.Len() != 1 {
		t.Errorf("jar has %d cookies", b.Jar.Len())
	}
}

func TestCSPBlocksInlineAndInjection(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://csp.com/": page(
			`<script src="/ok.js"></script><script>var inlineRan = 1;</script>`,
			map[string]string{"Content-Security-Policy": "script-src 'self'; report-uri /csp-report"}),
		"https://csp.com/ok.js": {Status: 200, Body: "var okRan = 1;", Headers: map[string]string{"Content-Type": "text/javascript"}},
	}}
	b := newTestBrowser(w)
	res, err := b.Visit("https://csp.com/")
	if err != nil {
		t.Fatal(err)
	}
	if res.CSPReports != 1 {
		t.Errorf("CSP reports = %d, want 1 (inline blocked)", res.CSPReports)
	}
	if w.log.CountByType()[httpsim.TypeCSPReport] != 1 {
		t.Error("csp_report request not sent")
	}
	if v, _ := b.Top.It.RunScript("typeof inlineRan", "c.js"); v.Str != "undefined" {
		t.Error("inline script ran despite CSP")
	}
	if v, _ := b.Top.It.RunScript("okRan", "c.js"); v.Num != 1 {
		t.Error("allowed self script did not run")
	}
	// vanilla-style DOM injection is blocked too, image or not
	imageTried := false
	err = b.InjectPageProgram(b.Top, minjs.MustParse("var injected = 1;", "inject.js"), func() bool {
		imageTried = true
		return true
	})
	if err != ErrCSPBlocked {
		t.Errorf("InjectPageProgram err = %v, want ErrCSPBlocked", err)
	}
	if imageTried {
		t.Error("a CSP-blocked injection instantiated its image")
	}
	if v, _ := b.Top.It.RunScript("typeof injected", "c.js"); v.Str != "undefined" {
		t.Error("blocked injection ran")
	}
	if b.CSPReports() != 2 {
		t.Errorf("CSP reports after blocked injection = %d, want 2", b.CSPReports())
	}
}

func TestSetTimeoutRunsDuringDwell(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`<script>
			var fired = [];
			setTimeout(function() { fired.push("late") }, 500);
			setTimeout(function() { fired.push("early") }, 100);
		</script>`, nil),
	}}
	b := newTestBrowser(w)
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Top.It.RunScript(`fired.join(",")`, "c.js")
	if v.Str != "early,late" {
		t.Errorf("timer order = %q", v.Str)
	}
}

func TestIframeLoadsDeferred(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/":          page(`<iframe src="https://third.com/frame"></iframe>`, nil),
		"https://third.com/frame": page(`<script>var inFrame = 99;</script>`, nil),
	}}
	b := newTestBrowser(w)
	var created []string
	b.OnWindowCreated = func(d *jsdom.DOM, top bool) {
		created = append(created, fmt.Sprintf("%s top=%v", d.URL, top))
	}
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 {
		t.Fatalf("windows created: %v", created)
	}
	if w.log.CountByType()[httpsim.TypeSubFrame] != 1 {
		t.Error("sub_frame request missing")
	}
	frames := b.AllFrames()
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	v, err := frames[1].It.RunScript("inFrame", "c.js")
	if err != nil || v.Num != 99 {
		t.Errorf("frame script did not run: %v %v", v, err)
	}
}

func TestDynamicIframeImmediateAccess(t *testing.T) {
	// A dynamically created iframe's window must exist synchronously at
	// appendChild time (the Listing 3 attack requires this), while its own
	// content loads on the next tick.
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`<script>
			var iframe = document.createElement("iframe");
			iframe.src = "https://a.com/sub";
			document.body.appendChild(iframe);
			var ua = iframe.contentWindow.navigator.userAgent;
			var subLoadedAtCreation = typeof iframe.contentWindow.subVar;
		</script>`, nil),
		"https://a.com/sub": page(`<script>var subVar = 1;</script>`, nil),
	}}
	b := newTestBrowser(w)
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Top.It.RunScript("ua.length > 0", "c.js"); !v.Bool {
		t.Error("contentWindow not accessible synchronously")
	}
	if v, _ := b.Top.It.RunScript("subLoadedAtCreation", "c.js"); v.Str != "undefined" {
		t.Error("frame content ran synchronously; should be deferred")
	}
	// after dwell, the frame's own script has run
	frames := b.AllFrames()
	if v, _ := frames[1].It.RunScript("subVar", "c.js"); v.Num != 1 {
		t.Error("frame content never ran")
	}
}

func TestImageSrcTriggersRequest(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`<script>
			var px = new Image();
			px.src = "https://tracker.com/pixel.gif";
		</script>`, nil),
	}}
	b := newTestBrowser(w)
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range w.log.Entries {
		if e.Request.URL == "https://tracker.com/pixel.gif" && e.Request.Type == httpsim.TypeImage {
			found = true
		}
	}
	if !found {
		t.Error("tracking pixel request missing")
	}
}

func TestFetchAndBeaconFromScript(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`<script>
			fetch("https://api.a.com/data").then(function(r) { return r.text() }).then(function(t) { window.fetched = t });
			navigator.sendBeacon("https://collect.a.com/b", "payload");
		</script>`, nil),
		"https://api.a.com/data": {Status: 200, Body: "hello", Headers: map[string]string{"Content-Type": "text/plain"}},
	}}
	b := newTestBrowser(w)
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	counts := w.log.CountByType()
	if counts[httpsim.TypeXHR] != 1 {
		t.Errorf("xhr requests = %d", counts[httpsim.TypeXHR])
	}
	if counts[httpsim.TypeBeacon] != 1 {
		t.Errorf("beacon requests = %d", counts[httpsim.TypeBeacon])
	}
	if v, _ := b.Top.It.RunScript("window.fetched", "c.js"); v.Str != "hello" {
		t.Errorf("fetch chain result = %v", v)
	}
}

func TestScriptErrorsDoNotAbortVisit(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`
			<script>throw new Error("page bug");</script>
			<script>var after = 1;</script>`, nil),
	}}
	b := newTestBrowser(w)
	res, err := b.Visit("https://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScriptErrors) != 1 {
		t.Errorf("script errors = %v", res.ScriptErrors)
	}
	if v, _ := b.Top.It.RunScript("after", "c.js"); v.Num != 1 {
		t.Error("subsequent script did not run")
	}
}

func TestParseHTML(t *testing.T) {
	items := ParseHTML(`<!-- c --><html><script src="/a.js"></script>
		<script>inline();</script><img src=x.png><div id="box"></div>
		<a href="/p1">x</a></html>`)
	var tags []string
	for _, it := range items {
		tags = append(tags, it.Tag)
	}
	want := "script,script,img,div,a"
	if got := strings.Join(tags, ","); got != want {
		t.Fatalf("tags = %s, want %s", got, want)
	}
	if items[0].Attrs["src"] != "/a.js" {
		t.Errorf("script src = %q", items[0].Attrs["src"])
	}
	if !strings.Contains(items[1].Inline, "inline()") {
		t.Errorf("inline body = %q", items[1].Inline)
	}
	if items[3].Attrs["id"] != "box" {
		t.Errorf("div id = %q", items[3].Attrs["id"])
	}
}

func TestDocumentWriteExecutesScripts(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page(`<script>document.write("<script>var written = 5;<\/script>");</script>`, nil),
	}}
	b := newTestBrowser(w)
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Top.It.RunScript("written", "c.js"); v.Num != 5 {
		t.Errorf("document.write script result = %v", v)
	}
}

func TestWindowOpen(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/":    page(`<script>var popup = window.open("https://a.com/pop");</script>`, nil),
		"https://a.com/pop": page(`<script>var popVar = 3;</script>`, nil),
	}}
	b := newTestBrowser(w)
	var windows int
	b.OnWindowCreated = func(d *jsdom.DOM, top bool) { windows++ }
	if _, err := b.Visit("https://a.com/"); err != nil {
		t.Fatal(err)
	}
	if windows != 2 {
		t.Errorf("windows created = %d, want 2", windows)
	}
	if v, _ := b.Top.It.RunScript("popup !== null", "c.js"); !v.Bool {
		t.Error("window.open returned null")
	}
}

func TestClockPersistsAcrossVisits(t *testing.T) {
	w := &fakeWeb{pages: map[string]*httpsim.Response{
		"https://a.com/": page("<html></html>", nil),
	}}
	b := newTestBrowser(w)
	b.Visit("https://a.com/")
	t1 := b.Now()
	b.Visit("https://a.com/")
	if b.Now() <= t1 {
		t.Error("clock went backwards across visits")
	}
}

var _ = minjs.Undefined // keep import if unused in future edits
