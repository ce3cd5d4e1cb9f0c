package jsdom

import (
	"strings"
	"testing"

	"gullible/internal/minjs"
)

func buildTest(t *testing.T, cfg Config) *DOM {
	t.Helper()
	return Build(cfg, &NopHost{}, "https://example.com/")
}

func evalIn(t *testing.T, d *DOM, src string) minjs.Value {
	t.Helper()
	v, err := d.It.RunScript(src, "test.js")
	if err != nil {
		t.Fatalf("RunScript(%q): %v", src, err)
	}
	return v
}

func TestNavigatorBasics(t *testing.T) {
	d := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	if v := evalIn(t, d, "navigator.webdriver"); !v.Bool {
		t.Error("automation client must expose navigator.webdriver === true")
	}
	if v := evalIn(t, d, "navigator.userAgent"); !strings.Contains(v.Str, "Firefox/90.0") {
		t.Errorf("userAgent = %q", v.Str)
	}
	if v := evalIn(t, d, "navigator.platform"); v.Str != "Linux x86_64" {
		t.Errorf("platform = %q", v.Str)
	}
	if v := evalIn(t, d, `navigator.languages[0]`); v.Str != "en-US" {
		t.Errorf("languages[0] = %q", v.Str)
	}

	base := buildTest(t, BaselineConfig(Ubuntu, 90))
	if v := evalIn(t, base, "navigator.webdriver"); v.Bool {
		t.Error("baseline browser must not be webdriver-flagged")
	}
}

func TestScreenGeometryPerMode(t *testing.T) {
	cases := []struct {
		os        OS
		mode      Mode
		w, h      int
		x, y      int
		availTop  int
		availLeft int
	}{
		{MacOS, Regular, 2560, 1440, 23, 4, 23, 0},
		{MacOS, Headless, 1366, 768, 4, 4, 0, 0},
		{Ubuntu, Regular, 2560, 1440, 80, 35, 27, 72},
		{Ubuntu, Headless, 1366, 768, 0, 0, 0, 0},
		{Ubuntu, Xvfb, 1366, 768, 0, 0, 0, 0},
		{Ubuntu, Docker, 2560, 1440, 0, 0, 27, 72},
	}
	for _, c := range cases {
		d := buildTest(t, StandardConfig(c.os, c.mode, 90, 0))
		name := c.os.String() + "/" + c.mode.String()
		if v := evalIn(t, d, "screen.width"); int(v.Num) != c.w {
			t.Errorf("%s screen.width = %v, want %d", name, v.Num, c.w)
		}
		if v := evalIn(t, d, "screen.height"); int(v.Num) != c.h {
			t.Errorf("%s screen.height = %v, want %d", name, v.Num, c.h)
		}
		if v := evalIn(t, d, "window.screenX"); int(v.Num) != c.x {
			t.Errorf("%s screenX = %v, want %d", name, v.Num, c.x)
		}
		if v := evalIn(t, d, "window.screenY"); int(v.Num) != c.y {
			t.Errorf("%s screenY = %v, want %d", name, v.Num, c.y)
		}
		if v := evalIn(t, d, "screen.availTop"); int(v.Num) != c.availTop {
			t.Errorf("%s availTop = %v, want %d", name, v.Num, c.availTop)
		}
		if v := evalIn(t, d, "screen.availLeft"); int(v.Num) != c.availLeft {
			t.Errorf("%s availLeft = %v, want %d", name, v.Num, c.availLeft)
		}
		// window dimensions are the fixed automation geometry everywhere
		if v := evalIn(t, d, "window.innerWidth"); int(v.Num) != 1366 {
			t.Errorf("%s innerWidth = %v", name, v.Num)
		}
		if v := evalIn(t, d, "window.innerHeight"); int(v.Num) != 683 {
			t.Errorf("%s innerHeight = %v", name, v.Num)
		}
	}
}

func TestUbuntuRegularWindowOffset(t *testing.T) {
	d0 := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	d1 := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 1))
	d2 := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 2))
	x0 := evalIn(t, d0, "window.screenX").Num
	x1 := evalIn(t, d1, "window.screenX").Num
	x2 := evalIn(t, d2, "window.screenX").Num
	if x1-x0 != 8 || x2-x1 != 8 {
		t.Errorf("window offset not constant: %v %v %v", x0, x1, x2)
	}
}

func TestWebGLPerMode(t *testing.T) {
	// headless: no WebGL at all
	hm := buildTest(t, StandardConfig(Ubuntu, Headless, 90, 0))
	if v := evalIn(t, hm, `document.createElement("canvas").getContext("webgl")`); v.Kind != minjs.KindNull {
		t.Errorf("headless getContext = %v, want null", v)
	}
	// regular: native GPU vendor
	rm := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	if v := evalIn(t, rm, `document.createElement("canvas").getContext("webgl").VENDOR`); v.Str != "AMD" {
		t.Errorf("regular VENDOR = %q", v.Str)
	}
	// docker: virtualisation fingerprint
	dk := buildTest(t, StandardConfig(Ubuntu, Docker, 90, 0))
	if v := evalIn(t, dk, `document.createElement("canvas").getContext("webgl").VENDOR`); !strings.Contains(v.Str, "VMware") {
		t.Errorf("docker VENDOR = %q", v.Str)
	}
	// xvfb: software rasteriser
	xv := buildTest(t, StandardConfig(Ubuntu, Xvfb, 90, 0))
	if v := evalIn(t, xv, `document.createElement("canvas").getContext("webgl").RENDERER`); !strings.Contains(v.Str, "llvmpipe") {
		t.Errorf("xvfb RENDERER = %q", v.Str)
	}
	// getParameter routes to named params
	if v := evalIn(t, rm, `document.createElement("canvas").getContext("webgl").getParameter("RENDERER")`); !strings.Contains(v.Str, "TAHITI") {
		t.Errorf("getParameter(RENDERER) = %q", v.Str)
	}
}

func TestWebGLParamCounts(t *testing.T) {
	for _, os := range []OS{MacOS, Ubuntu} {
		cfg := StandardConfig(os, Regular, 90, 0)
		d := buildTest(t, cfg)
		ctx := d.WebGL()
		got := len(ctx.OwnKeys(false))
		if got != cfg.WebGL.ParamCount {
			t.Errorf("%v: webgl context has %d own props, want %d", os, got, cfg.WebGL.ParamCount)
		}
	}
	// xvfb misses 13 params relative to regular
	reg := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0)).WebGL()
	xv := buildTest(t, StandardConfig(Ubuntu, Xvfb, 90, 0)).WebGL()
	if d := len(reg.OwnKeys(false)) - len(xv.OwnKeys(false)); d != 13 {
		t.Errorf("xvfb missing %d params, want 13", d)
	}
}

func TestHeadlessLanguagesExtras(t *testing.T) {
	rm := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	hm := buildTest(t, StandardConfig(Ubuntu, Headless, 90, 0))
	rmKeys := evalIn(t, rm, "Object.keys(navigator.languages).length").Num
	hmKeys := evalIn(t, hm, "Object.keys(navigator.languages).length").Num
	if hmKeys-rmKeys != 43 {
		t.Errorf("headless languages extras = %v, want 43", hmKeys-rmKeys)
	}
}

func TestDockerFontsAndTimezone(t *testing.T) {
	dk := buildTest(t, StandardConfig(Ubuntu, Docker, 90, 0))
	if v := evalIn(t, dk, "document.fonts.size"); int(v.Num) != 1 {
		t.Errorf("docker fonts.size = %v, want 1", v.Num)
	}
	if v := evalIn(t, dk, "document.fonts.values()[0]"); v.Str != "Bitstream Vera Sans Mono" {
		t.Errorf("docker font = %q", v.Str)
	}
	if v := evalIn(t, dk, "new Date().getTimezoneOffset()"); v.Num != 0 {
		t.Errorf("docker tz offset = %v, want 0", v.Num)
	}
	if v := evalIn(t, dk, "Intl.DateTimeFormat().resolvedOptions().timeZone"); v.Str != "" {
		t.Errorf("docker timeZone = %q, want empty", v.Str)
	}
	rm := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	if v := evalIn(t, rm, "document.fonts.size"); int(v.Num) < 10 {
		t.Errorf("regular fonts.size = %v, want >= 10", v.Num)
	}
	if v := evalIn(t, rm, "Intl.DateTimeFormat().resolvedOptions().timeZone"); v.Str == "" {
		t.Error("regular browser must expose a time zone")
	}
}

func TestNativeGetterBrandCheck(t *testing.T) {
	d := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	// Calling a WebIDL getter with a foreign `this` must throw TypeError —
	// the tell Goßen et al. use to spot naive instrumentation.
	v := evalIn(t, d, `
		var d = Object.getOwnPropertyDescriptor(Navigator.prototype, "userAgent");
		var r = "no-throw";
		try { d.get.call({}) } catch (e) { r = e.name }
		r`)
	if v.Str != "TypeError" {
		t.Errorf("foreign-this getter result = %q, want TypeError", v.Str)
	}
	// normal access works
	if v := evalIn(t, d, "navigator.userAgent.length > 0"); !v.Bool {
		t.Error("normal userAgent access broken")
	}
}

func TestGetterNativeToString(t *testing.T) {
	d := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	v := evalIn(t, d, `Object.getOwnPropertyDescriptor(Navigator.prototype, "webdriver").get.toString()`)
	if !minjs.IsNativeSource(v.Str) {
		t.Errorf("getter toString = %q, want native", v.Str)
	}
}

func TestInstrumentableAPICounts(t *testing.T) {
	ub := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	if got := len(ub.InstrumentableAPIs()); got != 252 {
		t.Errorf("Ubuntu instrumentable APIs = %d, want 252", got)
	}
	mac := buildTest(t, StandardConfig(MacOS, Regular, 90, 0))
	if got := len(mac.InstrumentableAPIs()); got != 253 {
		t.Errorf("macOS instrumentable APIs = %d, want 253", got)
	}
}

func TestDispatchEventReachesHostListeners(t *testing.T) {
	d := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	var got []string
	d.ListenHostEvent("wpm-123", func(ev minjs.Value) {
		detail, _ := d.It.GetMember(ev, "detail")
		got = append(got, detail.ToString())
	})
	evalIn(t, d, `document.dispatchEvent(new CustomEvent("wpm-123", {detail: "hello"}))`)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("host listener got %v", got)
	}
	// shadowing dispatchEvent intercepts delivery (the Sec. 5.1 attack path)
	evalIn(t, d, `document.dispatchEvent = function(ev) { /* swallowed */ };
		document.dispatchEvent(new CustomEvent("wpm-123", {detail: "blocked"}))`)
	if len(got) != 1 {
		t.Fatalf("shadowed dispatchEvent still delivered: %v", got)
	}
}

func TestCanvasFingerprintDiffersAcrossConfigs(t *testing.T) {
	a := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	b := buildTest(t, StandardConfig(Ubuntu, Docker, 90, 0))
	fa := evalIn(t, a, `document.createElement("canvas").toDataURL()`)
	fb := evalIn(t, b, `document.createElement("canvas").toDataURL()`)
	if fa.Str == fb.Str {
		t.Error("canvas fingerprint identical across modes")
	}
	a2 := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	fa2 := evalIn(t, a2, `document.createElement("canvas").toDataURL()`)
	if fa.Str != fa2.Str {
		t.Error("canvas fingerprint not deterministic")
	}
}

func TestLocationFields(t *testing.T) {
	d := Build(StandardConfig(Ubuntu, Regular, 90, 0), &NopHost{}, "https://site-42.example.net/products/list")
	if v := evalIn(t, d, "location.hostname"); v.Str != "site-42.example.net" {
		t.Errorf("hostname = %q", v.Str)
	}
	if v := evalIn(t, d, "location.pathname"); v.Str != "/products/list" {
		t.Errorf("pathname = %q", v.Str)
	}
	if v := evalIn(t, d, "location.origin"); v.Str != "https://site-42.example.net" {
		t.Errorf("origin = %q", v.Str)
	}
}

func TestPromiseChaining(t *testing.T) {
	// Manually pump timers via a recording host.
	h := &timerHost{}
	d := Build(StandardConfig(Ubuntu, Regular, 90, 0), h, "https://example.com/")
	h.dom = d
	evalIn(t, d, `
		var out = [];
		new Promise(function(resolve, reject) { resolve(1) })
			.then(function(v) { out.push(v); return v + 1 })
			.then(function(v) { out.push(v); throw new Error("stop") })
			.catch(function(e) { out.push(e.message) });
	`)
	h.pump(t)
	v := evalIn(t, d, `out.join(",")`)
	if v.Str != "1,2,stop" {
		t.Errorf("promise chain produced %q", v.Str)
	}
}

// timerHost runs scheduled callbacks when pumped.
type timerHost struct {
	NopHost
	dom   *DOM
	queue []func()
}

func (h *timerHost) SetTimeout(fn *minjs.Object, args []minjs.Value, delayMS float64) int {
	h.queue = append(h.queue, func() { h.dom.It.CallFunction(fn, minjs.Undefined(), args) })
	return len(h.queue)
}

func (h *timerHost) pump(t *testing.T) {
	for i := 0; i < 1000 && len(h.queue) > 0; i++ {
		fn := h.queue[0]
		h.queue = h.queue[1:]
		fn()
	}
}

func TestFireListeners(t *testing.T) {
	d := buildTest(t, StandardConfig(Ubuntu, Regular, 90, 0))
	evalIn(t, d, `
		var fired = 0;
		document.addEventListener("mouseover", function(e) { fired++ });
	`)
	if v := evalIn(t, d, "fired"); v.Num != 0 {
		t.Fatal("listener fired prematurely")
	}
	if err := d.FireListeners("mouseover"); err != nil {
		t.Fatal(err)
	}
	if v := evalIn(t, d, "fired"); v.Num != 1 {
		t.Errorf("fired = %v, want 1", v.Num)
	}
}

// A native runs on the calling realm's interpreter (minjs.Interp.CallFunction
// hands it the caller's), yet it must act on the realm it belongs to: a
// parent reading a child window's navigator and screen gets the child's
// values, and its own navigator still reads its own.
func TestNativesActOnTheirOwnRealm(t *testing.T) {
	childCfg := StandardConfig(MacOS, Regular, 91, 0)
	childCfg.ScreenW = 1920 // both standard regular-mode screens are 2560 wide
	child := Build(childCfg, &NopHost{}, "https://child.example/")
	parent := Build(StandardConfig(Ubuntu, Regular, 90, 0), &frameHost{child: child}, "https://parent.example/")
	evalIn(t, parent, `var h = open("https://child.example/");`)
	for _, expr := range []string{"navigator.userAgent", "navigator.platform", "screen.width"} {
		want := evalIn(t, child, expr).ToString()
		own := evalIn(t, parent, expr).ToString()
		if want == own {
			t.Fatalf("%s is %q in both realms; the configurations must differ", expr, want)
		}
		if got := evalIn(t, parent, "h."+expr).ToString(); got != want {
			t.Errorf("parent read h.%s = %q, want the child's %q", expr, got, want)
		}
	}
	if got, want := evalIn(t, parent, "navigator.userAgent").ToString(), parent.Cfg.UserAgent; got != want {
		t.Errorf("parent's own navigator.userAgent = %q after reading the child's, want %q", got, want)
	}
}
