package jsdom

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gullible/internal/httpsim"
	"gullible/internal/minjs"
)

// templateConfigs are the configurations the fingerprint tables build, at
// both Firefox versions they use, plus a stealth settings-file geometry.
func templateConfigs() []Config {
	var out []Config
	for _, ff := range []int{90, 78} {
		for _, s := range []struct {
			os   OS
			mode Mode
		}{{MacOS, Regular}, {MacOS, Headless}, {Ubuntu, Regular}, {Ubuntu, Headless}, {Ubuntu, Xvfb}, {Ubuntu, Docker}} {
			out = append(out, StandardConfig(s.os, s.mode, ff, 0))
		}
		out = append(out, BaselineConfig(MacOS, ff), BaselineConfig(Ubuntu, ff))
	}
	stealth := StandardConfig(Ubuntu, Regular, 90, 0)
	stealth.WindowW, stealth.WindowH, stealth.WindowX, stealth.WindowY = 1295, 722, 112, 76
	return append(out, stealth)
}

// hostHeld reads what only natives hand out, which no walk from the realm's
// roots reaches, plus the values a stamp writes in.
const hostHeld = `JSON.stringify([navigator.languages, navigator.languages.mozHeadlessLocaleHint00,
navigator.plugins.length, navigator.mimeTypes.length, document.fonts.values(),
location.href, location.origin, location.pathname, document.domain, document.documentURI,
screenX, screenY, mozInnerScreenX, mozInnerScreenY])`

// A stamp equals the realm construction builds for the same configuration,
// URL and window index: the same graph, the same class and counters on
// every object, the same step and alloc counts, and the same host-held
// objects and per-window values.
func TestStampEqualsConstruction(t *testing.T) {
	urls := []string{"https://a.test/x/y?q", "https://a.test", "about:blank", ""}
	for ci, base := range templateConfigs() {
		for idx := 0; idx <= 3; idx++ {
			cfg := base
			cfg.WindowIndex = idx
			for _, url := range urls {
				name := fmt.Sprintf("config %d (%v %v %d)/window %d/url %q", ci, cfg.OS, cfg.Mode, cfg.FirefoxVersion, idx, url)
				got, want := Build(cfg, &NopHost{}, url), build(cfg, &NopHost{}, url)
				if got.It.GraphDigest() != want.It.GraphDigest() {
					t.Errorf("%s: graph digests differ", name)
				}
				if !slices.Equal(got.It.Counters(), want.It.Counters()) {
					t.Errorf("%s: object counters differ", name)
				}
				if got.It.Steps() != want.It.Steps() || got.It.Allocs() != want.It.Allocs() {
					t.Errorf("%s: steps %d, allocs %d; construction leaves %d, %d", name,
						got.It.Steps(), got.It.Allocs(), want.It.Steps(), want.It.Allocs())
				}
				if g, w := evalIn(t, got, hostHeld).ToString(), evalIn(t, want, hostHeld).ToString(); g != w {
					t.Errorf("%s: host-held state\n%s\nwant\n%s", name, g, w)
				}
			}
		}
	}
}

// recordingHost records the host calls natives make.
type recordingHost struct {
	frameHost
	calls []string
}

func (h *recordingHost) SetTimeout(fn *minjs.Object, args []minjs.Value, delayMS float64) int {
	h.calls = append(h.calls, fmt.Sprintf("setTimeout %v", delayMS))
	return len(h.calls)
}

func (h *recordingHost) SetCookieString(s string) { h.calls = append(h.calls, "cookie "+s) }

func (h *recordingHost) Fetch(url string, rtype httpsim.ResourceType, method, body string) (int, string, string, error) {
	h.calls = append(h.calls, "fetch "+url)
	return 404, "text/plain", "", nil
}

// Two stamps of one template share nothing script can change, and their
// natives reach their own realm and host: writes through natives in one
// leave the other, and every later stamp, as built.
func TestStampsAreIsolated(t *testing.T) {
	cfg := StandardConfig(Ubuntu, Headless, 90, 0)
	child := Build(cfg, &NopHost{}, "https://child.example/")
	ha, hb := &recordingHost{frameHost: frameHost{child: child}}, &recordingHost{}
	a, b := Build(cfg, ha, "https://a.example/"), Build(cfg, hb, "https://b.example/")
	digest, counters, held := b.It.GraphDigest(), b.It.Counters(), evalIn(t, b, hostHeld).ToString()

	evalIn(t, a, `navigator.languages[0] = "xx"; navigator.languages.extra = 1; navigator.plugins.push(1);
setTimeout(function () {}, 5); document.cookie = "k=v"; localStorage.setItem("k", "v");
var el = document.createElement("div"); el.setAttribute("id", "x"); document.body.appendChild(el);
new Image().src = "/pixel.gif";
var f = document.createElement("iframe"); document.body.appendChild(f); f.contentWindow.shared = 1;`)
	if want := []string{"setTimeout 5", "cookie k=v", "fetch https://a.example/pixel.gif"}; !slices.Equal(ha.calls, want) {
		t.Errorf("a's host saw %q, want %q", ha.calls, want)
	}
	if len(hb.calls) != 0 {
		t.Errorf("b's host saw %q", hb.calls)
	}
	if v := evalIn(t, a, `navigator.languages[0] + localStorage.getItem("k") + (document.getElementById("x") === el)`); v.ToString() != "xxvtrue" {
		t.Errorf("a reads back %q", v.ToString())
	}
	if len(a.Frames) != 1 || a.Frames[0] != child || child.Untouched() {
		t.Error("a's contentWindow did not expose the child to a's script")
	}

	if b.It.GraphDigest() != digest || !slices.Equal(b.It.Counters(), counters) {
		t.Error("script in a changed b's graph")
	}
	if v := evalIn(t, b, `localStorage.getItem("k") + "," + document.getElementById("x") + "," + frames.length`); v.ToString() != "null,null,0" {
		t.Errorf("b sees a's state: %q", v.ToString())
	}
	if got := evalIn(t, b, hostHeld).ToString(); got != held {
		t.Errorf("b's host-held state changed:\n%s\nwant\n%s", got, held)
	}
	c := Build(cfg, &NopHost{}, "https://b.example/")
	if c.It.GraphDigest() != digest || !slices.Equal(c.It.Counters(), counters) || evalIn(t, c, hostHeld).ToString() != held {
		t.Error("script in a stamp changed the template")
	}
}

// The cache constructs each configuration once, however many goroutines
// ask for it at the same moment, and holds at most maxTemplates.
func TestTemplateCache(t *testing.T) {
	cfg := StandardConfig(MacOS, Headless, 61, 2) // a version no other test uses
	got := make([]*realmTemplate, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = templateFor(cfg)
		}()
	}
	wg.Wait()
	for _, tpl := range got {
		if tpl != got[0] || tpl.tpl == nil {
			t.Fatal("concurrent first uses of one configuration made more than one template")
		}
	}
	for ff := 0; ff < 2*maxTemplates; ff++ {
		templateFor(StandardConfig(Ubuntu, Regular, 200+ff, 0))
	}
	templates.Lock()
	n := len(templates.mru)
	templates.Unlock()
	if n != maxTemplates {
		t.Errorf("the cache holds %d templates, want %d", n, maxTemplates)
	}
	cfg.WindowIndex = 0
	if templateFor(cfg) == got[0] {
		t.Error("a configuration unused for 2*maxTemplates others was not evicted")
	}
}

// BenchmarkRealmTemplate measures constructing a realm from nothing, the
// cost each configuration pays once; BenchmarkRealmBuild in the root
// package measures the stamp every realm costs.
func BenchmarkRealmTemplate(b *testing.B) {
	cfg := StandardConfig(Ubuntu, Regular, 90, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(cfg, &NopHost{}, "https://bench.test/")
	}
}
