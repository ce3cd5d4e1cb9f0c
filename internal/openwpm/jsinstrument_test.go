package openwpm

import (
	"fmt"
	"slices"
	"testing"

	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// testRealm builds a realm the way the browser does.
func testRealm(cfg jsdom.Config, url string) *jsdom.DOM {
	d := jsdom.Build(cfg, &jsdom.NopHost{}, url)
	d.It.StepLimit = 2_000_000
	return d
}

// expose hands d's window to script in another realm through
// window.frames and runs src there, before d's install tick.
func expose(t *testing.T, cfg jsdom.Config, d *jsdom.DOM, src string) {
	t.Helper()
	parent := testRealm(cfg, "https://parent.example/")
	parent.Frames = append(parent.Frames, d)
	if _, err := parent.It.RunScript(src, "parent.js"); err != nil {
		t.Fatal(err)
	}
}

// poison is a parent's write into a frame's prototype before the frame's
// install tick.
const poison = "frames[0].Navigator.prototype.x = 1;"

// A realm instrumented from the recorded image must be indistinguishable
// from one instrumented by running vanillaProgram: the same reachable
// object graph (own keys and attributes in order, prototype links, function
// identity, captured scopes), the same object counters and the same step
// and alloc counters, for every setup the instrument meets. Three realms
// are installed per setup: (a) a fresh one and (b) one a parent only read
// from both take the image; (c) one a parent wrote into takes the script
// path and ends as a poisoned realm that ran vanillaProgram directly does.
// The reference for (a) and (b) runs the script because its access hook
// makes Instantiate refuse.
func TestInstrumentImageMatchesScript(t *testing.T) {
	setups := []struct {
		os   jsdom.OS
		mode jsdom.Mode
	}{
		{jsdom.Ubuntu, jsdom.Regular}, {jsdom.Ubuntu, jsdom.Headless},
		{jsdom.Ubuntu, jsdom.Xvfb}, {jsdom.Ubuntu, jsdom.Docker},
		{jsdom.MacOS, jsdom.Regular}, {jsdom.MacOS, jsdom.Headless},
	}
	for _, s := range setups {
		for _, legacy := range []bool{false, true} {
			for _, honey := range []int{0, 4} {
				for _, top := range []bool{true, false} {
					name := fmt.Sprintf("%v-%v/legacy=%v/honey=%d/top=%v", s.os, s.mode, legacy, honey, top)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := jsdom.StandardConfig(s.os, s.mode, 90, 1)
						tel := telemetry.New()
						b := browser.New(browser.Options{Config: cfg, ClientID: "identity", Telemetry: tel})
						ji := &JSInstrument{Legacy: legacy, HoneyProps: HoneyNames("identity", honey)}
						st := NewStorage()
						url := "https://frame.example/page"
						fresh, readOnly, poisoned, viaScript := testRealm(cfg, url), testRealm(cfg, url), testRealm(cfg, url), testRealm(cfg, url)
						exposeAll := func() {
							expose(t, cfg, readOnly, "frames[0].navigator.userAgent; frames[0].screen.width; frames[0].document;")
							expose(t, cfg, poisoned, poison)
						}
						viaScript.It.PropAccessHook = func(*minjs.Object, string) {}

						// parent script reaches a subframe between its
						// creation and its install tick; a top window
						// installs inside OnWindow, so reach it first
						if top {
							exposeAll()
						}
						for _, d := range []*jsdom.DOM{fresh, readOnly, poisoned, viaScript} {
							ji.OnWindow(b, st, d, top)
						}
						if !top {
							exposeAll()
						}
						b.Idle(1) // subframes install on the next tick
						viaScript.It.PropAccessHook = nil
						if err := ji.TopInstallError(); err != nil {
							t.Fatal(err)
						}
						snap := tel.Snapshot()
						if img, scr := snap.Counters["js_instrument_installs_total{path=image}"], snap.Counters["js_instrument_installs_total{path=script}"]; img != 2 || scr != 2 {
							t.Fatalf("installs by path: image %d, script %d; want 2 and 2", img, scr)
						}
						for _, r := range []struct {
							name string
							d    *jsdom.DOM
						}{{"fresh", fresh}, {"read-only", readOnly}} {
							if a, b := r.d.It.GraphDigest(), viaScript.It.GraphDigest(); a != b {
								t.Errorf("%s: realm graphs differ: image %x, script %x", r.name, a[:8], b[:8])
							}
							if !slices.Equal(r.d.It.Counters(), viaScript.It.Counters()) {
								t.Errorf("%s: object counters: image and script installs differ", r.name)
							}
							if a, b := r.d.It.Steps(), viaScript.It.Steps(); a != b {
								t.Errorf("%s: Steps: image %d, script %d", r.name, a, b)
							}
							if a, b := r.d.It.Allocs(), viaScript.It.Allocs(); a != b {
								t.Errorf("%s: Allocs: image %d, script %d", r.name, a, b)
							}
						}
						if testRealm(cfg, url).It.GraphDigest() == fresh.It.GraphDigest() {
							t.Error("the digest does not see the instrument")
						}

						ref := testRealm(cfg, url)
						expose(t, cfg, ref, poison)
						ref.Window.Set("__wpmCfg", minjs.ObjectValue(ji.cfgObject(ji.EventID)))
						if _, err := ref.It.RunProgram(vanillaProgram); err != nil {
							t.Fatal(err)
						}
						if a, b := poisoned.It.GraphDigest(), ref.It.GraphDigest(); a != b {
							t.Errorf("poisoned: realm graphs differ: install %x, direct run %x", a[:8], b[:8])
						}
						if poisoned.It.GraphDigest() == viaScript.It.GraphDigest() {
							t.Error("the digest does not see the poisoned prototype")
						}
					})
				}
			}
		}
	}
}

// BenchmarkRealmInstrumented measures what one instrumented top window
// costs: building its realm (a stamp of the configuration's template) and
// installing the vanilla instrument from its image. The template and the
// image are warmed before the timer starts, as they are after a crawl's
// first page, and every install must take the image path.
func BenchmarkRealmInstrumented(b *testing.B) {
	cfg := jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0)
	tel := telemetry.New()
	br := browser.New(browser.Options{Config: cfg, ClientID: "bench", Telemetry: tel})
	ji := &JSInstrument{HoneyProps: HoneyNames("bench", 4)}
	st := NewStorage()
	build := func() {
		d := jsdom.Build(cfg, &jsdom.NopHost{}, "https://bench.test/")
		ji.OnWindow(br, st, d, true)
	}
	build()
	if err := ji.TopInstallError(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.StopTimer()
	if scr := tel.Snapshot().Counters["js_instrument_installs_total{path=script}"]; scr != 0 {
		b.Fatalf("%d of %d installs ran the script instead of the image", scr, b.N+1)
	}
}

// The scan crawl's subframes must install from the image at both world
// seeds: the viewability tag reads its probe frame before the install tick
// but never writes to it, so no realm of these crawls takes the script
// path. A regression that sends untouched realms back to the script, such
// as a seal that counts a read as a write, shows here rather than only as a
// slower benchmark.
func TestScanCrawlInstallsFromImage(t *testing.T) {
	for _, seed := range []int64{42, 9} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			world := websim.New(websim.Options{Seed: seed, NumSites: 100000})
			tel := telemetry.New()
			tm := NewTaskManager(CrawlConfig{
				OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: world,
				DwellSeconds: 60, JSInstrument: true, HTTPInstrument: true,
				CookieInstrument: true, HTTPFilterJSOnly: true, HoneyProps: 4, MaxSubpages: 3,
				Telemetry: tel,
			})
			for i := 1; i <= 30; i++ {
				tm.VisitSite(websim.SiteURL(i))
			}
			snap := tel.Snapshot()
			img, scr := snap.Counters["js_instrument_installs_total{path=image}"], snap.Counters["js_instrument_installs_total{path=script}"]
			if img == 0 {
				t.Fatal("the crawl installed no instrument from the image")
			}
			if scr != 0 {
				t.Errorf("script installs %d of %d; want 0", scr, img+scr)
			}
			t.Logf("installs: image %d, script %d", img, scr)
		})
	}
}
