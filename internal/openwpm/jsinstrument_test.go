package openwpm

import (
	"fmt"
	"testing"

	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/telemetry"
)

// testRealm builds a realm the way the browser does.
func testRealm(cfg jsdom.Config, url string) *jsdom.DOM {
	d := jsdom.Build(cfg, &jsdom.NopHost{}, url)
	d.It.StepLimit = 2_000_000
	return d
}

// expose hands d's window to script in another realm through
// window.frames, so the instrument must install into d by running its
// script.
func expose(t *testing.T, cfg jsdom.Config, d *jsdom.DOM) {
	t.Helper()
	parent := testRealm(cfg, "https://parent.example/")
	parent.Frames = append(parent.Frames, d)
	if _, err := parent.It.RunScript("frames[0].navigator;", "expose.js"); err != nil {
		t.Fatal(err)
	}
	if !d.Exposed() {
		t.Fatal("window.frames did not mark the frame exposed")
	}
}

// A realm instrumented from the recorded image must be indistinguishable
// from one instrumented by running vanillaProgram: the same reachable
// object graph (own keys and attributes in order, prototype links, function
// identity, captured scopes) and the same step and alloc counters, for
// every setup the instrument meets.
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
						viaImage, viaScript := testRealm(cfg, url), testRealm(cfg, url)
						expose(t, cfg, viaScript)

						ji.OnWindow(b, st, viaImage, top)
						ji.OnWindow(b, st, viaScript, top)
						b.Idle(1) // subframes install on the next tick
						if err := ji.TopInstallError(); err != nil {
							t.Fatal(err)
						}
						snap := tel.Snapshot()
						if img, scr := snap.Counters["js_instrument_installs_total{path=image}"], snap.Counters["js_instrument_installs_total{path=script}"]; img != 1 || scr != 1 {
							t.Fatalf("installs by path: image %d, script %d; want 1 and 1", img, scr)
						}
						if a, b := viaImage.It.GraphDigest(), viaScript.It.GraphDigest(); a != b {
							t.Errorf("realm graphs differ: image %x, script %x", a[:8], b[:8])
						}
						if testRealm(cfg, url).It.GraphDigest() == viaImage.It.GraphDigest() {
							t.Error("the digest does not see the instrument")
						}
						if a, b := viaImage.It.Steps(), viaScript.It.Steps(); a != b {
							t.Errorf("Steps: image %d, script %d", a, b)
						}
						if a, b := viaImage.It.Allocs(), viaScript.It.Allocs(); a != b {
							t.Errorf("Allocs: image %d, script %d", a, b)
						}
					})
				}
			}
		}
	}
}
