package jsdom_test

import (
	"testing"

	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/websim"
)

// A crawl's pages run hostile scripts in stamps of one template; none of
// that reaches the template. A 40-site instrumented crawl leaves a fresh
// stamp of its configuration exactly as a fresh stamp before it.
func TestCrawlLeavesTemplateUnchanged(t *testing.T) {
	cfg := jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0)
	before := jsdom.StampState(cfg)
	tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: websim.New(websim.Options{Seed: 42, NumSites: 100000}),
		DwellSeconds: 60, JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		HTTPFilterJSOnly: true, HoneyProps: 4, MaxSubpages: 3,
	})
	for i := 1; i <= 40; i++ {
		tm.VisitSite(websim.SiteURL(i))
	}
	if len(tm.Storage.JSCalls) == 0 {
		t.Fatal("the crawl recorded no JS calls; its pages ran no instrumented script")
	}
	if after := jsdom.StampState(cfg); after != before {
		t.Error("a fresh stamp after the crawl differs from one before it")
	}
}
