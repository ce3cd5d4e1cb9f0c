package analysis

import (
	"reflect"
	"testing"

	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/openwpm"
	"gullible/internal/scriptcache"
	"gullible/internal/websim"
)

// tamperGoldenSrcs covers each rule plus obfuscated variants, an unparsable
// body (regex fallback) and a clean body.
var tamperGoldenSrcs = []string{
	`var w = navigator.webdriver; if (w) { document.title = "bot" }`,
	`var n = "web" + "driver"; var v = navigator[n];`,
	`if (window.navigator["\u0077ebdriver"]) {}`,
	`var d = Object.getOwnPropertyDescriptor(navigator, "plugins");`,
	`if (String(fn).indexOf("[native code]") < 0) { alert(1) }`,
	`try { null.x } catch (e) { var s = e.stack; }`,
	`for (var k in navigator) { probe(k) }`,
	`while (o) { o = Object.getPrototypeOf(o) }`,
	`var x = instrumentFingerprintingData;`,
	`console.log("benign analytics", location.href)`,
	`var ] = broken syntax navigator.webdriver`,
}

// TestAnalyzeProgramGolden is the double-parse fix's golden test: analysing
// a program parsed under its fetch URL (the execution path's AST) must yield
// a byte-identical TamperReport to the standalone Analyze parse.
func TestAnalyzeProgramGolden(t *testing.T) {
	for _, src := range tamperGoldenSrcs {
		golden := Analyze(src)
		prog, err := minjs.Parse(src, "https://cdn.tracker.test/fp.js")
		if err != nil {
			// unparsable body: AnalyzeProgram with nil must match fallback
			got := AnalyzeProgram(src, nil)
			if !reflect.DeepEqual(golden, got) {
				t.Errorf("fallback mismatch for %q:\n golden %+v\n got    %+v", src, golden, got)
			}
			continue
		}
		minjs.Compile(prog)
		got := AnalyzeProgram(src, prog)
		if !reflect.DeepEqual(golden, got) {
			t.Errorf("report mismatch for %q:\n golden %+v\n got    %+v", src, golden, got)
		}
	}
}

// TestSharedAnalyzeMatchesAnalyze pins the cached path against the direct
// path, including the memoised second call.
func TestSharedAnalyzeMatchesAnalyze(t *testing.T) {
	for _, src := range tamperGoldenSrcs {
		golden := Analyze(src)
		if got := SharedAnalyze(src); !reflect.DeepEqual(golden, got) {
			t.Errorf("first SharedAnalyze mismatch for %q:\n golden %+v\n got    %+v", src, golden, got)
		}
		if got := SharedAnalyze(src); !reflect.DeepEqual(golden, got) {
			t.Errorf("memoised SharedAnalyze mismatch for %q", src)
		}
	}
	// And via an execution-path warm cache: program first, then analysis.
	src := `var probe = navigator["web" + "driver"];`
	if _, err := scriptcache.Shared.Program(src, "https://site.test/a.js"); err != nil {
		t.Fatal(err)
	}
	if got := SharedAnalyze(src); !reflect.DeepEqual(Analyze(src), got) {
		t.Errorf("warm-cache SharedAnalyze diverged: %+v", got)
	}
}

// TestAnalyzeStaticOverRecordedScan: after a crawl whose TamperRecorder
// parsed and analysed every stored body through the shared cache,
// AnalyzeStatic over each body reports exactly what a fresh parse does.
func TestAnalyzeStaticOverRecordedScan(t *testing.T) {
	world := websim.New(websim.Options{Seed: 42, NumSites: 40})
	tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: world,
		JSInstrument: true, HTTPInstrument: true, MaxSubpages: 1,
		Tamper: TamperRecorder,
	})
	tm.CrawlFromHooked(websim.Tranco(40), &openwpm.Checkpoint{}, openwpm.CrawlHooks{})
	if len(tm.Storage.ScriptFiles) == 0 {
		t.Fatal("the scan stored no script bodies")
	}
	detectors := 0
	for sha, f := range tm.Storage.ScriptFiles {
		got := AnalyzeStatic(f.Content)
		want := Analyze(f.Content)
		if !reflect.DeepEqual(got.Tamper, want) {
			t.Errorf("body %s: AnalyzeStatic's report\n %+v\nfresh parse\n %+v", sha, got.Tamper, want)
		}
		if got.SeleniumDetector != want.Has(RuleWebdriverProbe) {
			t.Errorf("body %s: SeleniumDetector %v disagrees with the fresh report", sha, got.SeleniumDetector)
		}
		if got.SeleniumDetector {
			detectors++
		}
	}
	if detectors == 0 {
		t.Error("no stored body was classified a detector; the scan does not exercise the findings path")
	}
}
