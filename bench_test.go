package gullible_test

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's per-experiment index). The two heavyweight inputs — the
// Sec. 4 detector scan and the Sec. 6.3 parallel comparison — are produced
// once per process and shared; BenchmarkScanCrawl and
// BenchmarkComparisonCrawl measure the underlying crawls themselves.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gullible/internal/attacks"
	"gullible/internal/experiments"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

var (
	scanOnce sync.Once
	scanRes  *experiments.ScanResult

	cmpOnce sync.Once
	cmpRes  *experiments.CompareResult
)

func scanFixture(b *testing.B) *experiments.ScanResult {
	b.Helper()
	scanOnce.Do(func() {
		world := websim.New(websim.Options{Seed: 42, NumSites: 600})
		scanRes = experiments.RunScan(world, 600, 3, nil)
	})
	return scanRes
}

func compareFixture(b *testing.B) *experiments.CompareResult {
	b.Helper()
	cmpOnce.Do(func() {
		world := websim.New(websim.Options{Seed: 42, NumSites: 2500})
		sites := experiments.DetectorSiteSample(world, 60)
		cmpRes = experiments.RunComparison(world, sites, 3, nil)
	})
	return cmpRes
}

// ---- crawl harnesses ------------------------------------------------------

// BenchmarkScanCrawl measures the Sec. 4 crawl per site (front + subpages,
// vanilla instrumentation, static corpus collection).
func BenchmarkScanCrawl(b *testing.B) {
	world := websim.New(websim.Options{Seed: 9, NumSites: 100000})
	tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: world,
		DwellSeconds: 60, JSInstrument: true, HTTPInstrument: true,
		CookieInstrument: true, HTTPFilterJSOnly: true, HoneyProps: 4, MaxSubpages: 3,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.VisitSite(websim.SiteURL(i%100000 + 1))
	}
}

// BenchmarkScanCrawlTelemetry is BenchmarkScanCrawl with full telemetry
// (metrics, spans, no log sink) enabled; the delta between the two is the
// instrumentation overhead.
func BenchmarkScanCrawlTelemetry(b *testing.B) {
	world := websim.New(websim.Options{Seed: 9, NumSites: 100000})
	tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: world,
		DwellSeconds: 60, JSInstrument: true, HTTPInstrument: true,
		CookieInstrument: true, HTTPFilterJSOnly: true, HoneyProps: 4, MaxSubpages: 3,
		Telemetry: telemetry.New(),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.VisitSite(websim.SiteURL(i%100000 + 1))
	}
}

// BenchmarkScanCrawlTraceDisabled is BenchmarkScanCrawlTelemetry with the
// flight recorder detached (metrics stay on, Spans nil): the tracing-off
// baseline that span recording is priced against.
func BenchmarkScanCrawlTraceDisabled(b *testing.B) {
	world := websim.New(websim.Options{Seed: 9, NumSites: 100000})
	tm := openwpm.NewTaskManager(openwpm.CrawlConfig{
		OS: jsdom.Ubuntu, Mode: jsdom.Regular, Transport: world,
		DwellSeconds: 60, JSInstrument: true, HTTPInstrument: true,
		CookieInstrument: true, HTTPFilterJSOnly: true, HoneyProps: 4, MaxSubpages: 3,
		Telemetry: &telemetry.Telemetry{Metrics: telemetry.NewRegistry()},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.VisitSite(websim.SiteURL(i%100000 + 1))
	}
}

// BenchmarkScanWorkers measures whole-scan throughput (crawl + analysis) at
// several sharding widths. Sharding buys wall-clock only when GOMAXPROCS
// grants real cores; the repo benchmark (cmd/wpmbench) measures 1…nproc.
func BenchmarkScanWorkers(b *testing.B) {
	const sites = 500
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				world := websim.New(websim.Options{Seed: 42, NumSites: sites})
				r, err := experiments.RunScanObserved(world, sites,
					experiments.ScanOptions{MaxSubpages: 3, Workers: w}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if r.Workers != w {
					b.Fatalf("scheduler used %d workers, want %d", r.Workers, w)
				}
			}
			b.ReportMetric(float64(sites)*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
		})
	}
}

// BenchmarkComparisonCrawl measures one paired WPM/WPM_hide site visit.
func BenchmarkComparisonCrawl(b *testing.B) {
	world := websim.New(websim.Options{Seed: 9, NumSites: 100000})
	sites := experiments.DetectorSiteSample(world, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunComparison(world, sites[i%len(sites):i%len(sites)+1], 1, nil)
	}
}

// ---- literature tables ------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table1(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table14(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table15(); len(tbl.Rows) != 72 {
			b.Fatal("bad table")
		}
	}
}

// ---- fingerprint surface (Sec. 3) ------------------------------------------

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table2(90); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table3(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table4(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Figure2(); len(tbl.Rows) != 3 {
			b.Fatal("bad figure")
		}
	}
}

// ---- detector incidence (Sec. 4) ---------------------------------------------

func BenchmarkTable5(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table5(r); len(tbl.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table6(r); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table7(r); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable11(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table11(r); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable12(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table12(r); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable13(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table13(r); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Figure3(r); len(tbl.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Figure4(r); len(tbl.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	r := scanFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Figure5(r); len(tbl.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---- WPM vs WPM_hide (Sec. 6.3) ----------------------------------------------

func BenchmarkTable8(b *testing.B) {
	c := compareFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table8(c); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable9(b *testing.B) {
	c := compareFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table9(c); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable10(b *testing.B) {
	c := compareFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table10(c); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	c := compareFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Figure6(c); len(tbl.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---- attacks (Sec. 5) and primitives ------------------------------------------

func BenchmarkAttackSuiteVanilla(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rs := attacks.RunAll(attacks.VanillaVariant()); len(rs) != 6 {
			b.Fatal("bad attack suite")
		}
	}
}

// BenchmarkInterpreter measures raw minjs throughput on a small fingerprint
// -style workload.
func BenchmarkInterpreter(b *testing.B) {
	prog := minjs.Compile(minjs.MustParse(`
		var out = [];
		for (var i = 0; i < 100; i++) {
			out.push("k" + i);
		}
		var s = 0;
		for (var j = 0; j < out.length; j++) { s += out[j].length; }
		s`, "bench.js"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := minjs.New()
		if _, err := it.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealmBuild measures building one browser object model: a stamp
// of its configuration's realm template (jsdom's BenchmarkRealmTemplate
// measures the construction each template runs once). A bare stamp makes
// none of its 408 function objects, only the plain objects and slots
// (about 70 KB in 70 allocations on go1.24), so its bytes understate a
// crawled realm: the instrument install then makes the natives it wraps
// and adds its own objects. BenchmarkRealmInstrumented in internal/openwpm
// measures build and install together and is the per-realm ruler.
func BenchmarkRealmBuild(b *testing.B) {
	cfg := jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jsdom.Build(cfg, &jsdom.NopHost{}, "https://bench.test/")
	}
}
