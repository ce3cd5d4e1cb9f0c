// The quickstart example builds a small synthetic web, crawls five sites
// with an instrumented OpenWPM client while recording an execution bundle,
// replays the bundle offline, and prints what the instruments recorded —
// the minimal end-to-end tour of the public pipeline.
//
// The -telemetry and -trace flags ("-" = stdout) dump the crawl's metrics
// snapshot and flight-recorder span trace; `make telemetry-demo` runs the
// example with both enabled.
package main

import (
	"flag"
	"fmt"
	"os"

	"gullible/internal/bundle"
	"gullible/internal/experiments"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/websim"
)

// dump writes to path, with "-" meaning stdout.
func dump(path string, write func(f *os.File) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			panic(err)
		}
		defer f.Close()
	}
	if err := write(f); err != nil {
		panic(err)
	}
}

func main() {
	telemetryPath := flag.String("telemetry", "", "write the metrics snapshot as canonical JSON to this file (\"-\" = stdout)")
	tracePath := flag.String("trace", "", "write the span trace as JSON lines to this file (\"-\" = stdout)")
	flag.Parse()

	// 1. A deterministic synthetic web standing in for the Tranco list.
	world := websim.New(websim.Options{Seed: 42, NumSites: 1000})

	var tel *telemetry.Telemetry
	if *telemetryPath != "" || *tracePath != "" {
		tel = telemetry.New()
	}

	// 2. An OpenWPM-style crawl configuration: Ubuntu, regular mode,
	//    Firefox 90, all three instruments, three subpages per site.
	cfg := openwpm.CrawlConfig{
		OS:           jsdom.Ubuntu,
		Mode:         jsdom.Regular,
		Transport:    world,
		DwellSeconds: 60, // virtual seconds — free
		JSInstrument: true, HTTPInstrument: true, CookieInstrument: true,
		MaxSubpages: 3,
		Telemetry:   tel,
	}

	// 3. Crawl under recording through the scheduler, at one worker: every
	//    HTTP exchange, script file, JS call and cookie is archived into a
	//    sealed execution bundle. The report accounts for every input site —
	//    completed, salvaged, failed or skipped, never silently lost.
	live, err := sched.Run(sched.Crawl{
		Sites: websim.Tranco(5), Workers: 1, Telemetry: tel,
		Record: true, BundleMeta: map[string]string{"example": "quickstart"},
		Config: func(sched.Shard) openwpm.CrawlConfig { return cfg },
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(live.Report.String())
	fmt.Println(live.Bundle.Stats())

	// 4. Replay the crawl offline from the bundle — no live web needed —
	//    and check the replayed instruments saw the identical JS activity.
	replay, _, _, err := experiments.Replay(live.Bundle, bundle.MissFail, nil, sched.Crawl{})
	if err != nil {
		panic(err)
	}
	replayed := replay.Storage.JSCallsBySymbol()
	for sym, n := range live.Storage.JSCallsBySymbol() {
		if replayed[sym] != n {
			panic(fmt.Sprintf("replay diverged: %s recorded %d times live, %d on replay", sym, n, replayed[sym]))
		}
	}
	fmt.Printf("offline replay reproduced all %d JS-call symbols exactly\n", len(replayed))

	// 5. What the instruments saw.
	st := live.Storage
	fmt.Printf("\nHTTP requests recorded: %d\n", len(st.Requests))
	for rt, n := range st.RequestsByType() {
		fmt.Printf("  %-16s %d\n", rt, n)
	}
	fmt.Printf("cookies recorded: %d\n", len(st.Cookies))
	fmt.Printf("JavaScript calls recorded: %d\n", len(st.JSCalls))
	top := st.JSCallsBySymbol()
	shown := 0
	for _, sym := range []string{"Navigator.userAgent", "Navigator.webdriver", "Screen.width", "HTMLCanvasElement.getContext"} {
		if top[sym] > 0 {
			fmt.Printf("  %-30s %d\n", sym, top[sym])
			shown++
		}
	}
	fmt.Printf("unique script files stored: %d\n", len(st.ScriptFiles))
	fmt.Printf("\nsites that flagged this client as a bot: %d\n", world.FlaggedCount("openwpm-client"))

	// 6. What the telemetry layer saw, if it was on: the metrics snapshot is
	//    canonical JSON (byte-identical across identical runs), the trace is
	//    one JSON line per span begin/end over virtual time.
	if *telemetryPath != "" {
		dump(*telemetryPath, func(f *os.File) error {
			data, err := tel.Snapshot().CanonicalJSON()
			if err != nil {
				return err
			}
			_, err = f.Write(append(data, '\n'))
			return err
		})
	}
	if *tracePath != "" {
		dump(*tracePath, func(f *os.File) error {
			return telemetry.WriteTrace(f, live.Trace)
		})
	}
}
