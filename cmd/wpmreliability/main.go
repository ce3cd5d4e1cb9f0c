// Command wpmreliability runs the fault-injection reliability experiment:
// the same ranked prefix of the synthetic web is crawled twice under the
// same seeded fault function — once with the blind pre-hardening retry
// loop, once with the hardened pipeline (watchdog, error taxonomy, backoff,
// circuit breaker, partial-result salvage) — and the completion accounting
// of both runs is compared. Each column counts the faults its own run met.
//
// The -telemetry flag instruments both runs (each with its own registry) and
// writes their metrics snapshots as one JSON document keyed by pipeline;
// -trace writes both span traces as JSON lines, each event wrapped with a
// "run" tag. Either flag enables instrumentation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gullible/internal/daemon/signal"
	"gullible/internal/experiments"
	"gullible/internal/faults"
	"gullible/internal/telemetry"
)

// writeSnapshots writes the vanilla and hardened metrics snapshots as a
// single canonical JSON document.
func writeSnapshots(r *experiments.ReliabilityResult, path string) error {
	doc := map[string]*telemetry.Snapshot{
		"vanilla":  r.Vanilla.Metrics,
		"hardened": r.Hardened.Metrics,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTraces writes both runs' span events as JSON lines, tagging each line
// with the pipeline it came from.
func writeTraces(r *experiments.ReliabilityResult, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, run := range []struct {
		name   string
		events []telemetry.SpanEvent
	}{{"vanilla", r.VanillaTrace}, {"hardened", r.HardenedTrace}} {
		for _, ev := range run.events {
			if err := enc.Encode(struct {
				Run string `json:"run"`
				telemetry.SpanEvent
			}{run.name, ev}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func main() {
	sites := flag.Int("sites", 500, "number of ranked sites to crawl")
	workers := flag.Int("workers", 0, "parallel crawl workers per run (0 = one per CPU, clamped to the site count)")
	seed := flag.Int64("seed", 42, "world seed")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed")
	heavy := flag.Bool("heavy", false, "use the heavy (4x) fault profile")
	telemetryPath := flag.String("telemetry", "", "write both runs' metrics snapshots (JSON, keyed vanilla/hardened) to this file")
	tracePath := flag.String("trace", "", "write both runs' span traces as JSON lines to this file")
	flag.Parse()

	profile := faults.DefaultProfile()
	if *heavy {
		profile = faults.HeavyProfile()
	}

	// SIGINT/SIGTERM stop the in-flight crawl at its next site boundary; a
	// partial paired comparison is meaningless, so the process reports the
	// interruption and exits with a distinct status instead of printing
	// half-valid tables.
	stop := signal.Notify(func(s os.Signal) {
		fmt.Fprintf(os.Stderr, "\n%v: stopping at the next site boundary...\n", s)
	})

	start := time.Now()
	fmt.Fprintf(os.Stderr, "crawling %d sites twice (vanilla + hardened) under fault seed %d...\n", *sites, *faultSeed)
	r := experiments.RunReliability(*seed, *faultSeed, experiments.ReliabilityOptions{
		NumSites:  *sites,
		Workers:   *workers,
		Profile:   profile,
		Telemetry: *telemetryPath != "" || *tracePath != "",
		Stop:      stop,
	})
	if r.Interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: the vanilla/hardened comparison needs both full runs — rerun to completion")
		os.Exit(signal.ExitInterrupted)
	}
	fmt.Fprintf(os.Stderr, "done in %s\n\n", time.Since(start).Round(time.Second))

	if *telemetryPath != "" {
		if err := writeSnapshots(r, *telemetryPath); err != nil {
			fmt.Fprintf(os.Stderr, "write telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshots to %s\n", *telemetryPath)
	}
	if *tracePath != "" {
		if err := writeTraces(r, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote span traces to %s\n", *tracePath)
	}

	fmt.Println(experiments.TableReliability(r))
	fmt.Println("vanilla " + r.Vanilla.String())
	fmt.Println("hardened " + r.Hardened.String())
}
