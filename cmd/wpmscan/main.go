// Command wpmscan reproduces the Sec. 4 measurement: a vanilla OpenWPM
// client crawls the ranked synthetic web (front page + up to three
// subpages), and static + dynamic analyses identify bot detectors. It prints
// Tables 5–7 and 11–13 and Figures 3–5.
//
// The -faults flag injects a seeded fault profile into the crawl and the
// -max-visit-s flag arms the per-visit watchdog, turning the scan into a
// reliability experiment; the crawl report is printed to stderr.
//
// The -workers flag shards the crawl across parallel workers (0 = one per
// CPU, clamped to the site count); merged storage, report and bundle bytes
// are identical at any worker count.
//
// The -record-bundle flag archives the scan into an execution bundle file —
// each worker records its shard and the scheduler merges the shard archives
// into one sealed bundle, so recording runs at full parallelism — and
// -replay-bundle re-runs the scan offline from such a file, with -miss
// selecting the policy for requests the bundle never saw.
//
// The -telemetry flag writes the scan's canonical-JSON metrics snapshot to a
// file and switches the live progress line to registry-derived counters
// (restarts, watchdog fires, faults, dropped writes); -trace writes the
// flight recorder's span events as JSON lines. Either flag enables
// instrumentation.
//
// The -agreement flag appends the per-rule static-vs-dynamic tamper
// agreement table: AST findings from the persisted javascript_tamper table
// cross-checked against the JS instrumentation log.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gullible/internal/bundle"
	"gullible/internal/daemon/signal"
	"gullible/internal/experiments"
	"gullible/internal/faults"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// writeTelemetry dumps the metrics snapshot and/or the scheduler-merged span
// trace to files. The trace comes from the scan result, not the shared
// registry: each shard records spans into its own flight recorder and the
// scheduler merges them with globally unique ids (analyse with wpmtrace).
func writeTelemetry(tel *telemetry.Telemetry, events []telemetry.SpanEvent, metricsPath, tracePath string) {
	if metricsPath != "" {
		data, err := tel.Snapshot().CanonicalJSON()
		if err == nil {
			err = os.WriteFile(metricsPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", metricsPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err == nil {
			err = telemetry.WriteTrace(f, events)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote span trace to %s (%d events)\n", tracePath, len(events))
	}
}

func main() {
	sites := flag.Int("sites", 100000, "number of ranked sites to scan")
	subpages := flag.Int("subpages", 3, "maximum subpages per site")
	workers := flag.Int("workers", 0, "parallel crawl workers (0 = one per CPU, clamped to the site count)")
	seed := flag.Int64("seed", 42, "world seed")
	faultMode := flag.String("faults", "off", "fault profile to inject: off|default|heavy")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed")
	maxVisitS := flag.Float64("max-visit-s", 0, "per-visit virtual watchdog budget in seconds (0 = off)")
	recordPath := flag.String("record-bundle", "", "archive the scan into an execution bundle at this path")
	replayPath := flag.String("replay-bundle", "", "replay the scan offline from this execution bundle")
	missMode := flag.String("miss", "fail", "replay miss policy: fail|passthrough (serve misses from the live world)|synthesize-404")
	telemetryPath := flag.String("telemetry", "", "write the canonical-JSON metrics snapshot to this file (enables instrumentation)")
	tracePath := flag.String("trace", "", "write flight-recorder span events as JSON lines to this file (enables instrumentation)")
	agreement := flag.Bool("agreement", false, "also print the per-rule static-vs-dynamic tamper agreement table")
	store := flag.String("store", "memory", "storage backend: memory|wal (wal appends every record to a crash-safe per-shard log)")
	walDir := flag.String("wal-dir", "wpmscan-wal", "directory for the per-shard WAL logs when -store wal")
	fsync := flag.String("fsync", "checkpoint", "WAL fsync policy: off|checkpoint|always")
	recoverRun := flag.Bool("recover", false, "rebuild the crawl from the WALs under -wal-dir (after a crash or SIGINT) and resume it")
	flag.Parse()

	opts := experiments.ScanOptions{MaxSubpages: *subpages, Workers: *workers, MaxVisitSeconds: *maxVisitS, FaultSeed: *faultSeed}
	var tel *telemetry.Telemetry
	if *telemetryPath != "" || *tracePath != "" {
		tel = telemetry.New()
		opts.Telemetry = tel
	}

	syncPolicy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	walOpts := wal.Options{Sync: syncPolicy, Telemetry: tel}
	if *recoverRun && *store != "wal" {
		fmt.Fprintln(os.Stderr, "-recover requires -store wal")
		os.Exit(2)
	}
	if *recordPath != "" {
		opts.RecordBundle = true
		opts.BundleMeta = map[string]string{
			"tool": "wpmscan", "worldSeed": fmt.Sprint(*seed), "faults": *faultMode,
		}
	}
	if *replayPath != "" {
		b, err := bundle.ReadFile(*replayPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load bundle: %v\n", err)
			os.Exit(1)
		}
		policy, err := bundle.ParseMissPolicy(*missMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.ReplayBundle = b
		opts.MissPolicy = policy
	}
	if opts.FaultProfile, err = faults.ProfileNamed(*faultMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch *store {
	case "memory":
	case "wal":
		if *recoverRun {
			fss, err := sched.ListShardFSs(*walDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "recover: %v\n", err)
				os.Exit(1)
			}
			cp, recoveries, err := sched.Recover(fss, walOpts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "recover: %v\n", err)
				os.Exit(1)
			}
			for _, rec := range recoveries {
				if s := rec.Stats.Scan; len(s.TornSegments) > 0 {
					fmt.Fprintf(os.Stderr, "shard %d: torn tail truncated (%d bytes discarded, %d records replayed, %d discarded past the last checkpoint)\n",
						rec.Meta.Index, s.TruncatedBytes, rec.Stats.Applied, rec.Stats.Discarded)
				}
			}
			fmt.Fprintf(os.Stderr, "recovered %d/%d sites from %s\n", cp.Done(), *sites, *walDir)
			opts.Resume = cp
			opts.Workers = cp.Workers
			// shards whose log lost even its metadata record restart from
			// scratch; the factory gives them a fresh durable log (recovered
			// shards keep their continuation backends and never hit it)
			opts.Backend = sched.WALBackend(sched.ShardDirFS(*walDir), cp.Workers, opts.RecordBundle, opts.BundleMeta, walOpts)
		} else {
			eff := sched.Workers(*workers, *sites)
			opts.Backend = sched.WALBackend(sched.ShardDirFS(*walDir), eff, opts.RecordBundle, opts.BundleMeta, walOpts)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -store %q (want memory or wal)\n", *store)
		os.Exit(2)
	}

	// SIGINT/SIGTERM stop the crawl at the next site boundary: the WAL (when
	// on) is flushed and sealed behind a final per-site checkpoint, and the
	// process exits with a distinct status so wrappers know to -recover.
	opts.Stop = signal.Notify(func(s os.Signal) {
		fmt.Fprintf(os.Stderr, "\n%v: stopping at the next site boundary...\n", s)
	})

	world := websim.New(websim.Options{Seed: *seed, NumSites: *sites})
	start := time.Now()
	fmt.Fprintf(os.Stderr, "scanning %d sites (subpages ≤ %d, faults %s)...\n", *sites, *subpages, *faultMode)
	r, err := experiments.RunScanObserved(world, *sites, opts, func(done, total int) {
		if tel.Enabled() {
			// Live progress straight from the registry: the same counters the
			// snapshot will report, read mid-crawl.
			s := tel.Snapshot()
			fmt.Fprintf(os.Stderr, "  %d/%d sites — %d restarts, %d watchdog fires, %d faults, %d dropped writes (%.0fs elapsed)\n",
				done, total,
				s.Total("crawl_restarts_total"), s.Total("browser_watchdog_fires_total"),
				s.Total("faults_injected_total"), s.Total("storage_drops_total"),
				time.Since(start).Seconds())
			return
		}
		fmt.Fprintf(os.Stderr, "  %d/%d sites (%.0fs elapsed)\n", done, total, time.Since(start).Seconds())
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scan: %v\n", err)
		os.Exit(1)
	}
	if r.Interrupted {
		done := 0
		if r.Checkpoint != nil {
			done = r.Checkpoint.Done()
			if cerr := r.Checkpoint.CloseBackends(); cerr != nil {
				fmt.Fprintf(os.Stderr, "seal WAL: %v\n", cerr)
			}
		}
		if tel.Enabled() {
			writeTelemetry(tel, r.Trace, *telemetryPath, *tracePath)
		}
		if *store == "wal" {
			fmt.Fprintf(os.Stderr, "interrupted at %d/%d sites; WAL sealed under %s — resume with -store wal -recover\n", done, *sites, *walDir)
		} else {
			fmt.Fprintf(os.Stderr, "interrupted at %d/%d sites; progress was not persisted (run with -store wal for a crash-safe, resumable log)\n", done, *sites)
		}
		os.Exit(signal.ExitInterrupted)
	}
	if *store == "wal" && r.Checkpoint != nil {
		if cerr := r.Checkpoint.CloseBackends(); cerr != nil {
			fmt.Fprintf(os.Stderr, "seal WAL: %v\n", cerr)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "scan finished in %s (%d workers)\n\n", time.Since(start).Round(time.Second), r.Workers)
	if tel.Enabled() {
		writeTelemetry(tel, r.Trace, *telemetryPath, *tracePath)
	}
	if r.Report != nil {
		fmt.Fprint(os.Stderr, r.Report.String())
		if len(r.FaultKinds) > 0 {
			kinds := make([]string, 0, len(r.FaultKinds))
			for k := range r.FaultKinds {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			fmt.Fprint(os.Stderr, "injected faults:")
			for _, k := range kinds {
				fmt.Fprintf(os.Stderr, " %s=%d", k, r.FaultKinds[k])
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintln(os.Stderr)
	}
	if *recordPath != "" {
		if r.Bundle == nil {
			fmt.Fprintln(os.Stderr, "scan produced no bundle")
			os.Exit(1)
		}
		if err := r.Bundle.WriteFile(*recordPath); err != nil {
			fmt.Fprintf(os.Stderr, "write bundle: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s\nwrote %s (digest %s)\n\n", r.Bundle.Stats(), *recordPath, r.Bundle.Digest)
	}

	fmt.Println(experiments.Table5(r))
	fmt.Println(experiments.Table6(r))
	fmt.Println(experiments.Table7(r))
	fmt.Println(experiments.Table11(r))
	fmt.Println(experiments.Table12(r))
	fmt.Println(experiments.Table13(r))
	fmt.Println(experiments.Figure3(r))
	fmt.Println(experiments.Figure4(r))
	fmt.Println(experiments.Figure5(r))
	if *agreement {
		fmt.Println(experiments.TableAgreement(experiments.AgreementFromScan(r)))
	}
}
