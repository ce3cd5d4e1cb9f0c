// Command wpmbench is the repository's benchmark: one program, four
// workloads, end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run. BENCHMARK.json at the repository root names
// the workloads, the metrics with their units and directions, and the bound
// by which each end-to-end metric may worsen before a change counts as a
// regression. A run whose metrics disagree with the spec is reported
// incorrect.
//
// # Running
//
// wpmbench is a module of its own (cmd/wpmbench/go.mod) that takes the
// crawler packages from the checkout it sits in, so the repository's own
// build and tests are untouched by it. From the root of a checkout:
//
//	sh cmd/wpmbench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out PATH] [-smoke]
//
// run.sh builds wpmbench into .bench_build/ (the Go build cache and
// temporary files go there too) and runs it; wpmbench reads BENCHMARK.json
// from the working directory. Without -workload every workload runs in spec
// order and the output is one JSON document: the environment, every pass
// with its samples, and every metric by name and unit with its median,
// minimum, maximum and sample count. With -workload the document is followed
// by a last line holding only the verdict and the spec's metrics:
//
//	{"correct": true, "attempted": 2400, "failed": 0, "metrics": {"ops_per_s": {"value": 143.9, "unit": "1/s"}, ...}}
//
// -trace 1 reports the per-layer metrics instead. -out FILE saves the
// untraced document; with -trace 1, -out DIR receives <workload>.spans.jsonl
// and layers.json. -smoke runs tiny inputs through every code path in a few
// seconds, writing only temporary directories. The tests (percentile and
// quartile rules, the paired-comparison rule, spec validation, wrapper
// transparency, smoke runs) live in this module:
//
//	cd cmd/wpmbench && go test ./...
//
// # How a run measures
//
// Every workload crawls a fixed input — the top-ranked sites of a fixed
// synthetic web (world seed 42 for scan and compare, 7 for record-replay),
// or a fixed pool of daemon jobs — and the run seed only orders it. Runs at
// different seeds do the same work, so the spread between runs is
// measurement noise rather than a difference of inputs.
//
// Each pass runs in a fresh child process, a re-exec of wpmbench, so the
// process-wide script cache and the scheduler's crawl-scoped GC tuning start
// cold, as on every wpmscan run. A run first makes one warm-up pass, whose
// outputs are checked but whose timings are not used, then takes rounds
// over the same input — two at least, then more while another round fits in
// -seconds — and reports medians over its measuring passes. A round is a
// calibration pass, which times a fixed reference kernel, and a measuring
// pass; the end-to-end timings are reported at the machine's nominal speed
// (see "Machine-speed calibration" below). Sixteen more children per run
// only set up and exit; set-up time runs from a child's exec to the end of
// its set-up (runtime start, package initialisation, the world or the
// daemon), and setup_s is the median over every child that set up a
// workload.
//
// wpmbench records nproc, GOMAXPROCS, the GOGC environment value, the Go
// version, the commit and whether tracked files were modified, the seed,
// the input sizes and the pass counts. It never sets GOGC or GOMAXPROCS for
// its children, and it never uses more crawl workers or daemon clients than
// the CPUs the process may use.
//
// Correctness gate: every pass of a run must store the digests the first
// one stored (scan's one-worker warm-up against its all-core passes; record
// against replay; traced against untraced; the benchmark's comparison loop
// against experiments.RunComparison), every daemon artifact must decode,
// pass bundle.Verify and carry its advertised digest, every warm download
// must be byte-identical to its cold one, and the reference kernel must
// return its checksum. At seed 42 the first pass must also reproduce the
// digests in testdata/goldens.json; after a change to an input, copy a
// seed-42 run's first-pass digests there. A failed or skipped
// site, or a failed or refused daemon request, counts in "failed" and makes
// the run incorrect too: a run that did less work is not a faster run. Any
// of these makes wpmbench exit 1.
//
// # Workloads
//
// scan: the paper's Sec. 4 detector scan through experiments.RunScanObserved
// — the top 300 ranked sites, 3 subpages, memory storage, tamper analysis —
// measured at every core. It is the headline crawl, where browser, jsdom,
// minjs, the instrument and tamper analysis dominate; the WAL and bundles
// are idle, so a storage change must not move it. Its warm-up pass runs at
// one worker, so every run checks the serial crawl's digest against the
// parallel ones. (Timed one-worker passes would halve the all-core passes a
// run fits, and the medians of the few left spread too far.)
//
// record-replay: the top 200 sites of a different web, recorded at every
// core onto per-shard WALs (fsync at checkpoints) with bundle recording,
// archived (Bundle.Marshal, bundle.Unmarshal, Verify), then replayed with
// misses failing. It exercises wal, bundle finalise/merge/seal, the
// scheduler's merge and the replay transport, none of which scan runs; page
// execution is shared with scan.
//
// compare: the Sec. 6.3 WPM vs WPM_hide crawl — the first 200 detector
// sites, 3 repetitions against one stateful world, sequential as in
// experiments.RunComparison. Half the realms get the stealth instrument,
// pages are detector-heavy and cloaking state grows across repetitions, so a
// gain specialised to the vanilla instrument or to scan's script mix shows
// up here as half or none.
//
// daemon-warm: an in-process daemon (2 executors, 1 crawl worker per job)
// behind daemon.Handler on a loopback listener, driven by a closed loop of 2
// clients (at most nproc), each on one keep-alive connection. The job pool
// is crawl jobs of 20 sites with 1 subpage, job k over its own web (world
// seed k+1). Each pass first completes 8 of them cold, not timed: submit,
// completion awaited on the job's SSE stream, artifact downloaded and
// verified, through admission, queue, scheduler, WAL, seal and cache. It
// then times 1000 resubmits, each answered from the cache and followed by an
// artifact download: the path that skips the crawl entirely, the opposite of
// the other three workloads. The cold jobs' latencies and phases are extras
// of the document (daemon.cold.*), not end-to-end metrics: 8 jobs a pass are
// too few for a steady percentile, and a fifth workload timing cold jobs
// alone would shorten the runs of the other four, which need their length
// to be steady. Replay jobs are not measured here; their crawl path is
// record-replay's replay phase.
//
// # End-to-end metrics
//
// Every workload reports every metric. An op is a site visit (scan,
// record-replay), a WPM/WPM_hide site pair (compare) or a warm hit
// (daemon-warm). Scan and record-replay measure at every core, compare at
// one worker, daemon-warm with its fixed two clients.
//
//	metric         unit  bound  what
//	ops_per_s      1/s   25%    ops per second of a measuring pass
//	op_ms_p50      ms    25%    median op latency (site: checkpoint to checkpoint;
//	                            daemon: resubmit to verified download)
//	op_ms_p90      ms    25%    90th percentile, pooled over the run's passes; one
//	                            pass of any workload holds at least 300 ops (the
//	                            document adds p99 or p99.9 where the ops support it)
//	cpu_ms_per_op  ms    25%    child user+system CPU per op
//	peak_rss_mb    MB    25%    child peak resident set
//	setup_s        s     25%    child exec to end of set-up, median over the run
//
// All but peak_rss_mb are timings and are reported at nominal machine speed;
// the document keeps each as measured under raw.<metric>.
//
// Failures are not a metric: a healthy run has none, and a metric that reads
// 0 has no relative bound. They are the result line's "failed" count, they
// make the run incorrect, and compare reports a workload worse when the
// change has more of them.
//
// The document's extras break the metrics down: record and replay rates,
// archive time, bundle KB per site, the daemon's cold-job latency and phases
// (daemon.cold.*: submit, queue wait, execute, artifact) and warm-hit phases
// (daemon.warm.*: submit, artifact), allocation per op, GC cycles, the
// script-cache hit ratio, the raw timings and the machine slowdown.
//
// # Machine-speed calibration
//
// The machine the bounds were set on, a 2-vCPU VM on a shared host, changes
// speed by 20–40% for minutes at a time: the same compare pass ran at 200
// site pairs/s for a few minutes and at 115–150 for the next few, with the
// binary and the input unchanged, and a crawl's CPU time per op moved with
// it, so the slowdown is in the processor, not in waiting. Ten runs in a row
// then spread by up to 26% of their median, and two sets of ten runs of the
// same commit had medians up to 23% apart. No run length cancels drift that
// outlasts the run.
//
// So every round of an untraced run starts with a calibration pass: a child
// that times refKernel (calib.go), a fixed piece of the benchmark's own code
// that no change to the crawler can move. It allocates small pointer-rich
// objects, string-keyed maps and sorted strings on one goroutine under the
// Go runtime's default GC, like a crawl's page execution. The run's slowdown
// is the median calibration time over refNominalS (0.7 s, about the
// kernel's median on that VM while the bounds were measured); rates are
// multiplied by it and times divided by it. Interleaving the kernel with
// compare passes, the kernel's time rose with theirs through a slow period,
// and scaling cut the spread of eight-pass medians from 21% to 7%.
//
// Scaling is not free: the kernel's own noise adds to runs taken while the
// machine holds steady. A 0.35 s kernel made some spreads 5 points wider
// than the raw ones; at the present 0.7 s, the final sets' scaled spreads
// were at most 2.2 points wider where the machine held steady (scan) and
// far narrower where it did not (daemon-warm: 6.8% against 23%). Over the
// ten-run sets taken while the benchmark was built, a workload's scaled
// medians moved by at most 9% from set to set (record-replay's by 2%), its
// raw medians by up to 23%. Judge a change with wpmbench compare, whose
// alternated pairs cancel drift too.
//
// # Bounds
//
// Every bound is 25%, the most BENCHMARK.json allows, and the spreads stay
// near a third of it: in the final sets the interquartile range of ten runs
// (ten seeds) was at most 8.7% of the median for every scaled timing (scan
// op_ms_p90) and at most 4% for peak RSS. setup_s, a few milliseconds of
// process start, spreads by 10–22% within a set, but its median moved by at
// most 16% between sets. A 10% bound would need spreads under 3.3%, which
// only peak RSS comes near here; those bounds stay open.
//
// # Per-layer metrics
//
// The traced run times calls across the boundaries the crawl already
// exposes for injection: the transport (httpsim.RoundTripper around the
// world or a bundle.ReplayTransport, forwarding the optional StorageFault
// and CountsByName), the storage backend (openwpm.Backend around the memory
// backend or the WAL; each AppendCheckpoint closes a site, Flush ends a
// shard), the JS instrument (through CrawlConfig.Stealth) and the tamper
// analyser, plus the public calls around the crawl (sched.Run,
// experiments.Analyze, the bundle functions). No crawler package changes.
// The scan and record-replay passes call sched.Run directly with the scan's
// configuration rebuilt; daemon-warm's traced passes re-run the pool's
// first 8 jobs the way the daemon's executor does. Their digests must equal
// the untraced ones. A traced run takes rounds of an untraced twin and its
// traced pass, back to back and in turns first, as an untraced run takes
// rounds, without warm-up or calibration passes: the per-layer metrics have
// no bounds, and trace_overhead_pct is the median of the traced-over-twin
// wall ratios of the rounds. The
// microbenchmarks replay a 30-site recorded scan through the layers' public
// functions.
//
// Spans record name, start, end, parent, request id (site URL or job id)
// and shard, in one buffer per goroutine. A layer's self time is its span
// minus the part its children cover; a site's self time is browser.other
// (realm builds, parsing, compilation, page execution, the event loop and
// deferred subframe instrumentation). The layer table sums to the traced
// pass's wall time, checked to 2%.
//
//	metric                              source          should move
//	openwpm.instrument_ms_per_site      instrument      scan ops_per_s, cpu_ms_per_op; compare
//	openwpm.realms_per_site             instrument      (count of window hooks)
//	openwpm.instrument_inject_us        micro           as above; not daemon-warm
//	jsdom.build_us                      micro           scan, compare; not bundle size
//	browser.other_ms_per_site           traced          every crawl; not daemon-warm
//	minjs.{parse,compile}_us_per_kb     micro           scan (cold cache), daemon cold jobs
//	minjs.exec_us_per_script            micro           scan, compare
//	scriptcache.hit_ratio               twin            scan cpu_ms_per_op vs daemon cold jobs
//	analysis.tamper_us_per_kb           micro           scan; not replay
//	httpsim.roundtrip_ms_per_site       transport       scan, record-replay
//	httpsim.requests_per_site           transport       (count)
//	openwpm.storage_append_ms_per_site  backend         record-replay, daemon cold jobs; not scan
//	openwpm.records_per_site            backend         (count)
//	wal.append_us_per_record            micro           record-replay, daemon cold jobs; not scan
//	wal.checkpoint_us                   micro           as above
//	bundle.{seal,marshal,unmarshal,verify}_us_per_kb
//	                                    micro           record-replay, daemon cold jobs; not scan
//	openwpm.{digest,merge}_us_per_record,
//	experiments.analyze_us_per_site     micro           scan; not daemon-warm
//	runtime.alloc_mb_per_site,
//	runtime.gc_cpu_fraction,
//	runtime.gc_cycles                   twin            cpu_ms_per_op, peak_rss_mb
//	trace_overhead_pct                  traced vs twin  (the cost of tracing)
//
// Layers only some workloads run — the tamper analyser (not in compare), the
// scheduler's merge time and shard imbalance (not in compare), and every row
// of the layer table — are extras of the traced document and in
// layers.json.
//
// # Comparing two commits
//
// Run each side at least ten times per workload, alternating sides and
// saving each document, then apply the bounds from the change's checkout:
//
//	for seed in 1 2 3 4 5 6 7 8 9 10; do
//	  (cd parent && sh cmd/wpmbench/run.sh -workload scan -seed $seed -out ../A/scan-$seed.json)
//	  (cd change && sh cmd/wpmbench/run.sh -workload scan -seed $seed -out ../B/scan-$seed.json)
//	done
//	(cd change && .bench_build/wpmbench compare ../A ../B)
//
// (swap the order on every other seed). Per workload, compare first checks
// failures: the change is worse when more of its runs are incorrect or more
// of its operations failed. The metric rows pair the correct runs in the
// order they started. A row is worse when the change's median is worse than
// the parent's by more than the bound; unresolved when either side's
// interquartile range exceeds the bound, unless every change run beats every
// parent run; improved when the change wins at least 9 of 10 pairs and the
// medians differ by more than the parent's interquartile range; unchanged
// otherwise. compare exits 1 when any row is worse.
//
// # Baseline
//
// Medians of one set of ten runs per workload (seeds 600–609 for
// record-replay and daemon-warm, 700–709 for compare and scan; 30 s each)
// on a 2-vCPU Linux VM, Go 1.24.0, GOMAXPROCS 2, GOGC unset, scaled to
// nominal speed, with the quartiles in brackets:
//
//	workload       ops_per_s         op_ms_p50         op_ms_p90         cpu_ms_per_op     peak_rss_mb  setup_s
//	scan           116 [111–118]     13.4 [13.0–14.1]  35.2 [33.5–36.5]  16.7 [16.4–17.3]  145          0.0046
//	record-replay  85.8 [83.6–88.3]  14.9 [14.3–15.3]  37.7 [36.6–38.5]  20.4 [20.1–21.2]  460          0.0046
//	compare        135 [133–141]     7.05 [6.80–7.09]  13.3 [12.8–13.5]  10.3 [9.7–10.5]   57           0.0113
//	daemon-warm    350 [339–361]     5.26 [5.10–5.40]  8.11 [7.90–8.46]  4.58 [4.45–4.69]  144          0.0074
//
// The machine ran 3–11% below nominal speed during these sets (median
// slowdowns 1.03–1.11); the raw ops_per_s medians were 106, 83.0, 122 and
// 328. Scan's one-worker warm-up passes ran at a median 63 sites/s against
// 106 for its all-core passes (raw, 1.7x). Record-replay: 78 sites/s
// recording, 114 replaying, 51 KB of bundle per site, 0.47 s to archive.
// Daemon-warm's cold jobs took a median 393 ms: 332 ms executing, 20 ms
// queued, 11 ms in submit and 30 ms downloading their artifact; warm hits
// have a p99 of 12.4 ms. A traced scan pass puts 66% of its wall time in
// browser.other and 26% in the vanilla instrument (5.9 ms per site, 7.8
// window hooks); one injection into a fresh realm takes 1.8–2.2 ms against
// 0.32 ms for building the realm. Tracing costs less than the noise can
// show: the traced-over-twin ratios of one traced scan run read −8% to +4%,
// median −1%.
//
// # Left for later changes
//
// This benchmark supersedes, but does not yet remove: scripts/bench_*.sh,
// the BENCH_*.json files and the verify.sh bench smokes; the macro
// benchmarks in bench_test.go; and the README/DESIGN narrative that
// parallel crawling is unprofitable, which the scan numbers above
// contradict. Cold daemon jobs are extras, not a gated workload, and daemon
// replay jobs have no workload yet: each needs a distinct completed crawl
// to replay, and preparing a hundred of them does not fit in one run.
package main
