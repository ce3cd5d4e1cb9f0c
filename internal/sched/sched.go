// Package sched implements the sharded crawl scheduler: a deterministic
// site→shard partitioner, a pool of per-shard TaskManagers (each with its own
// transport, recorder and checkpoint), and a merge stage that recombines the
// shards' storages, reports and telemetry, and seals one execution bundle
// from the shard recorders and the merged storage, into results that are
// byte-identical no matter how many workers ran the crawl.
//
// The determinism contract the scheduler maintains:
//
//   - Partitioning is contiguous: shard i covers sites [start, start+len) of
//     the input list, so concatenating shard outputs in shard order
//     reconstructs the serial visit order exactly (round-robin would not).
//   - Per-site work is position-independent: a site's records are a pure
//     function of (site, configuration, seed) — the openwpm layer restarts
//     window numbering per site, request faults are hashed per URL and
//     storage faults per page position (faults.PageCursor), and the shared
//     telemetry registry is commutative (atomic counters, integer histogram
//     sums).
//   - Report folding is order-fixed: float totals are summed by re-folding
//     per-site outcomes in global site order, never by adding per-shard
//     subtotals (float addition is not associative).
package sched

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gullible/internal/bundle"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
)

// Shard is one worker's slice of the crawl: a contiguous run of the input
// site list starting at global index Start.
type Shard struct {
	Index int
	Start int
	Sites []string
}

// Partition splits sites into n contiguous shards whose sizes differ by at
// most one (the first len(sites)%n shards take the extra site). n is clamped
// to [1, len(sites)] — except that an empty site list yields one empty shard.
func Partition(sites []string, n int) []Shard {
	n = Workers(n, len(sites))
	shards := make([]Shard, 0, n)
	base, extra := 0, 0
	if n > 0 {
		base, extra = len(sites)/n, len(sites)%n
	}
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		shards = append(shards, Shard{Index: i, Start: start, Sites: sites[start : start+size]})
		start += size
	}
	return shards
}

// Workers clamps a requested worker count: zero or negative means
// GOMAXPROCS, and a crawl never gets more workers than it has sites. The
// clamp is to len(sites), not to one — the pre-scheduler scan collapsed to a
// single worker whenever workers exceeded sites, serialising small crawls on
// big machines.
func Workers(requested, sites int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > sites {
		w = sites
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Crawl configures one scheduled crawl.
type Crawl struct {
	// Sites is the input URL list in global (rank) order.
	Sites []string
	// Workers is the requested worker count, clamped by Workers(). Zero
	// means GOMAXPROCS.
	Workers int
	// Config builds a worker's crawl configuration for its shard. It is
	// called once per shard per run (again on resume) from the worker
	// goroutine; per-worker state (fault injectors, replay transports) must
	// be constructed here, not shared. Recorder is attached by the
	// scheduler — leave it nil.
	Config func(Shard) openwpm.CrawlConfig
	// Record archives each shard under its own bundle recorder and seals
	// one archive from the shard recorders and the merged storage
	// (Result.Bundle).
	Record bool
	// Backend, when non-nil, builds a per-shard durable storage backend
	// (package wal's Open, typically). It is called once per shard on a
	// fresh run; resumed runs reuse the checkpoint's backends. When the
	// backend also implements bundle.Spool and Record is set, the shard's
	// recorder spools through it. The scheduler checkpoints each site
	// outcome to the backend and flushes at worker exit, but never closes
	// backends — that is the caller's job (Checkpoint.CloseBackends), since
	// an interrupted checkpoint keeps its backends live for resumption.
	Backend func(Shard) openwpm.Backend
	// BundleMeta labels the bundle's manifest (deterministic content
	// only — seeds and scenario names, never timestamps).
	BundleMeta map[string]string
	// Telemetry, when non-nil, is the registry shared by every worker; the
	// scheduler keeps the crawl_progress_done/_total gauges current and
	// snapshots it into Result.Metrics after the merge barrier. Span
	// recording is NOT shared: each shard gets its own flight recorder
	// (shared-ring interleaving across workers is scheduling-dependent), and
	// the merge builds Result.Trace from the per-shard streams.
	Telemetry *telemetry.Telemetry
	// DetachMetrics keeps the telemetry snapshot out of the sealed bundle's
	// report (Result.Metrics still carries it). A shared registry
	// accumulates process-lifetime series — a daemon's counters differ
	// between a cold run and a restart-resumed one — so callers that demand
	// digest-identical artifacts across runs detach it.
	DetachMetrics bool
	// OnProgress receives crawl progress: a tick every ProgressEvery sites
	// plus always one final (total, total) call when the crawl completes.
	// It is invoked from worker goroutines and must be safe for concurrent
	// use.
	OnProgress func(done, total int)
	// ProgressEvery is the intermediate progress granularity in sites
	// (default 1000).
	ProgressEvery int
	// Stop, when non-nil, interrupts the crawl cooperatively: once closed,
	// every worker stops at its next site boundary and Run returns an
	// Interrupted result whose Checkpoint resumes the crawl.
	Stop <-chan struct{}
	// Resume continues an interrupted run. The checkpoint must come from a
	// Run over the same site list with the same worker count; completed
	// sites are not revisited.
	Resume *Checkpoint
}

// ShardState is one shard's resumable progress: the inner openwpm checkpoint
// (sites done, per-shard report), the outcome stream for global re-folding,
// and the shard's accumulated storage, recorder and fault tallies.
type ShardState struct {
	Shard      Shard
	Checkpoint *openwpm.Checkpoint
	Outcomes   []openwpm.SiteOutcome
	Storage    *openwpm.Storage
	Recorder   *bundle.Recorder
	Backend    openwpm.Backend
	FaultKinds map[string]int

	// cfg is the effective (defaulted) configuration of the shard's most
	// recent TaskManager, kept for bundle finalisation; nil until the shard
	// runs.
	cfg *openwpm.CrawlConfig

	// flight is the shard's span recorder (nil with telemetry off) and
	// traceCursor the flight cursor of the last WAL checkpoint: together
	// they let a resumed or recovered shard continue its trace exactly where
	// it stopped.
	flight      *telemetry.Flight
	traceCursor int64

	// metaLost marks a WAL-recovered shard whose log lost even its metadata
	// record: Recover knows only the shard's index (by elimination), so
	// Run recomputes its Start/Sites from the deterministic partition of the
	// crawl being resumed before validating the checkpoint.
	metaLost bool
}

// Checkpoint is a whole scheduled crawl's resumable state: one ShardState
// per worker. It is an in-process handle — storages and recorders are live
// objects — so resumption means passing it back to Run in the same process.
type Checkpoint struct {
	Workers int
	Shards  []*ShardState
}

// Done is the number of sites completed across all shards.
func (cp *Checkpoint) Done() int {
	n := 0
	for _, st := range cp.Shards {
		n += st.Checkpoint.Done
	}
	return n
}

// CloseBackends closes every shard's storage backend (no-op for shards
// without one). Call it once the checkpoint is finished with — after a
// completed run, or when abandoning an interrupted one. The scheduler itself
// never closes backends: an interrupted checkpoint keeps its logs open so a
// resumed run can continue appending.
func (cp *Checkpoint) CloseBackends() error {
	var first error
	for _, st := range cp.Shards {
		if st == nil || st.Backend == nil {
			continue
		}
		if err := st.Backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Complete reports whether every shard finished its slice.
func (cp *Checkpoint) Complete() bool {
	for _, st := range cp.Shards {
		if st.Checkpoint.Done < len(st.Shard.Sites) {
			return false
		}
	}
	return true
}

// Result is a scheduled crawl's merged output.
type Result struct {
	Sites   int
	Workers int
	// Interrupted is set when Stop ended the run early; only Checkpoint,
	// FaultKinds and the partial Trace are populated then, and passing
	// Checkpoint back via Crawl.Resume finishes the crawl.
	Interrupted bool
	// Checkpoint is the final per-shard state (also set on completed runs,
	// where Complete() is true).
	Checkpoint *Checkpoint

	// Storage is the merged measurement database, shard storages appended
	// in shard order — byte-identical digests across worker counts.
	Storage *openwpm.Storage
	// Report is the crawl accounting, re-folded from per-site outcomes in
	// global site order.
	Report *openwpm.CrawlReport
	// Bundle is the sealed execution bundle when Crawl.Record was
	// set.
	Bundle *bundle.Bundle
	// Metrics is the final whole-crawl telemetry snapshot when
	// Crawl.Telemetry was set.
	Metrics *telemetry.Snapshot
	// Trace is the merged span stream when the crawl ran with telemetry
	// (telemetry.MergeTraces): one crawl root, then the shard
	// flight-recorder events in shard order with span ids renumbered to be
	// globally unique and every visit on the serial crawl clock. It is the
	// trace a one-worker crawl records, byte for byte, at any worker count
	// and across cold, in-process-resumed and WAL-recovered runs, unless a
	// shard's ring overflowed (each shard keeps its own newest events).
	Trace []telemetry.SpanEvent
	// FaultKinds tallies injected faults by kind across all shards, when
	// the shard transports expose CountsByName (the faults injector does).
	FaultKinds map[string]int
}

// faultCounter is the optional capability sched sniffs off a shard's raw
// transport to tally injected faults without importing the faults package.
type faultCounter interface{ CountsByName() map[string]int }

// Run executes a sharded crawl: partition, crawl every shard on its own
// worker, then merge. The error path is loud — a failed bundle finalisation
// fails the run instead of silently dropping the archive.
func Run(c Crawl) (*Result, error) {
	crawlGCTuneOn()
	defer crawlGCTuneOff()
	workers := Workers(c.Workers, len(c.Sites))
	cp := c.Resume
	if cp == nil {
		cp = &Checkpoint{Workers: workers}
		for _, sh := range Partition(c.Sites, workers) {
			cp.Shards = append(cp.Shards, &ShardState{Shard: sh, Checkpoint: &openwpm.Checkpoint{}})
		}
	} else {
		cp.repairLostShards(c.Sites, workers)
		if err := cp.validate(c.Sites, workers); err != nil {
			return nil, err
		}
	}
	total := len(c.Sites)
	every := c.ProgressEvery
	if every <= 0 {
		every = 1000
	}
	c.Telemetry.Gauge("crawl_progress_total").Set(int64(total))
	gDone := c.Telemetry.Gauge("crawl_progress_done")
	var done atomic.Int64
	done.Store(int64(cp.Done()))
	gDone.Set(done.Load())

	var wg sync.WaitGroup
	for _, st := range cp.Shards {
		if st.Checkpoint.Done >= len(st.Shard.Sites) {
			continue // shard already complete (resume)
		}
		wg.Add(1)
		go func(st *ShardState) {
			defer wg.Done()
			cfg := c.Config(st.Shard)
			raw := cfg.Transport
			if st.Backend == nil && c.Backend != nil {
				st.Backend = c.Backend(st.Shard)
			}
			cfg.Backend = st.Backend
			if c.Record {
				if st.Recorder == nil {
					st.Recorder = bundle.NewRecorder(c.BundleMeta)
					if sp, ok := st.Backend.(bundle.Spool); ok {
						st.Recorder.Spool = sp
					}
				}
				cfg.Recorder = st.Recorder
			}
			if cfg.Telemetry.Enabled() {
				// Spans move to a shard-local flight recorder: a ring shared
				// across workers interleaves events in scheduling order, so
				// no deterministic whole-crawl trace could be cut from it.
				// Metrics stay shared (atomic, order-independent).
				if st.flight == nil {
					st.flight = telemetry.NewFlight(telemetry.DefaultFlightCapacity)
				}
				cfg.Telemetry = &telemetry.Telemetry{
					Metrics: cfg.Telemetry.Metrics,
					Spans:   st.flight,
				}
			}
			tm := openwpm.NewTaskManager(cfg)
			effective := tm.Cfg // a copy: the TaskManager is not kept alive
			st.cfg = &effective
			hooks := openwpm.CrawlHooks{
				OnSite: func(o openwpm.SiteOutcome) {
					st.Outcomes = append(st.Outcomes, o)
					if st.Backend != nil {
						var ts []byte
						if st.flight != nil {
							var events []telemetry.SpanEvent
							events, st.traceCursor = st.flight.EventsSince(st.traceCursor)
							ts, _ = json.Marshal(telemetry.FlightCheckpoint{
								Events: events,
								NextID: st.flight.NextID(),
							})
						}
						// append failures are already counted by the backend
						// (writer stats + telemetry); the crawl keeps going
						_ = st.Backend.AppendCheckpoint(o, nil, ts)
					}
					n := done.Add(1)
					gDone.Set(n)
					if c.OnProgress != nil && n%int64(every) == 0 && n != int64(total) {
						c.OnProgress(int(n), total)
					}
				},
			}
			if c.Stop != nil {
				hooks.Stop = func() bool {
					select {
					case <-c.Stop:
						return true
					default:
						return false
					}
				}
			}
			tm.CrawlFromHooked(st.Shard.Sites, st.Checkpoint, hooks)
			if st.Storage == nil {
				st.Storage = tm.Storage
			} else {
				// resumed shard: a fresh TaskManager crawled the remainder;
				// append its records after the previous run's
				st.Storage.Merge(tm.Storage)
			}
			if st.Backend != nil {
				// one commit per worker exit; failures are counted by the
				// backend itself
				_ = st.Backend.Flush()
			}
			if fc, ok := raw.(faultCounter); ok {
				if st.FaultKinds == nil {
					st.FaultKinds = map[string]int{}
				}
				for k, n := range fc.CountsByName() {
					st.FaultKinds[k] += n
				}
			}
		}(st)
	}
	wg.Wait()

	res := &Result{Sites: total, Workers: workers, Checkpoint: cp, FaultKinds: map[string]int{}}
	for _, st := range cp.Shards {
		for k, n := range st.FaultKinds {
			res.FaultKinds[k] += n
		}
	}
	if !cp.Complete() {
		// a partial trace (open crawl root and all) is still worth inspecting
		res.Interrupted = true
		res.Trace = cp.trace(total, nil)
		return res, nil
	}

	// merge stage: contiguous partitioning makes shard order the global site
	// order, so appending storages and re-folding outcomes shard by shard
	// reproduces the serial crawl's bytes exactly
	storage := openwpm.NewStorage()
	report := openwpm.NewCrawlReport()
	for _, st := range cp.Shards {
		if st.Storage != nil {
			storage.Merge(st.Storage)
		}
		for _, o := range st.Outcomes {
			report.AbsorbOutcome(o)
		}
		if st.Checkpoint.Report != nil {
			report.DroppedWrites += st.Checkpoint.Report.DroppedWrites
		}
	}
	res.Storage = storage
	res.Report = report
	res.Trace = cp.trace(total, report)
	if c.Telemetry.Enabled() {
		// every shard analysed its own first sighting of a script body;
		// the merged table holds each body once, so tamper rows are counted
		// here, once per crawl
		storage.CountTampers(c.Telemetry)
		// one snapshot after every worker finished: the workers share the
		// registry, so per-shard snapshots would multiply-count the crawl.
		// Attached before the bundle is sealed so the archive embeds it —
		// unless DetachMetrics: a process-lifetime registry (the daemon's)
		// would make otherwise-identical artifacts digest-diverge.
		res.Metrics = c.Telemetry.Snapshot()
		if !c.DetachMetrics {
			report.Metrics = res.Metrics
		}
	}
	if c.Record {
		recs := make([]*bundle.Recorder, len(cp.Shards))
		var cfg *openwpm.CrawlConfig
		for i, st := range cp.Shards {
			if st.Recorder == nil {
				st.Recorder = bundle.NewRecorder(c.BundleMeta)
			}
			recs[i] = st.Recorder
			if cfg == nil {
				cfg = st.cfg
			}
		}
		if cfg == nil {
			// no shard ran (an empty crawl, or a recovered one that was
			// already complete): archive the effective configuration shard 0
			// would have used
			cfg = &openwpm.NewTaskManager(c.Config(cp.Shards[0].Shard)).Cfg
		}
		b, err := bundle.Finalize(recs, *cfg, c.Sites, storage, report)
		if err != nil {
			return nil, fmt.Errorf("sched: finalize bundle: %w", err)
		}
		res.Bundle = b
	}
	if c.OnProgress != nil {
		// crawls whose site count is not a multiple of ProgressEvery still
		// report completion — exactly one final event, always
		c.OnProgress(total, total)
	}
	return res, nil
}

// trace merges the shard flight streams into the crawl's one trace
// (telemetry.MergeTraces), or returns nil when the crawl ran without
// telemetry. The scheduler owns the crawl root and the crawl clock: it
// re-folds the outcomes in global site order, the same additions a
// one-worker crawl makes, so every visit lands at bit-identical serial times
// at any worker count. report is nil for an interrupted crawl, whose root
// stays open.
func (cp *Checkpoint) trace(sites int, report *openwpm.CrawlReport) []telemetry.SpanEvent {
	var parts []telemetry.TracePart
	clock := 0.0
	for _, st := range cp.Shards {
		part := telemetry.TracePart{Clock: []float64{clock}}
		for _, o := range st.Outcomes {
			if o.Skipped {
				continue // a budget skip records no visit and takes no time
			}
			clock += (o.VirtualSeconds + o.BackoffSeconds) * 1000
			part.Clock = append(part.Clock, clock)
		}
		if st.flight != nil {
			part.Events = st.flight.Events()
			parts = append(parts, part)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	root := telemetry.CrawlRoot{Sites: sites}
	if report != nil {
		root.Ended, root.Completed = true, report.Completed
	}
	return telemetry.MergeTraces(root, parts...)
}

// repairLostShards rebuilds the identity of checkpoint shards whose WAL lost
// its metadata record (Recover marks them metaLost and knows only their
// index): the partition is deterministic, so the missing Start/Sites follow
// from the crawl being resumed. validate then checks the repaired shard like
// any other.
func (cp *Checkpoint) repairLostShards(sites []string, workers int) {
	var parts []Shard
	for _, st := range cp.Shards {
		if st == nil || !st.metaLost {
			continue
		}
		if parts == nil {
			parts = Partition(sites, workers)
		}
		if st.Shard.Index >= 0 && st.Shard.Index < len(parts) {
			st.Shard = parts[st.Shard.Index]
		}
	}
}

// validate checks a resume checkpoint against the crawl it claims to
// continue: same worker count and the same contiguous partition of the same
// site list.
func (cp *Checkpoint) validate(sites []string, workers int) error {
	if cp.Workers != workers {
		return fmt.Errorf("sched: resume with %d workers but checkpoint has %d — resharding a checkpoint is not supported", workers, cp.Workers)
	}
	if len(cp.Shards) != workers {
		return fmt.Errorf("sched: checkpoint has %d shards for %d workers", len(cp.Shards), workers)
	}
	next := 0
	for i, st := range cp.Shards {
		if st == nil || st.Checkpoint == nil {
			return fmt.Errorf("sched: checkpoint shard %d is incomplete", i)
		}
		if st.Shard.Start != next {
			return fmt.Errorf("sched: checkpoint shard %d starts at %d, want %d", i, st.Shard.Start, next)
		}
		for j, u := range st.Shard.Sites {
			if next+j >= len(sites) || sites[next+j] != u {
				return fmt.Errorf("sched: checkpoint shard %d site %d does not match the crawl's site list", i, j)
			}
		}
		next += len(st.Shard.Sites)
	}
	if next != len(sites) {
		return fmt.Errorf("sched: checkpoint covers %d sites, crawl has %d", next, len(sites))
	}
	return nil
}
