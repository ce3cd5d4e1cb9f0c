package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// sizes are the per-pass input sizes, shipped to each child with its spec.
type sizes struct {
	ScanSites     int `json:"scan_sites"`
	Subpages      int `json:"subpages"`
	RRSites       int `json:"rr_sites"`
	CompareSites  int `json:"compare_sites"`
	CompareReps   int `json:"compare_reps"`
	CompareCheck  int `json:"compare_check"`
	DaemonClients int `json:"daemon_clients"`
	DaemonSites   int `json:"daemon_sites"`
	// WarmPrep is the cold jobs each client completes before a daemon-warm
	// pass measures WarmOps warm hits per client.
	WarmPrep      int `json:"warm_prep"`
	WarmOps       int `json:"warm_ops"`
	DaemonRebuilt int `json:"daemon_rebuilt"`
	MicroSites    int `json:"micro_sites"`
	MicroBudgetMS int `json:"micro_budget_ms"`
}

// fullSizes are the benchmark's sizes. Each pass takes a few seconds on a
// 2-vCPU machine, so a run fits many more than minRounds rounds, and one
// pass of any workload supports a 90th percentile.
func fullSizes(clients int) sizes {
	return sizes{
		ScanSites: 300, Subpages: 3,
		RRSites:      200,
		CompareSites: 200, CompareReps: 3, CompareCheck: 8,
		DaemonClients: clients, DaemonSites: 20,
		WarmPrep: 4, WarmOps: 1000 / clients,
		DaemonRebuilt: 8,
		MicroSites:    30, MicroBudgetMS: 150,
	}
}

// smokeSizes exercise every code path in a few seconds.
func smokeSizes(clients int) sizes {
	return sizes{
		ScanSites: 6, Subpages: 1,
		RRSites:      4,
		CompareSites: 3, CompareReps: 2, CompareCheck: 2,
		DaemonClients: clients, DaemonSites: 3,
		WarmPrep: 1, WarmOps: 3,
		DaemonRebuilt: 1,
		MicroSites:    3, MicroBudgetMS: 1,
	}
}

// workload is one benchmark workload: its passes and how they summarise.
type workload struct {
	measure func(spec passSpec, execNS int64) (*passResult, error)
	traced  func(spec passSpec, execNS int64, tracing bool) (*passResult, error)
	// parallel workloads measure at every core, the others at one worker.
	parallel bool
	// serialWarmup runs the warm-up pass at one worker, so that the outputs
	// of a parallel workload's passes are checked against a serial pass.
	serialWarmup bool
}

var workloads = map[string]*workload{
	"scan":          {measure: scanMeasure, traced: scanTraced, parallel: true, serialWarmup: true},
	"record-replay": {measure: recordReplayMeasure, traced: recordReplayTraced, parallel: true},
	"compare":       {measure: compareMeasure, traced: compareTraced},
	"daemon-warm":   {measure: daemonMeasure, traced: daemonTraced},
}

// workers is the worker count of the workload's measuring passes.
func (w *workload) workers(wmax int) int {
	if w.parallel {
		return wmax
	}
	return 1
}

// Run lengths: an untraced run first makes one warm-up pass, then always
// completes minRounds rounds of passes and starts another only while it
// fits in the run's seconds; maxRounds caps a run on a fast machine. An
// untraced round is a calibration pass (calib.go) and a measuring pass.
// setupProbes extra children per untraced run only set up, so setup_s is a
// median of many set-ups.
const (
	minRounds   = 2
	maxRounds   = 40
	setupProbes = 16
)

type runOpts struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
	wmax    int
	smoke   bool
	size    sizes
}

// workloadDoc is one workload's part of the output document.
type workloadDoc struct {
	Name       string             `json:"name"`
	Why        string             `json:"why"`
	Started    int64              `json:"started_unix_ns"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Problems   []string           `json:"problems,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	PassCounts map[string]int     `json:"pass_counts"`
	Metrics    map[string]summary `json:"metrics"`
	Extras     map[string]summary `json:"extras,omitempty"`
	Layers     *layerTable        `json:"layers,omitempty"`
	Passes     []*passResult      `json:"passes"`
}

func (d *workloadDoc) problemf(format string, args ...any) {
	d.Problems = append(d.Problems, fmt.Sprintf(format, args...))
}

//go:embed testdata/goldens.json
var goldensJSON []byte

// goldenSeed is the seed the committed digests were recorded at.
const goldenSeed = 42

// goldens maps workload → digest name → digest at goldenSeed.
func goldens() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return g, nil
}

// runWorkload runs one workload for o.seconds and summarises it.
func runWorkload(ctx context.Context, name string, spec *benchSpec, o runOpts) (*workloadDoc, error) {
	w, ok := workloads[name]
	ws, inSpec := spec.workload(name)
	if !ok || !inSpec {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	doc := &workloadDoc{Name: name, Why: ws.Why, Started: time.Now().UnixNano(), Seed: o.seed,
		Trace: o.trace, PassCounts: map[string]int{}}
	base := passSpec{Workload: name, Seed: o.seed, Size: o.size}
	run := func(s passSpec) error {
		res, err := spawn(ctx, s)
		if err != nil {
			return err
		}
		doc.Passes = append(doc.Passes, res)
		doc.PassCounts[fmt.Sprintf("%s/w%d", s.Kind, s.Workers)]++
		return nil
	}
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		for i := 0; i < setupProbes; i++ {
			s := base
			s.Kind, s.Workers = kindSetup, 1
			if err := run(s); err != nil {
				return nil, err
			}
		}
		// a run's first pass read slower than its others in trial runs on
		// a shared 2-vCPU VM, so one pass runs before timing: its outputs
		// are checked, its timings unused
		s := base
		s.Kind, s.Workers = kindWarmup, w.workers(o.wmax)
		if w.serialWarmup {
			s.Workers = 1
		}
		if err := run(s); err != nil {
			return nil, err
		}
	}
	// every pass of a run crawls the same input, so passes differ only by
	// measurement noise; a round is started only if it fits the budget as
	// well as the longest round so far did. A traced round is an untraced
	// twin and its traced pass, back to back.
	var longest time.Duration
	for k := 0; k < maxRounds; k++ {
		if k >= minRounds && time.Since(start)+longest > budget {
			break
		}
		t := time.Now()
		s := base
		if o.trace {
			// the twin goes first in even rounds and second in odd ones:
			// the first child of a round tends to read slower
			kinds := []string{kindTwin, kindTraced}
			if k%2 == 1 {
				kinds[0], kinds[1] = kinds[1], kinds[0]
			}
			for _, kind := range kinds {
				s.Kind, s.Workers, s.SpansOut = kind, o.wmax, ""
				if kind == kindTraced && k == 0 && o.outDir != "" {
					s.SpansOut = filepath.Join(o.outDir, name+".spans.jsonl")
				}
				if err := run(s); err != nil {
					return nil, err
				}
			}
		} else {
			s.Kind, s.Workers = kindCalib, 1
			if err := run(s); err != nil {
				return nil, err
			}
			s.Kind, s.Workers = kindMeasure, w.workers(o.wmax)
			if err := run(s); err != nil {
				return nil, err
			}
		}
		longest = max(longest, time.Since(t))
	}
	if o.trace {
		s := base
		s.Kind = kindMicro
		if err := run(s); err != nil {
			return nil, err
		}
	}
	counted := kindMeasure
	if o.trace {
		counted = kindTraced
	}
	for _, p := range doc.Passes {
		doc.Problems = append(doc.Problems, p.Problems...)
		if p.Kind == counted {
			doc.Attempted += p.Ops
			doc.Failed += p.Failed
		}
	}
	if doc.Failed > 0 {
		doc.problemf("%d of %d operations failed", doc.Failed, doc.Attempted)
	}
	if o.trace {
		summarizeLayers(doc)
	} else {
		summarizeEndToEnd(doc, o)
	}
	if err := checkDigests(doc, o); err != nil {
		return nil, err
	}
	for _, p := range doc.Passes {
		p.LatMS, p.Series = nil, nil // summarised; too bulky for the document
	}
	doc.Correct = len(doc.Problems) == 0
	return doc, nil
}

// passesOf returns the passes of one kind.
func passesOf(doc *workloadDoc, kind string) []*passResult {
	var out []*passResult
	for _, p := range doc.Passes {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

func each(ps []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, 0, len(ps))
	for _, p := range ps {
		out = append(out, f(p))
	}
	return out
}

// latencySummary pools per-op latencies across passes: the value is the
// pooled percentile, the samples are the per-pass percentiles.
func latencySummary(name string, p float64, ps []*passResult, lat func(*passResult) []float64) summary {
	var pooled []float64
	var per []float64
	for _, r := range ps {
		l := lat(r)
		pooled = append(pooled, l...)
		if len(l) > 0 {
			per = append(per, percentile(l, p))
		}
	}
	s := summarize(name, "ms", per)
	s.N = len(pooled)
	s.Value = percentile(pooled, p)
	return s
}

// summarizeEndToEnd derives the end-to-end metrics from the measuring
// passes, and set-up time from every child of the run that set up a
// workload, the set-up probes included.
func summarizeEndToEnd(doc *workloadDoc, o runOpts) {
	all := passesOf(doc, kindMeasure)
	setups := append(append(passesOf(doc, kindSetup), passesOf(doc, kindWarmup)...), all...)
	lat := func(r *passResult) []float64 { return r.LatMS }
	doc.Metrics = map[string]summary{
		"ops_per_s":     summarize("ops_per_s", "1/s", each(all, func(r *passResult) float64 { return float64(r.Ops) / r.WallS })),
		"op_ms_p50":     latencySummary("op_ms_p50", 50, all, lat),
		"op_ms_p90":     latencySummary("op_ms_p90", 90, all, lat),
		"cpu_ms_per_op": summarize("cpu_ms_per_op", "ms", each(all, func(r *passResult) float64 { return r.CPUMS / float64(r.Ops) })),
		"peak_rss_mb":   summarize("peak_rss_mb", "MB", each(all, func(r *passResult) float64 { return r.MaxRSSMB })),
		"setup_s":       summarize("setup_s", "s", each(setups, func(r *passResult) float64 { return r.SetupS })),
	}
	if n := doc.Metrics["op_ms_p90"].N; !supports(n, 90) && !o.smoke {
		doc.problemf("%d latency samples do not support a 90th percentile (need %d beyond it)", n, minBeyond)
	}
	doc.Extras = map[string]summary{}
	add := func(s summary) { doc.Extras[s.Name] = s }
	if p := highestSupported(doc.Metrics["op_ms_p90"].N); p > 90 {
		add(latencySummary("op_ms_"+percentileName(p), p, all, lat))
	}
	for _, name := range extraNames(all) {
		add(summarize(name, unitOf(name), each(all, func(r *passResult) float64 { return r.Extras[name] })))
	}
	add(summarize("runtime.alloc_mb_per_op", "MB", each(all, func(r *passResult) float64 {
		return float64(r.AllocBytes) / 1e6 / float64(r.Ops)
	})))
	add(summarize("runtime.gc_cycles", "count", each(all, func(r *passResult) float64 { return float64(r.GCCycles) })))
	add(summarize("scriptcache.hit_ratio", "ratio", each(all, scriptHitRatio)))
	// pooled latency series (the daemon's per-phase timings)
	for _, name := range seriesNames(all) {
		get := func(r *passResult) []float64 { return r.Series[name] }
		base := strings.TrimSuffix(name, "_ms")
		add(latencySummary(base+"_ms_p50", 50, all, get))
		n := 0
		for _, r := range all {
			n += len(r.Series[name])
		}
		if p := highestSupported(n); p > 50 {
			add(latencySummary(base+"_ms_"+percentileName(p), p, all, get))
		}
	}
	// the spec's timings at nominal machine speed (calib.go); everything
	// else in the document is as measured
	slowdown := summarize("machine.slowdown", "ratio", each(passesOf(doc, kindCalib), func(r *passResult) float64 {
		return r.WallS / refNominalS
	}))
	add(slowdown)
	if slowdown.N == 0 {
		doc.problemf("no calibration pass")
		return
	}
	for _, name := range []string{"ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op", "setup_s"} {
		s := doc.Metrics[name]
		raw := s
		raw.Name = "raw." + name
		add(raw)
		// times are divided by the slowdown, rates multiplied by it
		f := 1 / slowdown.Value
		if name == "ops_per_s" {
			f = slowdown.Value
		}
		doc.Metrics[name] = s.scaled(f)
	}
}

func scriptHitRatio(r *passResult) float64 {
	if r.ScriptHits+r.ScriptMisses == 0 {
		return 0
	}
	return float64(r.ScriptHits) / float64(r.ScriptHits+r.ScriptMisses)
}

func extraNames(ps []*passResult) []string {
	seen := map[string]bool{}
	for _, p := range ps {
		for k := range p.Extras {
			seen[k] = true
		}
	}
	return sortedKeys(seen)
}

func seriesNames(ps []*passResult) []string {
	seen := map[string]bool{}
	for _, p := range ps {
		for k := range p.Series {
			seen[k] = true
		}
	}
	return sortedKeys(seen)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// unitOf infers an extra's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_kb_per_site"):
		return "KB"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	}
	return "count"
}

// summarizeLayers derives the per-layer metrics of a traced run: layer
// times from the traced passes, runtime and cache ratios from their twins,
// tracing overhead from the two, and the microbenchmarks. Layers only some
// workloads exercise (the tamper analyser, the scheduler's merge, every row
// of the layer table) go to the extras.
func summarizeLayers(doc *workloadDoc) {
	traced := passesOf(doc, kindTraced)
	twins := passesOf(doc, kindTwin)
	micro := passesOf(doc, kindMicro)
	doc.Metrics = map[string]summary{}
	doc.Extras = map[string]summary{}
	add := func(s summary) { doc.Metrics[s.Name] = s }
	addExtra := func(s summary) { doc.Extras[s.Name] = s }
	perSite := func(rows ...string) func(*passResult) float64 {
		return func(r *passResult) float64 {
			ms := 0.0
			for _, n := range rows {
				ms += r.Layers.row(n).TotalMS
			}
			return ms / float64(max(r.Layers.Sites, 1))
		}
	}
	countPerSite := func(rows ...string) func(*passResult) float64 {
		return func(r *passResult) float64 {
			n := 0
			for _, row := range rows {
				n += r.Layers.row(row).Count
			}
			return float64(n) / float64(max(r.Layers.Sites, 1))
		}
	}
	add(summarize("httpsim.roundtrip_ms_per_site", "ms", each(traced, perSite(spanHTTP))))
	add(summarize("httpsim.requests_per_site", "count", each(traced, countPerSite(spanHTTP))))
	add(summarize("openwpm.instrument_ms_per_site", "ms", each(traced, perSite(spanInstrument, spanStealth))))
	add(summarize("openwpm.realms_per_site", "count", each(traced, countPerSite(spanInstrument, spanStealth))))
	addExtra(summarize("analysis.tamper_ms_per_site", "ms", each(traced, perSite(spanTamper))))
	addExtra(summarize("analysis.tamper_calls", "count", each(traced, func(r *passResult) float64 {
		return float64(r.Layers.row(spanTamper).Count)
	})))
	add(summarize("openwpm.storage_append_ms_per_site", "ms", each(traced, perSite(spanAppend))))
	add(summarize("openwpm.records_per_site", "count", each(traced, countPerSite(spanAppend))))
	add(summarize("browser.other_ms_per_site", "ms", each(traced, perSite(rowOther))))
	add(summarize("runtime.alloc_mb_per_site", "MB", each(twins, func(r *passResult) float64 {
		return float64(r.AllocBytes) / 1e6 / float64(max(r.Visits, 1))
	})))
	add(summarize("runtime.gc_cpu_fraction", "ratio", each(twins, func(r *passResult) float64 { return r.GCCPUFraction })))
	add(summarize("runtime.gc_cycles", "count", each(twins, func(r *passResult) float64 { return float64(r.GCCycles) })))
	add(summarize("scriptcache.hit_ratio", "ratio", each(twins, scriptHitRatio)))
	// each traced pass against the twin that ran just before it
	var overhead []float64
	for i := 0; i < min(len(traced), len(twins)); i++ {
		overhead = append(overhead, 100*(traced[i].WallS/twins[i].WallS-1))
	}
	add(summarize("trace_overhead_pct", "%", overhead))
	for _, p := range micro {
		for name, v := range p.Micro {
			add(summarize(name, microUnit(name), []float64{v}))
		}
	}
	if len(traced) == 0 {
		return
	}
	// the layer table of the first traced pass, with its accounting check
	doc.Layers = traced[0].Layers
	for _, r := range traced {
		if a := r.Layers.AccountedPct; a < 98 || a > 102 {
			doc.problemf("layer table accounts for %.2f%% of the traced wall time", a)
		}
	}
	addExtra(summarize("sched.merge_ms", "ms", each(traced, func(r *passResult) float64 { return r.Layers.SchedMergeMS })))
	addExtra(summarize("sched.shard_imbalance", "ratio", each(traced, func(r *passResult) float64 { return r.Layers.ShardImbalance })))
	for _, row := range doc.Layers.Rows {
		name := row.Layer
		addExtra(summarize("layer."+name+"_ms", "ms", each(traced, func(r *passResult) float64 { return r.Layers.row(name).TotalMS })))
	}
}

// microUnit is a microbenchmark's unit, from its name's suffix.
func microUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us_per_kb", "us/KB"}, {"_us_per_script", "us"}, {"_us_per_record", "us"},
		{"_us_per_site", "us"}, {"_us", "us"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "us"
}

// checkDigests applies the correctness gate. Every pass of a run crawls the
// same input, so every pass must store the digests the first one stored (one
// worker against every core, twin against traced); at the golden seed the
// first pass must also reproduce the committed digests.
func checkDigests(doc *workloadDoc, o runOpts) error {
	var first *passResult
	for _, p := range doc.Passes {
		if len(p.Digests) == 0 {
			continue
		}
		if first == nil {
			first = p
			continue
		}
		for k, d := range p.Digests {
			if d0, ok := first.Digests[k]; ok && d0 != d {
				doc.problemf("%s digest %s (%s w%d) differs from %s (%s w%d)",
					k, d, p.Kind, p.Workers, d0, first.Kind, first.Workers)
			}
		}
	}
	if o.seed != goldenSeed || o.smoke {
		return nil
	}
	if first == nil {
		doc.problemf("no pass produced a digest")
		return nil
	}
	all, err := goldens()
	if err != nil {
		return err
	}
	want, ok := all[doc.Name]
	if !ok {
		doc.problemf("no golden digests committed for %s", doc.Name)
		return nil
	}
	matched := 0
	for k, d := range first.Digests {
		g, ok := want[k]
		switch {
		case !ok:
		case g != d:
			doc.problemf("%s digest %s (%s pass) differs from the golden %s", k, d, first.Kind, g)
		default:
			matched++
		}
	}
	if matched == 0 {
		doc.problemf("the %s pass produced none of the golden digests", first.Kind)
	}
	return nil
}

// writeLayers merges one workload's layer table into dir/layers.json.
func writeLayers(dir string, doc *workloadDoc) error {
	path := filepath.Join(dir, "layers.json")
	tables := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &tables) // an unreadable table is replaced
	}
	tables[doc.Name] = struct {
		Table   *layerTable        `json:"table"`
		Metrics map[string]summary `json:"metrics"`
		Extras  map[string]summary `json:"extras,omitempty"`
	}{doc.Layers, doc.Metrics, doc.Extras}
	data, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
