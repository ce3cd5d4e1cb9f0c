package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"gullible/internal/scriptcache"
)

// Every measured pass runs in a fresh child process, a re-exec of this
// binary: the process-wide script cache and the scheduler's crawl-scoped GC
// tuning start cold, as they do on every wpmscan run. The parent sends the
// pass spec on the child's stdin and reads its result from the child's
// stdout; the child's stderr passes through.
const (
	childEnv = "WPMBENCH_CHILD"
	// execEnv carries the wall-clock time (Unix ns) at which the parent
	// started the child: set-up time runs from there to the end of the
	// pass's set-up (passResult.ready), covering runtime start, package
	// initialisation and the workload's own set-up.
	execEnv = "WPMBENCH_EXEC_UNIX_NS"
	// childTimeout bounds one pass; a pass that hangs is killed.
	childTimeout = 150 * time.Second
)

// Pass kinds.
const (
	kindSetup   = "setup"   // a measuring pass that stops once set up
	kindWarmup  = "warmup"  // a measuring pass whose timings are not used
	kindMeasure = "measure" // untraced pass through the public entry point
	kindTwin    = "twin"    // the traced pass's code path with tracing off
	kindTraced  = "traced"  // wrappers and spans on
	kindMicro   = "micro"   // layer microbenchmarks
	kindCalib   = "calib"   // the machine-speed reference kernel
)

// passSpec tells a child what to run.
type passSpec struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Size     sizes  `json:"size"`
	SpansOut string `json:"spans_out,omitempty"`
}

// passResult is what a child reports.
type passResult struct {
	Kind     string  `json:"kind"`
	Workers  int     `json:"workers"`
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	CPUMS    float64 `json:"cpu_ms"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	// Visits counts page-visiting sites (a compare pair visits two).
	Visits int `json:"visits"`

	LatMS []float64 `json:"lat_ms,omitempty"`
	// Series are named latency samples (ms) pooled across passes.
	Series   map[string][]float64 `json:"series,omitempty"`
	Digests  map[string]string    `json:"digests,omitempty"`
	Extras   map[string]float64   `json:"extras,omitempty"`
	Problems []string             `json:"problems,omitempty"`

	AllocBytes    uint64  `json:"alloc_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	ScriptHits    int64   `json:"script_cache_hits"`
	ScriptMisses  int64   `json:"script_cache_misses"`

	Layers *layerTable        `json:"layers,omitempty"`
	Micro  map[string]float64 `json:"micro,omitempty"`
}

// ready ends the pass's set-up: set-up time runs from the child's exec to
// here. It reports whether the pass is a set-up probe, which stops here.
func (r *passResult) ready(spec passSpec, execNS int64) bool {
	if execNS > 0 {
		r.SetupS = float64(time.Now().UnixNano()-execNS) / 1e9
	}
	return spec.Kind == kindSetup
}

func (r *passResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *passResult) extra(name string, v float64) {
	if r.Extras == nil {
		r.Extras = map[string]float64{}
	}
	r.Extras[name] = v
}

func (r *passResult) digest(name, d string) {
	if r.Digests == nil {
		r.Digests = map[string]string{}
	}
	r.Digests[name] = d
}

// spawn runs one pass in a child process and waits for it to exit.
func spawn(ctx context.Context, spec passSpec) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), childEnv+"=1",
		execEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s pass: %w", spec.Workload, spec.Kind, err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s %s pass: decode result: %w", spec.Workload, spec.Kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// childMain is the child side of spawn.
func childMain(stdin io.Reader, stdout io.Writer) int {
	var spec passSpec
	if err := json.NewDecoder(stdin).Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "wpmbench child: decode spec:", err)
		return 2
	}
	execNS, _ := strconv.ParseInt(os.Getenv(execEnv), 10, 64)
	res, err := runPass(spec, execNS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpmbench child: %s %s pass: %v\n", spec.Workload, spec.Kind, err)
		return 1
	}
	res.Kind, res.Workers = spec.Kind, spec.Workers
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "wpmbench child: encode result:", err)
		return 1
	}
	return 0
}

// runPass dispatches a pass to its workload.
func runPass(spec passSpec, execNS int64) (*passResult, error) {
	if n := runtime.NumCPU(); spec.Workers > n || spec.Size.DaemonClients > n {
		return nil, fmt.Errorf("%d workers and %d clients asked for on %d CPUs", spec.Workers, spec.Size.DaemonClients, n)
	}
	switch spec.Kind {
	case kindMicro:
		return runMicro(spec, execNS)
	case kindCalib:
		return runCalibrate(spec, execNS)
	}
	w, ok := workloads[spec.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	switch spec.Kind {
	case kindSetup, kindWarmup, kindMeasure:
		return w.measure(spec, execNS)
	case kindTwin, kindTraced:
		return w.traced(spec, execNS, spec.Kind == kindTraced)
	}
	return nil, fmt.Errorf("unknown pass kind %q", spec.Kind)
}

// meter brackets a pass's measured section: wall time, CPU time,
// allocation, GC cycles and script-cache traffic are taken as deltas across
// it.
type meter struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	sc0  scriptcache.Stats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.sc0 = scriptcache.Shared.Snapshot()
	m.cpu0 = cpuMS()
	m.t0 = time.Now()
	return m
}

// stop closes the measured section and records it on r.
func (m *meter) stop(r *passResult) {
	r.WallS = time.Since(m.t0).Seconds()
	r.CPUMS = cpuMS() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sc := scriptcache.Shared.Snapshot()
	r.AllocBytes = ms.TotalAlloc - m.ms0.TotalAlloc
	r.GCCycles = ms.NumGC - m.ms0.NumGC
	r.GCCPUFraction = ms.GCCPUFraction
	r.ScriptHits = sc.Hits - m.sc0.Hits
	r.ScriptMisses = sc.Misses - m.sc0.Misses
}

// cpuMS is this process's user+system CPU time so far, in milliseconds.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
