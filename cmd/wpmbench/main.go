package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// specFile is the benchmark spec, read from the working directory: the root
// of a checkout.
const specFile = "BENCHMARK.json"

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// envDoc records what the numbers were measured on. wpmbench never sets
// GOGC or GOMAXPROCS for its children: the scheduler's own GC tuning is part
// of what is measured, and an operator's GOGC is recorded, not overridden.
type envDoc struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc_env"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Dirty      *bool  `json:"dirty"`
	WorkersMax int    `json:"workers_max"`
	Clients    int    `json:"daemon_clients"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Smoke      bool   `json:"smoke"`
	Sizes      sizes  `json:"sizes"`
}

// document is everything one invocation measured.
type document struct {
	Benchmark string         `json:"benchmark"`
	Env       envDoc         `json:"env"`
	Workloads []*workloadDoc `json:"workloads"`
}

// resultLine is the last line of standard output: the run's verdict and the
// spec's metrics (end-to-end, or per-layer with -trace 1).
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("wpmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: every workload in the spec)")
	seed := fs.Int64("seed", goldenSeed, "input seed; the committed golden digests are for the default")
	seconds := fs.Int("seconds", 0, "measuring time per workload (default: the spec's run_seconds)")
	trace := fs.Int("trace", 0, "1: traced run reporting the spec's per-layer metrics")
	out := fs.String("out", "", "untraced: write the JSON document to this file; traced: write <workload>.spans.jsonl and layers.json under this directory")
	smoke := fs.Bool("smoke", false, "tiny inputs, every code path in a few seconds; no golden check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: wpmbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out PATH] [-smoke]\n       wpmbench compare A/ B/")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "wpmbench:", err)
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	// never more workers or clients than cores the process may use
	o.wmax = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	clients := min(2, o.wmax)
	o.size = fullSizes(clients)
	if o.smoke {
		o.size = smokeSizes(clients)
		o.seconds = 0 // the minimum number of steps only
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	if o.trace {
		o.outDir = *out
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				fmt.Fprintln(stderr, "wpmbench:", err)
				return 2
			}
		}
	}
	doc := &document{Benchmark: "wpmbench", Env: captureEnv(o, clients)}
	ctx := context.Background()
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	for _, name := range names {
		fmt.Fprintf(stderr, "wpmbench: %s (seed %d, %ds, trace %v)\n", name, o.seed, o.seconds, o.trace)
		wd, err := runWorkload(ctx, name, spec, o)
		if err != nil {
			fmt.Fprintln(stderr, "wpmbench:", err)
			return 1
		}
		if err := checkMetrics(want, wd.Metrics); err != nil {
			wd.problemf("%v", err)
			wd.Correct = false
		}
		for _, m := range want {
			if s, ok := wd.Metrics[m.Name]; ok && s.N == 0 {
				wd.problemf("metric %s has no samples", m.Name)
				wd.Correct = false
			}
		}
		if o.trace && o.outDir != "" {
			if err := writeLayers(o.outDir, wd); err != nil {
				fmt.Fprintln(stderr, "wpmbench:", err)
				return 1
			}
		}
		for _, p := range wd.Problems {
			fmt.Fprintf(stderr, "wpmbench: %s: %s\n", name, p)
		}
		doc.Workloads = append(doc.Workloads, wd)
		line.Correct = line.Correct && wd.Correct
		line.Attempted += wd.Attempted
		line.Failed += wd.Failed
		for _, m := range want {
			line.Metrics[m.Name] = metricValue{Value: wd.Metrics[m.Name].Value, Unit: m.Unit}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "wpmbench:", err)
		return 1
	}
	if !o.trace && *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "wpmbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if len(names) == 1 {
		last, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "wpmbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", last)
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// captureEnv records the machine, toolchain, commit and run settings.
func captureEnv(o runOpts, clients int) envDoc {
	e := envDoc{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: "unset",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		WorkersMax: o.wmax, Clients: clients,
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke, Sizes: o.size,
	}
	if v, ok := os.LookupEnv("GOGC"); ok {
		e.GOGC = v
	}
	e.Commit, e.Dirty = gitState()
	return e
}

// gitState is the checkout's HEAD and whether tracked files differ from it;
// empty and nil when the working directory is not a git checkout's root
// (git is not asked to search the directories above it).
func gitState() (string, *bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "", nil
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", nil
	}
	commit := strings.TrimSpace(string(head))
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return commit, nil
	}
	dirty := len(strings.TrimSpace(string(status))) > 0
	return commit, &dirty
}
