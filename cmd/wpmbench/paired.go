package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minPairedRuns is how many runs per side a paired comparison needs.
const minPairedRuns = 10

// Verdicts of a paired comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// decision is the paired-comparison verdict on one metric of one workload.
type decision struct {
	Verdict      string
	ParentMedian float64
	ChangeMedian float64
	// WorseBy is the change's median regression as a share of the parent's
	// (negative when the change is better).
	WorseBy float64
	// Spread is the wider side's interquartile range as a share of its
	// median.
	Spread float64
	Wins   int
	Pairs  int
}

// decide applies the benchmark's rule to parent and change runs, paired by
// index (runs alternated between the two sides):
//
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's spread exceeds the bound, unless every
//     change run beats every parent run;
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     parent's interquartile range;
//   - unchanged otherwise.
func decide(parent, change []float64, higherBetter bool, bound float64) decision {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	d := decision{ParentMedian: median(parent), ChangeMedian: median(change), Pairs: min(len(parent), len(change))}
	d.WorseBy = (d.ChangeMedian - d.ParentMedian) / math.Abs(d.ParentMedian)
	if higherBetter {
		d.WorseBy = -d.WorseBy
	}
	d.Spread = math.Max(iqr(parent)/math.Abs(d.ParentMedian), iqr(change)/math.Abs(d.ChangeMedian))
	for i := 0; i < d.Pairs; i++ {
		if better(change[i], parent[i]) {
			d.Wins++
		}
	}
	dominates := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				dominates = false
			}
		}
	}
	switch {
	case d.WorseBy > bound:
		d.Verdict = verdictWorse
	case d.Spread > bound && !dominates:
		d.Verdict = verdictUnresolved
	case 10*d.Wins >= 9*d.Pairs && better(d.ChangeMedian, d.ParentMedian) &&
		math.Abs(d.ChangeMedian-d.ParentMedian) > iqr(parent):
		d.Verdict = verdictImproved
	default:
		d.Verdict = verdictUnchanged
	}
	return d
}

// runValues is one untraced run of one workload, as read back from a saved
// document.
type runValues struct {
	started           int64
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// loadRuns reads every saved document (*.json) in dir, returning the
// untraced runs per workload, incorrect ones included, in the order they
// started.
func loadRuns(dir string) (map[string][]runValues, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]runValues{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		var doc document
		err = json.NewDecoder(fh).Decode(&doc)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, w := range doc.Workloads {
			if w.Trace {
				continue
			}
			rv := runValues{started: w.Started, correct: w.Correct, attempted: w.Attempted,
				failed: w.Failed, metrics: map[string]float64{}}
			for n, s := range w.Metrics {
				rv.metrics[n] = s.Value
			}
			out[w.Name] = append(out[w.Name], rv)
		}
	}
	for _, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].started < runs[j].started })
	}
	return out, nil
}

// compareMain is `wpmbench compare A/ B/`: A holds the parent's saved run
// documents and B the change's, at least minPairedRuns correct runs of a
// workload on each side, alternated. Per workload it prints a row comparing
// failures, then one row per end-to-end metric, and exits 1 when any row is
// worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wpmbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: wpmbench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "wpmbench compare:", err)
		return 2
	}
	parent, err := loadRuns(fs.Arg(0))
	if err == nil {
		var change map[string][]runValues
		if change, err = loadRuns(fs.Arg(1)); err == nil {
			return printComparison(stdout, spec, parent, change)
		}
	}
	fmt.Fprintln(stderr, "wpmbench compare:", err)
	return 2
}

// failures tallies a side's incorrect runs and failed operations.
func failures(runs []runValues) (incorrect, failed, attempted int) {
	for _, r := range runs {
		if !r.correct {
			incorrect++
		}
		failed += r.failed
		attempted += r.attempted
	}
	return incorrect, failed, attempted
}

// correctRuns drops the incorrect runs: their numbers measure a program that
// did not do the work.
func correctRuns(runs []runValues) []runValues {
	var out []runValues
	for _, r := range runs {
		if r.correct {
			out = append(out, r)
		}
	}
	return out
}

func printComparison(w io.Writer, spec *benchSpec, parent, change map[string][]runValues) int {
	fmt.Fprintf(w, "%-14s %-14s %-5s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent", "change", "worse%", "spread%", "wins", "verdict")
	code := 0
	for _, ws := range spec.Workloads {
		if len(parent[ws.Name]) == 0 && len(change[ws.Name]) == 0 {
			continue
		}
		// a change that makes more runs incorrect or more operations fail is
		// worse, whatever its timings say
		pi, pf, pa := failures(parent[ws.Name])
		ci, cf, ca := failures(change[ws.Name])
		verdict := verdictUnchanged
		if ci > pi || cf > pf {
			verdict = verdictWorse
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-14s %-5s %12s %12s %8s %8s %6s  %s\n", ws.Name, "failures", "count",
			fmt.Sprintf("%d/%d,%dbad", pf, pa, pi), fmt.Sprintf("%d/%d,%dbad", cf, ca, ci), "-", "-", "-", verdict)
		a, b := correctRuns(parent[ws.Name]), correctRuns(change[ws.Name])
		for _, m := range spec.EndToEnd {
			if len(a) < minPairedRuns || len(b) < minPairedRuns {
				fmt.Fprintf(w, "%-14s %-14s %-5s %12s %12s %8s %8s %6s  %s (%d vs %d correct runs, need %d)\n",
					ws.Name, m.Name, m.Unit, "-", "-", "-", "-", "-", verdictUnresolved, len(a), len(b), minPairedRuns)
				continue
			}
			n := min(len(a), len(b))
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i], cv[i] = a[i].metrics[m.Name], b[i].metrics[m.Name]
			}
			d := decide(pv, cv, m.Better == "higher", *m.Bound)
			if d.Verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %-5s %12.5g %12.5g %8.2f %8.2f %3d/%-2d  %s\n",
				ws.Name, m.Name, m.Unit, d.ParentMedian, d.ChangeMedian, 100*d.WorseBy, 100*d.Spread, d.Wins, d.Pairs, d.Verdict)
		}
	}
	return code
}
