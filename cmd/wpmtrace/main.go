// Command wpmtrace analyses flight-recorder trace files — the JSON-lines span
// streams emitted by wpmscan -trace, persisted by wpmd as job artifacts, and
// served at GET /v1/jobs/{id}/trace.
//
//	wpmtrace tree       crawl.trace.jsonl          span tree, indented
//	wpmtrace critical   crawl.trace.jsonl          critical path from the longest root
//	wpmtrace top        -n 10 -name visit FILE     slowest spans, longest first
//	wpmtrace hist       -name visit FILE           per-name duration histograms
//	wpmtrace summary    FILE                       event/span totals per name
//	wpmtrace diff       record.jsonl replay.jsonl  structural diff (empty for deterministic replays)
//
// FILE may be "-" (or omitted) to read stdin. diff exits nonzero when the
// traces differ, like diff(1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gullible/internal/telemetry"
	"gullible/internal/trace"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wpmtrace <tree|critical|top|hist|summary|diff> [flags] [file]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "tree":
		err = cmdTree(os.Args[2:])
	case "critical":
		err = withTree(os.Args[2:], "critical", func(t *trace.Tree, _ *flag.FlagSet) {
			t.RenderCriticalPath(os.Stdout)
		})
	case "top":
		err = cmdTop(os.Args[2:])
	case "hist":
		err = cmdHist(os.Args[2:])
	case "summary":
		err = withTree(os.Args[2:], "summary", func(t *trace.Tree, _ *flag.FlagSet) {
			t.RenderSummary(os.Stdout)
		})
	case "diff":
		err = cmdDiff(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpmtrace %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// readEvents loads a trace from the flag set's positional argument, which
// defaults to stdin ("-" also means stdin).
func readEvents(fs *flag.FlagSet) ([]telemetry.SpanEvent, error) {
	path := fs.Arg(0)
	var r io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return telemetry.ReadTrace(r)
}

// withTree parses flags, builds the tree and hands it to render.
func withTree(args []string, name string, render func(*trace.Tree, *flag.FlagSet)) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Parse(args)
	events, err := readEvents(fs)
	if err != nil {
		return err
	}
	render(trace.Build(events), fs)
	return nil
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	depth := fs.Int("depth", 0, "maximum tree depth to render (0 = unlimited)")
	fs.Parse(args)
	events, err := readEvents(fs)
	if err != nil {
		return err
	}
	trace.Build(events).RenderTree(os.Stdout, *depth)
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 10, "how many spans to list")
	name := fs.String("name", "", "restrict to spans with this name (empty = all)")
	fs.Parse(args)
	events, err := readEvents(fs)
	if err != nil {
		return err
	}
	trace.Build(events).RenderSlowest(os.Stdout, *name, *n)
	return nil
}

func cmdHist(args []string) error {
	fs := flag.NewFlagSet("hist", flag.ExitOnError)
	name := fs.String("name", "", "restrict to spans with this name (empty = all)")
	fs.Parse(args)
	events, err := readEvents(fs)
	if err != nil {
		return err
	}
	trace.Build(events).RenderHistograms(os.Stdout, *name)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff takes exactly two trace files")
	}
	read := func(path string) ([]telemetry.SpanEvent, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return telemetry.ReadTrace(f)
	}
	a, err := read(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := read(fs.Arg(1))
	if err != nil {
		return err
	}
	deltas := trace.Diff(a, b)
	for _, d := range deltas {
		fmt.Println(d)
	}
	fmt.Printf("%d deltas across %d/%d events\n", len(deltas), len(a), len(b))
	if len(deltas) > 0 {
		os.Exit(1) // diff convention: nonzero when the inputs differ
	}
	return nil
}
