package lint

import (
	"flag"
	"fmt"
	"io"
)

// Main is the wpmlint driver, factored out of cmd/wpmlint so tests can run
// the whole CLI surface — flag, formats, exit codes — against in-memory
// writers.
//
// Exit codes are part of the contract scripts build on:
//
//	0  clean
//	1  findings
//	2  usage error (unknown flag, unknown format)
//	3  load failure (missing package, Go-free directory, pattern matching
//	   no package, parse error)
//
// 3 is distinct from 1 on purpose: a linter that cannot load what it was
// pointed at must fail loudly, not report "clean" — the same gullibility
// failure mode the paper documents in measurement tools. Before this split,
// load failures shared an exit code with usage errors and a `|| true`-style
// wrapper could not tell them apart.
func Main(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wpmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or sarif")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		args = []string{"./internal/..."}
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "wpmlint: unknown format %q (have text, sarif)\n", *format)
		return 2
	}

	dirs, err := ExpandDirs(args)
	if err != nil {
		fmt.Fprintf(stderr, "wpmlint: %v\n", err)
		return 3
	}
	findings, err := LintDirs(dirs)
	if err != nil {
		fmt.Fprintf(stderr, "wpmlint: %v\n", err)
		return 3
	}
	if *format == "sarif" {
		if err := WriteSARIF(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "wpmlint: %v\n", err)
			return 3
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if *format == "text" {
			fmt.Fprintf(stderr, "wpmlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
