// Package lint implements wpmlint, a stdlib-only static analyser (go/ast +
// go/types + the internal/lint/cfg dataflow layer) that mechanically enforces
// the repo's reliability invariants. The paper's thesis is that measurement
// tools drift from their assumed behaviour unless the assumptions are
// *checked*; wpmlint is where this repo checks its own.
//
// The determinism family (established by PRs 1–3):
//
//   - wallclock: no time.Now/Since/Until in crawl-path packages; the crawl
//     runs on virtual time, and a wall-clock read anywhere in it breaks
//     record→replay identity.
//   - randseed: math/rand only through seeded constructors (the
//     minjs Interp.Reseed pattern: rand.New(rand.NewSource(seed))); the
//     package-level functions draw from a process-global, unseeded source.
//   - maprange: no map iteration feeding a serialiser inside canonical
//     encoders (Digest/Snapshot/canonicalJSON/Marshal*); Go randomises map
//     order, so such output is nondeterministic unless keys are sorted
//     first. Collecting keys into a slice (then sorting) stays legal.
//   - closecheck: no discarded error from Close/Sync/Flush calls that return
//     one, and no Close error captured into a variable that no path ever
//     reads (flow-sensitive via reaching definitions). On a written file the
//     Close (or Sync/Flush) error IS the write error of record. `defer
//     f.Close()` stays legal (the read-path idiom) and `_ = f.Close()` is an
//     explicit, visible discard.
//   - servertimeouts: no http.Server composite literal without read, write
//     and idle timeouts, and no bare http.ListenAndServe (which cannot set
//     any).
//   - spanpair: a flight-recorder span opened with .Begin(...) must reach an
//     .End(...) call on every control-flow path to the function's exit
//     (checked over the CFG; a defer covers every path, and the false arm of
//     an `if span != 0` guard counts as closed). Span ids that escape the
//     function are out of scope: the receiver owns the End.
//
// The concurrency/reliability family (aimed at the daemon, its SSE event
// hubs, and the sharded scheduler):
//
//   - goroutineleak: a goroutine whose body loops forever (`for` with no
//     condition) with no exit path at all — no return, no break, no panic —
//     can never be shut down: no done channel, context or WaitGroup will
//     ever stop it.
//   - ctxpropagate: a function that takes a context.Context must not then
//     block without it: time.Sleep, context-free net/http helpers
//     (http.Get & friends) and bare channel receives outside a select
//     ignore the cancellation the caller handed in.
//   - lockedmutate: a struct field written both while holding the struct's
//     mutex and outside it is a data race waiting for the race detector (or
//     production) to find; every write site must agree on the locking
//     discipline.
//   - errswallow: an error-returning call whose result vanishes at statement
//     position, or a `_ =` discard with no adjacent comment justifying it,
//     silently converts failures into false measurements — the exact
//     gullibility the paper measures in OpenWPM.
//   - chanbuffer: a blocking channel send inside a loop and outside any
//     select stalls the producer forever once the consumer stops; fan-out
//     paths (the event hub) must use a select with a default or cancel arm.
//
// The architecture family:
//
//   - onedriver: sched.Run is the one driver of every crawl. Outside
//     internal/sched, internal/bundle and internal/telemetry nothing calls
//     bundle.NewRecorder, bundle.Finalize or telemetry.NewFlight: a crawl
//     that records a bundle or a trace some other way bypasses the
//     driver's sharding, merge and seal.
//
// Inline suppressions: `//lint:ignore <rule[,rule]> <justification>` on (or
// immediately above) the offending line suppresses the finding; an empty
// justification is itself a finding (rule "suppression") — silencing a
// reliability invariant requires writing down why.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// LintDirs lints the packages in the given directories (after pattern
// expansion — see ExpandDirs) with every registered rule and returns all
// findings sorted by position. Test files are not linted: tests may
// legitimately use wall clocks and unseeded randomness. Any load failure — an
// unreadable or Go-free directory, an unparseable file — is an error, never a
// silent skip: a linter that cannot load what it was pointed at must not
// report "clean".
func LintDirs(dirs []string) ([]Finding, error) {
	var findings []Finding
	for _, dir := range dirs {
		fs, err := lintDir(dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

// ExpandDirs resolves CLI arguments into lintable directories: a plain path
// names itself; a path ending in "/..." walks recursively. Walked testdata
// trees are skipped (they hold deliberate violations), but naming a testdata
// directory explicitly lints it — that is how the self-test fixture runs.
// A nonexistent root, or a pattern that walks to no Go package, is an error
// (a load failure the driver exits 3 on): linting nothing is not "clean".
func ExpandDirs(args []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, a := range args {
		root, rec := a, false
		if strings.HasSuffix(a, "/...") {
			root, rec = strings.TrimSuffix(a, "/..."), true
		}
		if st, err := os.Stat(root); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a, err)
		} else if !st.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a directory", root)
		}
		if !rec {
			add(root)
			continue
		}
		matched := false
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					add(path)
					matched = true
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !matched {
			return nil, fmt.Errorf("lint: %s matches no Go package", a)
		}
	}
	return out, nil
}

// lintDir parses and leniently type-checks one directory's package and
// applies every rule. The go tool allows one package per directory outside
// _test.go files, so the directory's files type-check together.
func lintDir(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: load %s: %w", dir, err)
	}
	var files []*ast.File
	anyGo := false
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		anyGo = true
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if !anyGo {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if len(files) == 0 {
		return nil, nil // only test files: nothing to lint
	}
	p := loadPackage(fset, files[0].Name.Name, files)
	for _, r := range Rules {
		r.Check(p)
	}
	return applySuppressions(p.Fset, p.Files, p.findings), nil
}

// lenientImporter resolves what it can from compiled stdlib packages and
// fabricates empty packages for everything else (module-local imports are
// not compiled when the linter runs), so type-checking always proceeds.
type lenientImporter struct{ std types.Importer }

func (im lenientImporter) Import(path string) (*types.Package, error) {
	if p, err := im.std.Import(path); err == nil {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p, nil
}

// loadPackage type-checks one package leniently and builds its Pass (type
// info, import tables, package fact store) without running any rules.
func loadPackage(fset *token.FileSet, name string, files []*ast.File) *Pass {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer:         lenientImporter{importer.Default()},
		Error:            func(error) {}, // fabricated imports cause benign errors
		IgnoreFuncBodies: false,
	}
	// best effort: with fabricated imports some expressions stay untyped;
	// rules that need types skip what they cannot resolve
	conf.Check(name, fset, files, info)
	return newPass(fset, name, files, info)
}
