package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFixtureTripsEveryRule runs the linter on the deliberate-violation
// fixture and checks each rule fires exactly where the fixture says it does.
// The expectation is per file: bad.go carries the original determinism-rule
// violations (whose counts are frozen — the framework port must not change
// them), and each rule added since has its own fixture file.
func TestFixtureTripsEveryRule(t *testing.T) {
	findings, err := LintDirs([]string{"testdata/src/bad"})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	got := map[string]map[string]int{}
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		if got[base] == nil {
			got[base] = map[string]int{}
		}
		got[base][f.Rule]++
	}
	want := map[string]map[string]int{
		"bad.go": {
			"wallclock":      1,
			"randseed":       1,
			"maprange":       1,
			"closecheck":     2,
			"servertimeouts": 2,
			"spanpair":       3,
		},
		"closeflow.go": {"closecheck": 2},
		"spanflow.go":  {"spanpair": 1},
		"leak.go":      {"goroutineleak": 2},
		"ctx.go":       {"ctxpropagate": 3},
		"locked.go":    {"lockedmutate": 1},
		"swallow.go":   {"errswallow": 2},
		"chan.go":      {"chanbuffer": 1},
		"driver.go":    {"onedriver": 3},
	}
	if !reflect.DeepEqual(got, want) {
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		t.Fatalf("per-file rule hits = %v, want %v\nfindings:\n%s", got, want, strings.Join(lines, "\n"))
	}
	for _, f := range findings {
		if f.Pos.Line == 0 {
			t.Errorf("%s finding has no position", f.Rule)
		}
	}
}

// TestSuppressions checks the inline-directive contract on its fixture: a
// justified //lint:ignore silences the finding (next-line and trailing
// forms), a bare one converts it into a "suppression" finding, and a
// directive two lines away covers nothing.
func TestSuppressions(t *testing.T) {
	findings, err := LintDirs([]string{"testdata/src/suppressed"})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	got := map[string]int{}
	for _, f := range findings {
		got[f.Rule]++
	}
	want := map[string]int{"suppression": 1, "wallclock": 1}
	if !reflect.DeepEqual(got, want) {
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		t.Fatalf("rule hits = %v, want %v\nfindings:\n%s", got, want, strings.Join(lines, "\n"))
	}
}

// TestLoadFailureIsError pins the bugfix: pointing the linter at a package
// that does not exist (or a directory without Go files) must surface an
// error, never a silent clean run.
func TestLoadFailureIsError(t *testing.T) {
	if _, err := ExpandDirs([]string{"testdata/src/no-such-pkg"}); err == nil {
		t.Errorf("ExpandDirs on a nonexistent path: want error, got nil")
	}
	if _, err := ExpandDirs([]string{"testdata/src/no-such-pkg/..."}); err == nil {
		t.Errorf("ExpandDirs on a nonexistent pattern root: want error, got nil")
	}
	if _, err := LintDirs([]string{"testdata"}); err == nil {
		t.Errorf("LintDirs on a Go-free directory: want error, got nil")
	}
}

// TestRepoIsClean is the invariant the linter exists for: the repo's
// packages break none of the registered rules.
func TestRepoIsClean(t *testing.T) {
	dirs, err := ExpandDirs([]string{"../..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	findings, err := LintDirs(dirs)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestExpandSkipsTestdata checks the "..." walk never descends into fixture
// trees — otherwise every full-repo run would trip on the bad package.
func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := ExpandDirs([]string{"./..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("pattern expansion descended into %s", d)
		}
	}
	// explicit naming still works — that is how the verify script self-tests
	dirs, err = ExpandDirs([]string{"testdata/src/bad"})
	if err != nil {
		t.Fatalf("expand explicit: %v", err)
	}
	if len(dirs) != 1 || dirs[0] != "testdata/src/bad" {
		t.Errorf("explicit testdata dir mangled: %v", dirs)
	}
}

// TestOneDriverAllowsTheDriver checks onedriver's exemption: the fixture
// package in a directory ending in internal/sched records bundles and
// traces without a finding.
func TestOneDriverAllowsTheDriver(t *testing.T) {
	findings, err := LintDirs([]string{"testdata/src/driver/internal/sched"})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding in the driver fixture: %s", f)
	}
}
