package minjs

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenPath holds the frozen reference semantics of the engine: for every
// case, the six observable channels recorded when the tree-walking
// interpreter was the live oracle. There is deliberately no update flag —
// a diff against this file is a semantics change and must be justified.
const goldenPath = "testdata/engine.golden.json"

// outcome captures everything observable about one program run: the
// completion value, the error string, the step and alloc counters that end
// up embedded in crawl artifacts, the full property-access hook sequence
// (the ground-truth oracle the analysis layer feeds on) and console output.
type outcome struct {
	Value   string   `json:"value"`
	Error   string   `json:"error,omitempty"`
	Steps   int64    `json:"steps"`
	Allocs  int64    `json:"allocs"`
	Hooks   []string `json:"hooks,omitempty"`
	Console []string `json:"console,omitempty"`
}

// goldenCase is one frozen program and its recorded outcome. Name is
// "group/case"; StepLimit 0 means the interpreter default.
type goldenCase struct {
	Name      string `json:"name"`
	Src       string `json:"src"`
	StepLimit int64  `json:"step_limit,omitempty"`
	outcome
}

// goldenCases returns every frozen case, in file order.
func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var all []goldenCase
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatalf("decode %s: %v", goldenPath, err)
	}
	return all
}

// goldenGroup returns the frozen cases named group/*, in file order.
func goldenGroup(t testing.TB, group string) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, c := range goldenCases(t) {
		if strings.HasPrefix(c.Name, group+"/") {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no golden cases in group %q", group)
	}
	return out
}

// runOutcome executes prog on a fresh realm and records all six channels;
// the run's error is returned as well as recorded.
func runOutcome(prog *Program, stepLimit int64) (outcome, error) {
	it := New()
	it.StepLimit = stepLimit
	var hooks []string
	it.PropAccessHook = func(owner *Object, key string) {
		hooks = append(hooks, owner.Class+"."+key)
	}
	v, err := it.RunProgram(prog)
	o := outcome{
		Value:   v.TypeOf() + ":" + v.ToString(),
		Steps:   it.Steps(),
		Allocs:  it.Allocs(),
		Hooks:   hooks,
		Console: it.ConsoleLog,
	}
	if err != nil {
		o.Error = err.Error()
	}
	return o, err
}

// checkGolden runs c and fails on any channel that differs from the frozen
// record.
func checkGolden(t *testing.T, c goldenCase) {
	t.Helper()
	prog, err := Parse(c.Src, "case.js")
	if err != nil {
		t.Fatalf("%s: parse: %v", c.Name, err)
	}
	got, _ := runOutcome(prog, c.StepLimit)
	if !reflect.DeepEqual(got, c.outcome) {
		t.Errorf("%s diverges from %s\nsrc:\n%s\n got: %+v\nwant: %+v",
			c.Name, goldenPath, c.Src, got, c.outcome)
	}
}

// checkGroup replays every frozen case of one group, each as a subtest
// named after the case.
func checkGroup(t *testing.T, group string) {
	for _, c := range goldenGroup(t, group) {
		t.Run(strings.TrimPrefix(c.Name, group+"/"), func(t *testing.T) {
			checkGolden(t, c)
		})
	}
}
