package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func readSpec(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBenchmarkSpecIsValid(t *testing.T) {
	spec, err := parseSpec(readSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	// every workload in the spec runs here and vice versa, and every
	// workload has its golden digests
	g, err := goldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("spec workload %s has no implementation", w.Name)
		}
		if len(g[w.Name]) == 0 {
			t.Errorf("no golden digests for %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("spec lists %d workloads, wpmbench implements %d", len(spec.Workloads), len(workloads))
	}
}

// mutate applies f to the decoded spec and re-encodes it.
func mutate(t *testing.T, f func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(readSpec(t), &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func list(m map[string]any, key string) []any { return m[key].([]any) }

func entry(m map[string]any, key string, i int) map[string]any {
	return list(m, key)[i].(map[string]any)
}

func grow(m map[string]any, key string, n int) {
	l := list(m, key)
	for i := len(l); i < n; i++ {
		e := map[string]any{}
		for k, v := range l[0].(map[string]any) {
			e[k] = v
		}
		e["name"] = fmt.Sprintf("extra%d", i)
		l = append(l, e)
	}
	m[key] = l
}

func TestBenchmarkSpecRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(map[string]any)
		want string
	}{
		{"bad name", func(m map[string]any) { entry(m, "end_to_end", 0)["name"] = "ops per s" }, "bad name"},
		{"duplicate name", func(m map[string]any) { entry(m, "per_layer", 1)["name"] = entry(m, "per_layer", 0)["name"] }, "used twice"},
		{"nine workloads", func(m map[string]any) { grow(m, "workloads", 9) }, "workloads"},
		{"seventeen end-to-end metrics", func(m map[string]any) { grow(m, "end_to_end", 17) }, "end-to-end"},
		{"129 layer metrics", func(m map[string]any) { grow(m, "per_layer", 129) }, "per-layer"},
		{"bound too loose", func(m map[string]any) { entry(m, "end_to_end", 0)["bound"] = 0.3 }, "bound"},
		{"layer metric with a bound", func(m map[string]any) { entry(m, "per_layer", 0)["bound"] = 0.1 }, "unexpected key"},
		{"unknown top-level key", func(m map[string]any) { m["goldens"] = map[string]any{} }, "unexpected key"},
		{"no setup_s", func(m map[string]any) {
			for _, e := range list(m, "end_to_end") {
				if e.(map[string]any)["name"] == "setup_s" {
					e.(map[string]any)["name"] = "setup_time"
				}
			}
		}, "setup_s"},
		{"command outside paths", func(m map[string]any) { m["command"] = []any{"sh", "scripts/bench_scan.sh"} }, "outside paths"},
		{"command leaving the checkout", func(m map[string]any) { m["command"] = []any{"sh", "../run.sh"} }, "leaves the checkout"},
		{"bad unit", func(m map[string]any) { entry(m, "per_layer", 0)["unit"] = "milli seconds" }, "unit"},
		{"multi-line why", func(m map[string]any) { entry(m, "workloads", 0)["why"] = "a\nb" }, "one line"},
	} {
		_, err := parseSpec(mutate(t, c.f))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
