package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeRun runs one workload end to end through child processes and
// checks the result line's shape.
func TestSmokeRun(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-smoke", "-workload", "scan", "-seed", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("result line %+v", res)
	}
	for _, m := range spec.EndToEnd {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("metric %s: %+v", m.Name, v)
		}
	}
}

// TestSmokeTraceAllWorkloads runs every workload's traced pass and checks
// the span files and the layer table land in the output directory.
func TestSmokeTraceAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-out", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	var doc document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tables map[string]json.RawMessage
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if !w.Correct {
			t.Errorf("%s: %v", w.Name, w.Problems)
		}
		if _, err := os.Stat(filepath.Join(dir, w.Name+".spans.jsonl")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if tables[w.Name] == nil {
			t.Errorf("layers.json has no table for %s", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("traced %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
}
