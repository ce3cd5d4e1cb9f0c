package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the benchmark's command, workloads and
// metrics. The metric lists are what any comparison of two commits reads, so
// a run whose metrics differ from them is reported incorrect (see
// checkMetrics); a spec outside its limits is refused before anything runs.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Limits on BENCHMARK.json.
const (
	maxSpecBytes  = 64 << 10
	maxWorkloads  = 8
	maxEndToEnd   = 16
	maxPerLayer   = 128
	maxPaths      = 16
	maxCommand    = 32
	maxBound      = 0.25
	maxRunSeconds = 60
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadSpec reads and validates a BENCHMARK.json file.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	return parseSpec(data)
}

// parseSpec decodes BENCHMARK.json and checks every limit on it: exact key
// sets, name and unit syntax, list sizes, bounds, and the setup_s metric.
func parseSpec(data []byte) (*benchSpec, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("spec: %d bytes, limit %d", len(data), maxSpecBytes)
	}
	if err := exactKeys(data, "spec", "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"); err != nil {
		return nil, err
	}
	var raw struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for i, w := range raw.Workloads {
		if err := exactKeys(w, fmt.Sprintf("workloads[%d]", i), "name", "why"); err != nil {
			return nil, err
		}
	}
	for i, m := range raw.EndToEnd {
		if err := exactKeys(m, fmt.Sprintf("end_to_end[%d]", i), "name", "unit", "better", "bound"); err != nil {
			return nil, err
		}
	}
	for i, m := range raw.PerLayer {
		if err := exactKeys(m, fmt.Sprintf("per_layer[%d]", i), "name", "unit", "better"); err != nil {
			return nil, err
		}
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, s.validate()
}

// exactKeys checks that data is a JSON object with exactly the given keys.
func exactKeys(data []byte, what string, keys ...string) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
		if _, ok := obj[k]; !ok {
			return fmt.Errorf("%s: missing key %q", what, k)
		}
	}
	for k := range obj {
		if !want[k] {
			return fmt.Errorf("%s: unexpected key %q", what, k)
		}
	}
	return nil
}

func (s *benchSpec) validate() error {
	if n := len(s.Command); n < 1 || n > maxCommand {
		return fmt.Errorf("spec: command has %d entries, want 1..%d", n, maxCommand)
	}
	for _, c := range s.Command {
		if len(c) > 200 || c == "" {
			return fmt.Errorf("spec: command entry %q must be 1..200 characters", c)
		}
		if strings.HasPrefix(c, "/") || hasDotDot(c) {
			return fmt.Errorf("spec: command entry %q leaves the checkout", c)
		}
		if strings.Contains(c, "/") && !s.underPaths(c) {
			return fmt.Errorf("spec: command entry %q names a file outside paths", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > maxPaths {
		return fmt.Errorf("spec: %d paths, want 1..%d", n, maxPaths)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || hasDotDot(p) {
			return fmt.Errorf("spec: bad path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > maxRunSeconds {
		return fmt.Errorf("spec: run_seconds %d, want 1..%d", s.RunSeconds, maxRunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("spec: %d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(s.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(s.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("spec: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("spec: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("spec: workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	metric := func(m metricSpec, bounded bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("spec: metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("spec: metric %s: better must be higher or lower", m.Name)
		}
		if bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound) {
			return fmt.Errorf("spec: metric %s: bound must be in (0, %g]", m.Name, maxBound)
		}
		return nil
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("spec: end_to_end must hold setup_s with unit s and better lower")
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}

func hasDotDot(p string) bool {
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return true
		}
	}
	return false
}

func (s *benchSpec) underPaths(p string) bool {
	for _, root := range s.Paths {
		if p == root || strings.HasPrefix(p, strings.TrimSuffix(root, "/")+"/") {
			return true
		}
	}
	return false
}

// workload returns the named workload's spec entry.
func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// checkMetrics verifies that a run measured exactly the metrics the spec
// lists, each in the spec's unit.
func checkMetrics(want []metricSpec, got map[string]summary) error {
	var missing, extra []string
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, spec says %s", m.Name, g.Unit, m.Unit)
		}
	}
	for n := range got {
		if !names[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics disagree with the spec: missing %v, not in spec %v", missing, extra)
	}
	return nil
}
