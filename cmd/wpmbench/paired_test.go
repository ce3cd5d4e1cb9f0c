package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds n synthetic run values centred on base with a fixed jitter
// pattern of relative amplitude amp.
func runs(base, amp float64, n int) []float64 {
	jitter := []float64{0, 0.6, -0.4, 1, -1, 0.2, -0.8, 0.8, -0.2, 0.4, -0.6, 0.1}
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + amp*jitter[i%len(jitter)])
	}
	return out
}

func TestDecideRule(t *testing.T) {
	const bound = 0.05
	for _, c := range []struct {
		name         string
		parent       []float64
		change       []float64
		higherBetter bool
		want         string
	}{
		{"same distribution", runs(100, 0.01, 10), runs(100, 0.01, 10), false, verdictUnchanged},
		{"slower beyond the bound", runs(100, 0.01, 10), runs(110, 0.01, 10), false, verdictWorse},
		{"throughput drop beyond the bound", runs(100, 0.01, 10), runs(90, 0.01, 10), true, verdictWorse},
		{"clearly faster", runs(100, 0.01, 10), runs(95, 0.01, 10), false, verdictImproved},
		{"clearly higher throughput", runs(100, 0.01, 10), runs(104, 0.01, 10), true, verdictImproved},
		{"noisy and close", runs(100, 0.10, 10), runs(99, 0.10, 10), false, verdictUnresolved},
		{"noisy but every change run better", runs(100, 0.06, 10), runs(80, 0.06, 10), false, verdictImproved},
		{"gap inside the parent's spread", runs(100, 0.02, 10), runs(99, 0.02, 10), false, verdictUnchanged},
	} {
		if got := decide(c.parent, c.change, c.higherBetter, bound); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (%+v), want %s", c.name, got.Verdict, got, c.want)
		}
	}

	// improved needs nine tenths of the pairs: two lost pairs out of ten
	// keep a better median "unchanged"
	parent := runs(100, 0.01, 10)
	change := runs(97, 0.01, 10)
	change[0], change[1] = 102, 103
	if got := decide(parent, change, false, bound); got.Verdict != verdictUnchanged || got.Wins != 8 {
		t.Errorf("8/10 wins: verdict %s with %d wins, want unchanged with 8", got.Verdict, got.Wins)
	}
}

// TestCompareCommand drives `wpmbench compare` over saved run documents.
func TestCompareCommand(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	write := func(dir string, i int, scale float64, failed int) {
		metrics := map[string]summary{}
		for _, m := range spec.EndToEnd {
			v := 100 * (1 + 0.002*float64(i%3))
			if m.Name == "op_ms_p90" {
				v *= scale
			}
			metrics[m.Name] = summary{Name: m.Name, Unit: m.Unit, Value: v}
		}
		doc := document{Workloads: []*workloadDoc{{Name: "scan", Correct: failed == 0, Started: int64(i),
			Attempted: 100, Failed: failed, Metrics: metrics}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%02d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// verdicts runs compare over one parent and one change directory and
	// returns the exit code and each row's verdict
	verdicts := func(changeScale float64, changeFailed func(i int) int) (int, map[string]string) {
		a, b := t.TempDir(), t.TempDir()
		for i := 0; i < minPairedRuns+1; i++ {
			write(a, 2*i, 1, 0)
			write(b, 2*i+1, changeScale, changeFailed(i))
		}
		var out, errb bytes.Buffer
		code := run([]string{"compare", a, b}, &out, &errb)
		rows := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "scan" {
				rows[f[1]] = f[len(f)-1]
			}
		}
		if len(rows) != len(spec.EndToEnd)+1 {
			t.Fatalf("rows %v\n%s%s", rows, out.String(), errb.String())
		}
		return code, rows
	}

	// p90 latency 50% worse: that row alone is worse
	code, rows := verdicts(1.5, func(int) int { return 0 })
	if code != 1 {
		t.Errorf("exit %d, want 1 for a worse row", code)
	}
	for name, v := range rows {
		want := verdictUnchanged
		if name == "op_ms_p90" {
			want = verdictWorse
		}
		if v != want {
			t.Errorf("%s: %s, want %s", name, v, want)
		}
	}

	// identical timings, but one change run failed an operation: the
	// failures row is worse, and the metrics compare the correct runs only
	code, rows = verdicts(1, func(i int) int {
		if i == 3 {
			return 1
		}
		return 0
	})
	if code != 1 || rows["failures"] != verdictWorse || rows["op_ms_p90"] != verdictUnchanged {
		t.Errorf("exit %d, rows %v: want exit 1 with only the failures row worse", code, rows)
	}
}
