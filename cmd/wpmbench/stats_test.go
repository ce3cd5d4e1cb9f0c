package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain lets the test binary serve as its own pass child: spawn re-execs
// os.Executable(), which under go test is this binary. The tests run from
// the checkout's root, as the benchmark does, so BENCHMARK.json is found
// where wpmbench looks for it.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// reference values from statistics.quantiles(xs, n=4)
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{0.5, 2.5, 1.25, 9, 4, 4, 7.5}, 1.25, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (nearest rank)", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	// a percentile needs at least ten samples beyond its rank
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false},
		{1000, 99, true}, {999, 99, false}, {1000, 99.9, false}, {10000, 99.9, true},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := percentileName(99.9); got != "p99.9" {
		t.Errorf("percentileName(99.9) = %q", got)
	}
}
