package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads computed here
// and by Python's statistics module agree digit for digit. A single sample has no
// spread: both quartiles are that sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// iqr is the distance between the quartiles of xs.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// percentile is the nearest-rank p-th percentile of xs (p in (0, 100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	// the epsilon keeps float error from rounding an exact rank up
	// (99.9% of 10000 is 9990, not 9991)
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer is an extrapolation from a handful of outliers.
const minBeyond = 10

// supports reports whether n samples support the p-th percentile, i.e. leave
// at least minBeyond samples above its rank.
func supports(n int, p float64) bool {
	return n-rankOf(n, p) >= minBeyond
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestSupported is the highest tail percentile n samples support (0 when
// even the median lacks minBeyond samples beyond it).
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// percentileName renders p as a metric-name suffix: 50 → "p50", 99.9 → "p99.9".
func percentileName(p float64) string {
	return fmt.Sprintf("p%g", p)
}

// summary is one metric as the benchmark reports it: the value the metric
// stands for plus the spread of its per-pass samples.
type summary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Per    []float64 `json:"samples,omitempty"`
}

// summarize reports per-pass samples by their median. No samples yields a
// zero summary with N == 0 (JSON cannot carry NaN).
func summarize(name, unit string, samples []float64) summary {
	s := summary{Name: name, Unit: unit, N: len(samples), Per: samples}
	if len(samples) == 0 {
		return s
	}
	ss := sorted(samples)
	s.Median = median(ss)
	s.Min, s.Max = ss[0], ss[len(ss)-1]
	s.Value = s.Median
	return s
}

// scaled is s with every value multiplied by f (f > 0).
func (s summary) scaled(f float64) summary {
	s.Value *= f
	s.Median *= f
	s.Min *= f
	s.Max *= f
	per := make([]float64, len(s.Per))
	for i, v := range s.Per {
		per[i] = v * f
	}
	s.Per = per
	return s
}
