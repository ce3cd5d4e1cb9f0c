package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func fmtMS(ms float64) string {
	switch {
	case ms >= 60_000:
		return fmt.Sprintf("%.1fmin", ms/60_000)
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	default:
		return fmt.Sprintf("%.1fms", ms)
	}
}

func attrString(s *Span) string {
	var parts []string
	for _, l := range s.Attrs {
		parts = append(parts, l.Key+"="+l.Value)
	}
	for _, l := range s.EndAttrs {
		parts = append(parts, l.Key+"="+l.Value)
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}

func spanLine(s *Span) string {
	switch {
	case s.NoBegin:
		return fmt.Sprintf("%s ..%s (begin dropped)%s", s.Name, fmtMS(s.End), attrString(s))
	case s.Open:
		return fmt.Sprintf("%s %s.. (open)%s", s.Name, fmtMS(s.Start), attrString(s))
	default:
		return fmt.Sprintf("%s %s..%s (%s)%s", s.Name, fmtMS(s.Start), fmtMS(s.End), fmtMS(s.Duration()), attrString(s))
	}
}

// RenderTree writes the span forest as an indented tree, one span per line.
// maxDepth <= 0 renders everything.
func (t *Tree) RenderTree(w io.Writer, maxDepth int) {
	t.Walk(func(s *Span, depth int) {
		if maxDepth > 0 && depth >= maxDepth {
			return
		}
		fmt.Fprintf(w, "%s%s\n", strings.Repeat("  ", depth), spanLine(s))
	})
}

// RenderCriticalPath writes the critical path from the longest root, each
// step with its share of the root's duration.
func (t *Tree) RenderCriticalPath(w io.Writer) {
	path := t.CriticalPath(nil)
	if len(path) == 0 {
		fmt.Fprintln(w, "empty trace")
		return
	}
	total := path[0].Duration()
	for i, s := range path {
		share := ""
		if total > 0 {
			share = fmt.Sprintf(" %5.1f%%", 100*s.Duration()/total)
		}
		fmt.Fprintf(w, "%s%s%s\n", strings.Repeat("  ", i), spanLine(s), share)
	}
}

// RenderSlowest writes the n slowest spans named name (all names when empty).
func (t *Tree) RenderSlowest(w io.Writer, name string, n int) {
	for i, s := range t.Slowest(name, n) {
		fmt.Fprintf(w, "%2d. %s\n", i+1, spanLine(s))
	}
}

// histBounds is the 1-2.5-5 decade ladder for duration histograms, in ms.
var histBounds = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
}

// RenderHistograms writes a per-name duration histogram for every span name
// (or just name, when non-empty). Incomplete spans are counted but excluded
// from the buckets.
func (t *Tree) RenderHistograms(w io.Writer, name string) {
	byName := map[string][]*Span{}
	for _, s := range t.Spans() {
		if name != "" && s.Name != name {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		spans := byName[n]
		counts := make([]int, len(histBounds)+1)
		var complete int
		var min, max, sum float64
		for _, s := range spans {
			if s.NoBegin || s.Open {
				continue
			}
			d := s.Duration()
			if complete == 0 || d < min {
				min = d
			}
			if d > max {
				max = d
			}
			sum += d
			complete++
			i := sort.SearchFloat64s(histBounds, d)
			if i < len(histBounds) && histBounds[i] == d {
				i++ // buckets are [lo, hi): a duration on a bound goes up
			}
			counts[i]++
		}
		fmt.Fprintf(w, "%s: %d spans", n, len(spans))
		if complete > 0 {
			fmt.Fprintf(w, " (min %s, mean %s, max %s)", fmtMS(min), fmtMS(sum/float64(complete)), fmtMS(max))
		}
		if truncated := len(spans) - complete; truncated > 0 {
			fmt.Fprintf(w, " [%d incomplete]", truncated)
		}
		fmt.Fprintln(w)
		peak := 0
		for _, c := range counts {
			if c > peak {
				peak = c
			}
		}
		for i, c := range counts {
			if c == 0 {
				continue
			}
			lo, hi := "0", ""
			if i > 0 {
				lo = fmtMS(histBounds[i-1])
			}
			if i < len(histBounds) {
				hi = fmtMS(histBounds[i])
			} else {
				hi = "+inf"
			}
			bar := strings.Repeat("#", 1+c*39/peak)
			fmt.Fprintf(w, "  [%8s, %8s) %s %d\n", lo, hi, bar, c)
		}
	}
}

// RenderSummary writes trace-wide totals: event and span counts, per-name
// tallies with total duration, and the overall virtual extent.
func (t *Tree) RenderSummary(w io.Writer) {
	spans := t.Spans()
	var open, noBegin int
	byName := map[string]struct {
		count int
		total float64
	}{}
	var lo, hi float64
	first := true
	for _, s := range spans {
		if s.Open {
			open++
		}
		if s.NoBegin {
			noBegin++
		}
		agg := byName[s.Name]
		agg.count++
		agg.total += s.Duration()
		byName[s.Name] = agg
		if first || s.Start < lo {
			lo = s.Start
		}
		if first || s.End > hi {
			hi = s.End
		}
		first = false
	}
	fmt.Fprintf(w, "%d events, %d spans, %d roots, virtual extent %s\n",
		t.Events, len(spans), len(t.Roots), fmtMS(hi-lo))
	if open > 0 || noBegin > 0 {
		fmt.Fprintf(w, "incomplete: %d open, %d begin-dropped\n", open, noBegin)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		agg := byName[n]
		fmt.Fprintf(w, "  %-14s %6d spans  %10s total\n", n, agg.count, fmtMS(agg.total))
	}
}
