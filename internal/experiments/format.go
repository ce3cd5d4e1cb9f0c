// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation: the fingerprint-surface tables (2–4), the
// detector-incidence scan (Tables 5–7, 11–13, Figures 3–5), the WPM vs
// WPM_hide comparison (Tables 8–10, Figure 6), the literature tallies
// (Tables 1, 14, 15) and the prototype-pollution illustration (Figure 2).
// Each runner returns a Table that renders the same rows/series the paper
// reports, alongside the paper's values where the comparison is meaningful.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringable cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func pct(part, whole int) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}

func diffPct(base, val int) string {
	if base == 0 {
		return "n/a"
	}
	d := 100 * (float64(val) - float64(base)) / float64(base)
	return fmt.Sprintf("%+.2f%%", d)
}

func check(b bool) string {
	if b {
		return "✓"
	}
	return "–"
}
