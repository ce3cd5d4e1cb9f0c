package trace

import (
	"strings"
	"testing"

	"gullible/internal/telemetry"
)

// flightEvents records a small two-shard-like trace by hand.
func sampleEvents() []telemetry.SpanEvent {
	f := telemetry.NewFlight(64)
	crawl := f.Begin("crawl", 0, 0, telemetry.L("sites", "2"))
	v1 := f.Begin("visit", crawl, 0, telemetry.L("site", "https://a.example/"))
	p1 := f.Begin("page-load", v1, 0)
	f.End(p1, "page-load", 1000)
	f.End(v1, "visit", 5000, telemetry.L("outcome", "completed"))
	v2 := f.Begin("visit", crawl, 5000, telemetry.L("site", "https://b.example/"))
	f.End(v2, "visit", 17000, telemetry.L("outcome", "completed"))
	f.End(crawl, "crawl", 17000, telemetry.L("completed", "2"))
	return f.Events()
}

func TestBuildTree(t *testing.T) {
	tree := Build(sampleEvents())
	if len(tree.Roots) != 1 {
		t.Fatalf("want 1 root, got %d", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Name != "crawl" || root.Duration() != 17000 {
		t.Fatalf("bad root: %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("want 2 visits under crawl, got %d", len(root.Children))
	}
	if got := root.Children[0].Children[0].Name; got != "page-load" {
		t.Fatalf("want page-load grandchild, got %q", got)
	}
	if got := root.Children[1].Attr("site"); got != "https://b.example/" {
		t.Fatalf("attr lookup: %q", got)
	}
	if root.Open || root.NoBegin {
		t.Fatal("completed root flagged incomplete")
	}
}

func TestBuildRingTruncated(t *testing.T) {
	// an end whose begin was overwritten becomes a NoBegin root; a begin
	// whose parent was overwritten becomes a root itself
	events := []telemetry.SpanEvent{
		{Kind: "E", Span: 7, Name: "visit", AtMS: 100},
		{Kind: "B", Span: 9, Parent: 3, Name: "visit", AtMS: 200},
	}
	tree := Build(events)
	if len(tree.Roots) != 2 {
		t.Fatalf("want 2 roots, got %d", len(tree.Roots))
	}
	if !tree.Roots[0].NoBegin || tree.Roots[0].Duration() != 0 {
		t.Fatalf("dropped-begin span: %+v", tree.Roots[0])
	}
	if !tree.Roots[1].Open {
		t.Fatalf("never-ended span: %+v", tree.Roots[1])
	}
}

func TestCriticalPath(t *testing.T) {
	tree := Build(sampleEvents())
	path := tree.CriticalPath(nil)
	names := make([]string, len(path))
	for i, s := range path {
		names[i] = s.Name
	}
	// the second visit ends with the crawl, so it is the critical child
	want := []string{"crawl", "visit"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("critical path %v, want %v", names, want)
	}
	if path[1].Attr("site") != "https://b.example/" {
		t.Fatalf("critical visit is %s", path[1].Attr("site"))
	}
}

func TestSlowest(t *testing.T) {
	tree := Build(sampleEvents())
	top := tree.Slowest("visit", 1)
	if len(top) != 1 || top[0].Duration() != 12000 {
		t.Fatalf("slowest visit: %+v", top)
	}
	all := tree.Slowest("", 0)
	if len(all) != 4 {
		t.Fatalf("want 4 spans total, got %d", len(all))
	}
	if all[0].Name != "crawl" {
		t.Fatalf("longest span is %s", all[0].Name)
	}
}

func TestDiffEmptyOnIdentical(t *testing.T) {
	a, b := sampleEvents(), sampleEvents()
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical traces diff: %v", d)
	}
}

func TestDiffFindsDeltas(t *testing.T) {
	a := sampleEvents()
	b := sampleEvents()
	b[3].AtMS += 1 // shift one timestamp
	d := Diff(a, b)
	if len(d) != 1 || d[0].Index != 3 || !strings.Contains(d[0].What, "ts") {
		t.Fatalf("diff: %v", d)
	}
	// dropped tail event
	d = Diff(a, a[:len(a)-1])
	if len(d) != 1 || !strings.Contains(d[0].What, "length mismatch") {
		t.Fatalf("diff: %v", d)
	}
	// different attr value
	c := sampleEvents()
	c[1].Attrs = []telemetry.Label{telemetry.L("site", "https://evil.example/")}
	d = Diff(a, c)
	if len(d) != 1 || !strings.Contains(d[0].What, "attr") {
		t.Fatalf("diff: %v", d)
	}
}

func TestJobWrap(t *testing.T) {
	crawl := sampleEvents()
	wrapped := Job(crawl, telemetry.L("job", "abc123"))
	tree := Build(wrapped)
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "job" {
		t.Fatalf("job trace roots: %+v", tree.Roots)
	}
	job := tree.Roots[0]
	if job.Attr("job") != "abc123" {
		t.Fatalf("job attrs: %+v", job.Attrs)
	}
	var phases []string
	for _, c := range job.Children {
		phases = append(phases, c.Name)
	}
	want := []string{"submit", "queue", "execute", "seal"}
	if len(phases) != 4 {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases %v, want %v", phases, want)
		}
	}
	execute := job.Children[2]
	if len(execute.Children) != 1 || execute.Children[0].Name != "crawl" {
		t.Fatalf("crawl not reparented under execute: %+v", execute.Children)
	}
	if execute.Duration() != 17000 || job.Duration() != 17000 {
		t.Fatalf("execute %v job %v, want crawl extent", execute.Duration(), job.Duration())
	}
	// deterministic: wrapping the same crawl twice is byte-identical
	again := Job(crawl, telemetry.L("job", "abc123"))
	if d := Diff(wrapped, again); len(d) != 0 {
		t.Fatalf("job wrap not deterministic: %v", d)
	}
	// original events must not be mutated by the id shift
	if d := Diff(crawl, sampleEvents()); len(d) != 0 {
		t.Fatalf("Job mutated its input: %v", d)
	}
}

func TestRenderers(t *testing.T) {
	tree := Build(sampleEvents())
	var b strings.Builder
	tree.RenderTree(&b, 0)
	out := b.String()
	for _, want := range []string{"crawl 0.0ms..17.00s (17.00s)", "  visit", "    page-load"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	tree.RenderTree(&b, 1)
	if strings.Contains(b.String(), "visit") {
		t.Fatalf("depth-limited tree leaked children:\n%s", b.String())
	}
	b.Reset()
	tree.RenderCriticalPath(&b)
	if !strings.Contains(b.String(), "100.0%") {
		t.Fatalf("critical path output:\n%s", b.String())
	}
	b.Reset()
	tree.RenderHistograms(&b, "visit")
	if !strings.Contains(b.String(), "visit: 2 spans") {
		t.Fatalf("histogram output:\n%s", b.String())
	}
	b.Reset()
	tree.RenderSummary(&b)
	if !strings.Contains(b.String(), "8 events, 4 spans, 1 roots") {
		t.Fatalf("summary output:\n%s", b.String())
	}
	b.Reset()
	tree.RenderSlowest(&b, "", 2)
	if !strings.Contains(b.String(), " 1. crawl") {
		t.Fatalf("slowest output:\n%s", b.String())
	}
}
