package daemon

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gullible/internal/telemetry"
)

// metricHelp documents the daemon's own metric families on the /metrics
// exposition. Families without an entry render with no HELP line.
var metricHelp = map[string]string{
	"daemon_jobs_submitted_total":   "Job specs received by POST /v1/jobs.",
	"daemon_jobs_completed_total":   "Jobs sealed into the artifact cache.",
	"daemon_jobs_failed_total":      "Jobs that reached a terminal error.",
	"daemon_jobs_interrupted_total": "Jobs checkpointed mid-crawl by a drain.",
	"daemon_jobs_recovered_total":   "Queued jobs re-admitted after a restart.",
	"daemon_jobs_lost_total":        "Queue files dropped at a restart: undecodable, or not the spec their name addresses.",
	"daemon_jobs_coalesced_total":   "Submissions coalesced onto an identical in-flight job.",
	"daemon_jobs_rejected_total":    "Submissions rejected by queue depth or tenant budget.",
	"daemon_cache_hits_total":       "Submissions answered from the artifact cache.",
	"daemon_cache_misses_total":     "Submissions that missed the artifact cache.",
	"daemon_cache_corrupt_total":    "Replay sources that failed to decode or verify, evicted from the cache.",
	"daemon_event_drops_total":      "Job events dropped for slow SSE subscribers.",
	"daemon_queue_depth":            "Jobs currently queued.",
	"daemon_jobs_running":           "Jobs currently executing.",
	"daemon_cache_bytes":            "Artifact cache volume on disk.",
	"daemon_cache_entries":          "Artifact cache entry count.",
	"http_requests_total":           "HTTP requests by route.",
	"http_responses_total":          "HTTP responses by route and status code.",
	"http_inflight_requests":        "HTTP requests currently being served, by route.",
	"http_request_seconds":          "HTTP request latency by route (wall clock).",
	"script_cache_entries":          "Unique script bodies in the shared parse/compile cache.",
	"script_cache_programs":         "Compiled program variants (per content × URL) held by the cache.",
	"script_cache_hits_total":       "Script cache hits (program or analysis served without parsing).",
	"script_cache_misses_total":     "Script cache misses (script parsed, compiled or analysed).",
	"script_cache_collisions_total": "Hash-key collisions detected by source verification (served uncached).",
	"script_cache_evictions_total":  "Content entries evicted LRU at capacity.",
	"runtime_goroutines":            "Goroutines at scrape time.",
	"runtime_heap_alloc_bytes":      "Heap bytes allocated and still in use at scrape time.",
	"runtime_gc_cycles_total":       "Completed GC cycles at scrape time.",
}

// promEscapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline.
func promEscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promEscapeHelp escapes HELP text: backslash and newline (quotes are legal).
func promEscapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// splitSeriesKey inverts telemetry's seriesKey rendering: `name` or
// `name{k1=v1,k2=v2}` back into name and labels. Label values in this
// codebase are enum-like (kinds, reasons, shard indices) and never contain
// ',' or '=', which the split relies on; a malformed key degrades to a
// single opaque label rather than corrupting the exposition.
func splitSeriesKey(key string) (name string, labels []telemetry.Label) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:open]
	for _, part := range strings.Split(key[open+1:len(key)-1], ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			k, v = "label", part
		}
		labels = append(labels, telemetry.L(k, v))
	}
	return name, labels
}

// promSeries renders one sample line: bare `name value` for unlabeled series
// (the grep-friendly form the daemon smoke tests match), quoted-and-escaped
// labels otherwise. extra labels (le for histogram buckets) are appended.
func promSeries(name string, labels []telemetry.Label, value string, extra ...telemetry.Label) string {
	all := append(append([]telemetry.Label(nil), labels...), extra...)
	if len(all) == 0 {
		return name + " " + value
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteString("} ")
	b.WriteString(value)
	return b.String()
}

// promFamily groups one metric family's series for rendering.
type promFamily struct {
	name string
	kind string // counter | gauge | histogram
	rows []string
}

// renderProm writes the snapshot in the Prometheus text exposition format:
// families sorted by name, HELP and TYPE headers, escaped label values, and
// histograms expanded into cumulative _bucket{le=...}, _sum and _count rows.
func renderProm(w io.Writer, snap *telemetry.Snapshot) {
	fams := map[string]*promFamily{}
	family := func(name, kind string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		return f
	}
	// iterate every map in sorted key order: series keys embed sorted labels,
	// so this yields a deterministic exposition with histogram buckets kept
	// in ascending le order (a lexical row sort would scramble them)
	for _, key := range sortedKeys(snap.Counters) {
		name, labels := splitSeriesKey(key)
		f := family(name, "counter")
		f.rows = append(f.rows, promSeries(name, labels, strconv.FormatInt(snap.Counters[key], 10)))
	}
	for _, key := range sortedKeys(snap.Gauges) {
		name, labels := splitSeriesKey(key)
		f := family(name, "gauge")
		f.rows = append(f.rows, promSeries(name, labels, strconv.FormatInt(snap.Gauges[key], 10)))
	}
	for _, key := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[key]
		name, labels := splitSeriesKey(key)
		f := family(name, "histogram")
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			f.rows = append(f.rows, promSeries(name+"_bucket", labels,
				strconv.FormatInt(cum, 10), telemetry.L("le", formatBound(bound))))
		}
		f.rows = append(f.rows, promSeries(name+"_bucket", labels,
			strconv.FormatInt(h.Count, 10), telemetry.L("le", "+Inf")))
		f.rows = append(f.rows, promSeries(name+"_sum", labels,
			strconv.FormatFloat(float64(h.SumMicros)/1e6, 'g', -1, 64)))
		f.rows = append(f.rows, promSeries(name+"_count", labels,
			strconv.FormatInt(h.Count, 10)))
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if help, ok := metricHelp[n]; ok {
			fmt.Fprintf(w, "# HELP %s %s\n", n, promEscapeHelp(help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind)
		for _, row := range f.rows {
			fmt.Fprintln(w, row)
		}
	}
}

// sortedKeys returns a map's keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatBound renders a histogram bucket bound the way Prometheus expects
// (shortest float form).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
