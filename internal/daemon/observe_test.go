package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gullible/internal/telemetry"
)

// --- Prometheus exposition ---------------------------------------------------

func TestRenderPromConformance(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("daemon_cache_hits_total").Inc()
	reg.Counter("http_requests_total", telemetry.L("route", "/metrics")).Add(3)
	// label values with every character the format requires escaping
	reg.Counter("weird_total", telemetry.L("v", "a\\b\"c\nd")).Inc()
	reg.Gauge("daemon_queue_depth").Set(7)
	h := reg.Histogram("http_request_seconds", []float64{0.1, 0.5}, telemetry.L("route", "/healthz"))
	h.Observe(0.05)
	h.Observe(0.2)
	h.Observe(2)

	var b strings.Builder
	renderProm(&b, reg.Snapshot())
	out := b.String()

	for _, want := range []string{
		"# HELP daemon_cache_hits_total Submissions answered from the artifact cache.\n",
		"# TYPE daemon_cache_hits_total counter\n",
		// unlabeled series stay bare name-value (the wpmd smoke greps this form)
		"daemon_cache_hits_total 1\n",
		"# TYPE daemon_queue_depth gauge\n",
		"daemon_queue_depth 7\n",
		`http_requests_total{route="/metrics"} 3` + "\n",
		// escaped label value: \ -> \\, " -> \", newline -> \n
		`weird_total{v="a\\b\"c\nd"} 1` + "\n",
		"# TYPE http_request_seconds histogram\n",
		`http_request_seconds_bucket{route="/healthz",le="0.1"} 1` + "\n",
		`http_request_seconds_bucket{route="/healthz",le="0.5"} 2` + "\n",
		`http_request_seconds_bucket{route="/healthz",le="+Inf"} 3` + "\n",
		`http_request_seconds_count{route="/healthz"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// _sum carries the observed seconds (0.05 + 0.2 + 2, micros-rounded)
	if !strings.Contains(out, `http_request_seconds_sum{route="/healthz"} 2.25`) {
		t.Errorf("exposition missing _sum row\n%s", out)
	}
	// cumulative buckets must appear in ascending le order, not lexical
	if strings.Index(out, `le="0.1"`) > strings.Index(out, `le="0.5"`) ||
		strings.Index(out, `le="0.5"`) > strings.Index(out, `le="+Inf"`) {
		t.Errorf("histogram buckets out of le order\n%s", out)
	}
	// rendering must be deterministic
	var b2 strings.Builder
	renderProm(&b2, reg.Snapshot())
	if b2.String() != out {
		t.Error("renderProm is not deterministic across identical snapshots")
	}
}

func TestSplitSeriesKey(t *testing.T) {
	for _, tc := range []struct {
		key, name string
		labels    int
	}{
		{"plain_total", "plain_total", 0},
		{"reqs{route=/v1/jobs}", "reqs", 1},
		{"reqs{a=1,b=2}", "reqs", 2},
		{"broken{", "broken{", 0},
	} {
		name, labels := splitSeriesKey(tc.key)
		if name != tc.name || len(labels) != tc.labels {
			t.Errorf("splitSeriesKey(%q) = %q/%d labels, want %q/%d", tc.key, name, len(labels), tc.name, tc.labels)
		}
	}
}

func TestMetricsEndpointFormats(t *testing.T) {
	d := openTest(t, t.TempDir(), telemetry.New())
	defer d.Drain()
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	// default: Prometheus text with runtime gauges merged at scrape time
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, res)
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{"runtime_goroutines ", "runtime_heap_alloc_bytes ", "runtime_gc_cycles_total ", "# TYPE runtime_goroutines gauge"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	// Accept: application/json returns the canonical snapshot document
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := readAll(t, res2)
	if ct := res2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type %q", ct)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(jbody), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if snap.Gauges["runtime_goroutines"] == 0 {
		t.Error("runtime gauges missing from the JSON snapshot")
	}
	// the middleware counted both scrapes
	if snap.Counters[`http_requests_total{route=/metrics}`] < 1 {
		t.Errorf("middleware did not count /metrics requests: %v", snap.Counters)
	}
}

func readAll(t *testing.T, res *http.Response) (string, int) {
	t.Helper()
	defer res.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	return b.String(), res.StatusCode
}

// --- event hub ---------------------------------------------------------------

func TestEventHubReplayAndDrops(t *testing.T) {
	drops := telemetry.NewRegistry().Counter("drops")
	h := newEventHub(drops)
	for i := 0; i < 5; i++ {
		h.publish(JobEvent{Type: "progress", Done: i + 1, Total: 5})
	}
	replay, ch, cancel := h.subscribe(2) // Last-Event-ID = 2
	if len(replay) != 3 || replay[0].Seq != 3 || replay[2].Seq != 5 {
		t.Fatalf("replay after seq 2: %+v", replay)
	}
	h.publish(JobEvent{Type: "state", State: JobRunning})
	if ev := <-ch; ev.Seq != 6 || ev.Type != "state" {
		t.Fatalf("live event %+v", ev)
	}
	cancel()
	cancel() // idempotent

	// a slow subscriber loses events without blocking the publisher
	_, slow, slowCancel := h.subscribe(h.seq)
	defer slowCancel()
	for i := 0; i < subBuffer+10; i++ {
		h.publish(JobEvent{Type: "progress", Done: i})
	}
	if drops.Value() != 10 {
		t.Fatalf("drop counter = %d, want 10", drops.Value())
	}
	// the buffer still holds the first subBuffer events in order
	if ev := <-slow; ev.Type != "progress" {
		t.Fatalf("slow subscriber got %+v", ev)
	}

	// close ends every stream; subscribing afterwards yields replay + closed ch
	h.close()
	if _, ok := <-slow; ok {
		// drain until closed
		for range slow {
		}
	}
	replay2, ch2, cancel2 := h.subscribe(0)
	defer cancel2()
	if len(replay2) == 0 {
		t.Fatal("post-close subscribe lost the replay ring")
	}
	if _, ok := <-ch2; ok {
		t.Fatal("post-close subscribe channel not closed")
	}
	h.publish(JobEvent{Type: "state"}) // no-op, must not panic
}

func TestEventHubRingBound(t *testing.T) {
	h := newEventHub(telemetry.NewRegistry().Counter("drops"))
	for i := 0; i < hubReplay*2; i++ {
		h.publish(JobEvent{Type: "progress", Done: i})
	}
	replay, _, cancel := h.subscribe(0)
	defer cancel()
	if len(replay) != hubReplay {
		t.Fatalf("ring holds %d events, want %d", len(replay), hubReplay)
	}
	if replay[0].Seq != int64(hubReplay+1) {
		t.Fatalf("oldest retained seq %d, want %d", replay[0].Seq, hubReplay+1)
	}
}

// --- SSE streaming -----------------------------------------------------------

// sseEvent is one decoded frame off the wire.
type sseEvent struct {
	id    string
	event string
	data  JobEvent
}

func readSSE(t *testing.T, body *bufio.Scanner, out chan<- sseEvent) {
	t.Helper()
	var cur sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Errorf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			out <- cur
			cur = sseEvent{}
		}
	}
	close(out)
}

func TestJobEventStreamSSE(t *testing.T) {
	d := openTest(t, t.TempDir(), telemetry.New())
	defer d.Drain()
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	st, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 6, MaxSubpages: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan sseEvent, 4096)
	go readSSE(t, bufio.NewScanner(res.Body), events)

	var states []JobState
	var progress int
	deadline := time.After(120 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// stream closed by the terminal state
				goto done
			}
			switch ev.event {
			case "state":
				states = append(states, ev.data.State)
			case "progress":
				progress++
			default:
				t.Errorf("unexpected %q event", ev.event)
			}
		case <-deadline:
			t.Fatal("SSE stream never closed")
		}
	}
done:
	if len(states) == 0 || states[len(states)-1] != JobDone {
		t.Fatalf("states %v, want trailing %s", states, JobDone)
	}
	if progress == 0 {
		t.Error("no progress events streamed")
	}

	// a consumer attaching after completion gets the terminal state, then
	// the job's whole stream replayed from the ring: seqs 1..N with no gap,
	// state and progress events only, ending in done
	res2, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	late := make(chan sseEvent, 16)
	go readSSE(t, bufio.NewScanner(res2.Body), late)
	var lateEvents []sseEvent
	for ev := range late {
		lateEvents = append(lateEvents, ev)
	}
	if len(lateEvents) < 2 || lateEvents[0].data.State != JobDone {
		t.Fatalf("late subscriber events: %+v", lateEvents)
	}
	for i, ev := range lateEvents[1:] {
		if want := strconv.Itoa(i + 1); ev.id != want || ev.data.Seq != int64(i+1) {
			t.Fatalf("late event %d has id %q seq %d, want %s (replay must start at 1 with no gaps)", i+1, ev.id, ev.data.Seq, want)
		}
		if ev.event != "state" && ev.event != "progress" {
			t.Fatalf("late event %d is %q, want state or progress", i+1, ev.event)
		}
	}
	if last := lateEvents[len(lateEvents)-1]; last.event != "state" || last.data.State != JobDone {
		t.Fatalf("replay ends with %+v, want the done state", last)
	}

	// unknown jobs 404
	res3, err := http.Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, code := readAll(t, res3); code != http.StatusNotFound {
		t.Fatalf("unknown job stream returned %d", code)
	}
}

// --- trace artifacts ---------------------------------------------------------

// TestTraceArtifactIdentity is the observability acceptance path: a job's
// sealed trace must be byte-identical between a cold run, a warm cache hit
// after a restart, and a run interrupted by a drain and resumed from its WAL.
func TestTraceArtifactIdentity(t *testing.T) {
	spec := JobSpec{Kind: KindCrawl, NumSites: 40, MaxSubpages: 1}

	// cold reference run
	ref := openTest(t, t.TempDir(), telemetry.New())
	refSt, err := ref.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, refSt.ID)
	refTrace, refMeta, ok := ref.Artifact(refSt.ID + traceSuffix)
	if !ok || len(refTrace) == 0 {
		t.Fatal("cold run sealed no trace artifact")
	}
	if refMeta.Kind != "trace" || refMeta.ContentType != "application/x-ndjson" {
		t.Fatalf("trace meta %+v", refMeta)
	}
	ref.Drain()

	// warm hit: restart over the same dir, resubmit, read the cached trace
	dir := t.TempDir()
	d1 := openTest(t, dir, telemetry.New())
	st, err := d1.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d1, st.ID)
	d1.Drain()
	d2 := openTest(t, dir, telemetry.New())
	warm, err := d2.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatalf("restarted submit missed the cache: %+v", warm)
	}
	warmTrace, _, ok := d2.Artifact(st.ID + traceSuffix)
	if !ok {
		t.Fatal("warm hit lost the trace artifact")
	}
	if !bytes.Equal(warmTrace, refTrace) {
		t.Fatal("warm-hit trace differs from the cold run's")
	}
	srv := httptest.NewServer(Handler(d2))
	res, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, code := readAll(t, res)
	if code != http.StatusOK || body != string(refTrace) {
		t.Fatalf("GET trace: code %d, %d bytes (want %d)", code, len(body), len(refTrace))
	}
	if res.Header.Get("X-Artifact-Digest") != refMeta.Digest {
		t.Fatalf("trace digest header %q, want %q", res.Header.Get("X-Artifact-Digest"), refMeta.Digest)
	}
	srv.Close()
	d2.Drain()

	// interrupted run: drain mid-crawl, restart, recover from the WAL
	dir3 := t.TempDir()
	tel := telemetry.New()
	d3 := openTest(t, dir3, tel)
	st3, err := d3.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for tel.Snapshot().Gauges["crawl_progress_done"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("crawl never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d3.Drain()
	d4 := openTest(t, dir3, telemetry.New())
	defer d4.Drain()
	done := waitDone(t, d4, st3.ID)
	if done.State != JobDone {
		t.Fatalf("recovered job finished as %+v", done)
	}
	recTrace, _, ok := d4.Artifact(st3.ID + traceSuffix)
	if !ok {
		t.Fatal("recovered run sealed no trace artifact")
	}
	if !bytes.Equal(recTrace, refTrace) {
		t.Fatal("drain/restart-recovered trace differs from the cold run's")
	}
}

// TestReplayJobSealsTrace checks the replay execution path also records and
// seals a span trace next to its verdict artifact.
func TestReplayJobSealsTrace(t *testing.T) {
	d := openTest(t, t.TempDir(), telemetry.New())
	defer d.Drain()
	rec, err := d.Submit(smallCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, d, rec.ID); st.State != JobDone {
		t.Fatalf("record job: %+v", st)
	}
	rep, err := d.Submit(JobSpec{Kind: KindReplay, Source: rec.ID, Variant: "none"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, d, rep.ID); st.State != JobDone {
		t.Fatalf("replay job: %+v", st)
	}
	data, meta, ok := d.Artifact(rep.ID + traceSuffix)
	if !ok || len(data) == 0 || meta.Kind != "trace" {
		t.Fatalf("replay trace artifact: ok=%v meta=%+v", ok, meta)
	}
}
