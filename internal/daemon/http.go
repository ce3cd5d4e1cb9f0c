package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"

	"gullible/internal/scriptcache"
	"gullible/internal/telemetry"
)

// Handler builds the daemon's HTTP API:
//
//	POST /v1/jobs                submit a job spec (JSON body); 200 with a
//	                             cached status on a hit, 202 on admission,
//	                             400 on a bad spec, 429 + Retry-After when
//	                             the queue or the tenant budget is full,
//	                             503 while draining
//	GET  /v1/jobs/{id}           job status by content address
//	GET  /v1/jobs/{id}/artifact  sealed artifact bytes (X-Artifact-Digest
//	                             header carries the integrity digest); 409
//	                             naming why a known job has none (not sealed
//	                             yet, failed, or evicted)
//	GET  /v1/jobs/{id}/trace     the job's sealed span trace (JSON lines;
//	                             analyse with wpmtrace)
//	GET  /v1/jobs/{id}/events    live job event stream (SSE): state
//	                             transitions and crawl progress;
//	                             Last-Event-ID resumes from the replay ring
//	GET  /healthz                liveness; 503 while draining
//	GET  /metrics                telemetry snapshot plus runtime gauges;
//	                             Prometheus text exposition by default,
//	                             canonical JSON with ?format=json or
//	                             Accept: application/json
//	GET  /debug/pprof/*          profiling, only with Config.EnablePprof
//
// Every route is wrapped in telemetry middleware: http_requests_total and
// http_inflight_requests per route, plus http_request_seconds latency
// histograms when Config.NowNanos is injected.
//
// The tenant identity for budget accounting comes from the X-Tenant header
// (empty = the anonymous tenant). Handler returns a mux, not a server: the
// caller owns listener lifecycle and MUST set Read/Write/Idle timeouts on
// its http.Server (the wpmlint servertimeouts rule enforces this for
// in-repo callers). Note the write timeout bounds how long an SSE stream
// can stay open.
func Handler(d *Daemon) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h func(*Daemon, http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(pattern, d.instrument(name, func(w http.ResponseWriter, r *http.Request) {
			h(d, w, r)
		}))
	}
	route("POST /v1/jobs", "/v1/jobs", handleSubmit)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", handleStatus)
	route("GET /v1/jobs/{id}/artifact", "/v1/jobs/{id}/artifact", serveArtifact("", "artifact"))
	route("GET /v1/jobs/{id}/trace", "/v1/jobs/{id}/trace", serveArtifact(traceSuffix, "trace"))
	route("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", handleEvents)
	route("GET /healthz", "/healthz", handleHealth)
	route("GET /metrics", "/metrics", handleMetrics)
	if d.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response code for the middleware's per-code
// counters while passing Flusher (SSE needs it) and ReaderFrom (artifact
// downloads need it to reach sendfile) through.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(w.ResponseWriter, r)
}

// requestSecondsBuckets is the latency histogram layout for HTTP handlers:
// sub-millisecond cache hits up to multi-minute crawls awaited via SSE.
var requestSecondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

// instrument wraps a handler in per-route telemetry: request counter,
// in-flight gauge, and — when the binary injected a clock — a latency
// histogram and per-status-code response counters. The daemon never reads
// the wall clock itself (crawl time is virtual; the wpmlint wallclock rule
// enforces this), so without Config.NowNanos latency is simply not observed.
func (d *Daemon) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if !d.tel.Enabled() {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		label := telemetry.L("route", route)
		d.tel.Counter("http_requests_total", label).Inc()
		inflight := d.tel.Gauge("http_inflight_requests", label)
		inflight.Add(1)
		defer inflight.Add(-1)
		now := d.cfg.NowNanos
		if now == nil {
			h(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := now()
		h(sw, r)
		d.tel.Histogram("http_request_seconds", requestSecondsBuckets, label).
			Observe(float64(now()-start) / 1e9)
		d.tel.Counter("http_responses_total", label, telemetry.L("code", strconv.Itoa(sw.code))).Inc()
	}
}

// httpError is the uniform JSON error envelope.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// a failed response write means the client hung up; nobody is listening
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// a failed response write means the client hung up; nobody is listening
	_ = enc.Encode(v)
}

func handleSubmit(d *Daemon, w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode job spec: %v", err))
		return
	}
	st, err := d.Submit(spec, r.Header.Get("X-Tenant"))
	switch {
	case err == ErrQueueFull || err == ErrTenantBudget:
		w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case err != nil && d.Draining():
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	case st.Cached:
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func handleStatus(d *Daemon, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := d.JobStatusFor(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %s", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// serveArtifact returns the handler that streams a job's sealed cache entry
// id+suffix straight from its file: the bundle or report with no suffix, the
// span trace (JSON lines, which wpmtrace consumes directly) with
// traceSuffix. what names the entry in the errors. The body is an
// io.LimitReader over the *os.File, so net/http hands it to sendfile; a bare
// *os.File would take io.Copy through the file's own WriteTo and a 32 KB
// copy buffer.
func serveArtifact(suffix, what string) func(*Daemon, http.ResponseWriter, *http.Request) {
	return func(d *Daemon, w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f, meta, ok := d.cache.Open(id + suffix)
		if !ok {
			st, known := d.JobStatusFor(id)
			switch {
			case !known:
				httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %s", id))
			case st.State == JobFailed:
				httpError(w, http.StatusConflict, fmt.Sprintf("job %s failed: %s", id, st.Error))
			case st.State != JobDone:
				httpError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, %s not sealed yet", id, st.State, what))
			case suffix != "" && d.cache.Contains(id):
				// report jobs, and jobs run without telemetry, seal no trace
				httpError(w, http.StatusConflict, fmt.Sprintf("job %s is done, no %s is cached for it", id, what))
			default:
				httpError(w, http.StatusConflict, fmt.Sprintf("job %s is done but its %s was evicted or damaged, resubmit the spec", id, what))
			}
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", meta.ContentType)
		w.Header().Set("X-Artifact-Digest", meta.Digest)
		w.Header().Set("Content-Length", strconv.FormatInt(meta.Bytes, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, io.LimitReader(f, meta.Bytes)) // client gone mid-write: nothing to report to
	}
}

func handleHealth(d *Daemon, w http.ResponseWriter, _ *http.Request) {
	entries, bytes := d.CacheStats()
	body := map[string]any{
		"draining":     d.Draining(),
		"queueDepth":   d.QueueDepth(),
		"cacheEntries": entries,
		"cacheBytes":   bytes,
	}
	code := http.StatusOK
	if d.Draining() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// writeSSE emits one Server-Sent Event frame.
func writeSSE(w http.ResponseWriter, f http.Flusher, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ev.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	f.Flush()
	return nil
}

// handleEvents streams a job's events as Server-Sent Events. The stream
// opens with a synthetic snapshot of the current job state (seq 0, so a
// reconnecting consumer's Last-Event-ID is unaffected), then replays the
// hub's ring past the Last-Event-ID watermark, then goes live. The stream
// ends when the job reaches a terminal state or the client disconnects.
// For jobs only known from the cache (no live executor) a single state
// event is emitted and the stream closes immediately.
func handleEvents(d *Daemon, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	j, live := d.Job(id)
	st, known := d.JobStatusFor(id)
	if !known {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %s", id))
		return
	}
	var after int64
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		if n, err := strconv.ParseInt(lastID, 10, 64); err == nil {
			after = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// leading snapshot so consumers always learn the current state even when
	// they attach long after the transition events scrolled out of the ring
	if err := writeSSE(w, f, stateEvent(st)); err != nil {
		return
	}
	if !live {
		return
	}
	replay, ch, cancel := j.events.subscribe(after)
	defer cancel()
	for _, ev := range replay {
		if err := writeSSE(w, f, ev); err != nil {
			return
		}
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := writeSSE(w, f, ev); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// runtimeGauges folds process-level runtime observations into the snapshot
// at scrape time: they describe the scraping instant, not accumulated
// telemetry, so they live on the snapshot copy rather than in the registry.
func runtimeGauges(snap *telemetry.Snapshot) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if snap.Gauges == nil {
		snap.Gauges = map[string]int64{}
	}
	snap.Gauges["runtime_goroutines"] = int64(runtime.NumGoroutine())
	snap.Gauges["runtime_heap_alloc_bytes"] = int64(ms.HeapAlloc)
	if snap.Counters == nil {
		snap.Counters = map[string]int64{}
	}
	snap.Counters["runtime_gc_cycles_total"] = int64(ms.NumGC)
	// The shared script cache is process-wide state like the runtime stats:
	// scrape-time observability only, never part of crawl telemetry (bundle
	// replay identity must not depend on what other jobs warmed).
	sc := scriptcache.Shared.Snapshot()
	snap.Gauges["script_cache_entries"] = int64(sc.Entries)
	snap.Gauges["script_cache_programs"] = int64(sc.Programs)
	snap.Counters["script_cache_hits_total"] = sc.Hits
	snap.Counters["script_cache_misses_total"] = sc.Misses
	snap.Counters["script_cache_collisions_total"] = sc.Collisions
	snap.Counters["script_cache_evictions_total"] = sc.Evictions
}

// handleMetrics renders the telemetry snapshot plus runtime gauges. The
// default is the Prometheus text exposition format; ?format=json or an
// Accept: application/json header returns the canonical snapshot document.
func handleMetrics(d *Daemon, w http.ResponseWriter, r *http.Request) {
	tel := d.Telemetry()
	if !tel.Enabled() {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	snap := tel.Snapshot()
	runtimeGauges(snap)
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		data, err := snap.CanonicalJSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(append(data, '\n')) // client gone mid-write: nothing to report to
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	renderProm(w, snap)
}
