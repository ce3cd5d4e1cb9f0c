// Command wpmd is the crawl-as-a-service daemon: a long-running HTTP server
// that accepts crawl, replay, diff and agreement jobs, executes them through
// the deterministic crawl substrate, and seals every artifact into a
// content-addressed disk cache. Because a seeded crawl is a pure function of
// (site list, configuration, seed), identical requests are served from the
// cache with bytes identical to a cold run — the expensive path runs once
// per distinct request, not once per request.
//
// API:
//
//	POST /v1/jobs                submit a JSON job spec; 200 on a cache hit,
//	                             202 on admission, 429 + Retry-After under
//	                             overload (bounded queue, per-tenant budgets
//	                             via the X-Tenant header)
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/artifact  sealed artifact bytes
//	GET  /v1/jobs/{id}/trace     the job's span trace, JSON lines — pipe
//	                             into wpmtrace for analysis
//	GET  /v1/jobs/{id}/events    live job events (SSE): state transitions
//	                             and crawl progress (curl -N to follow)
//	GET  /healthz                liveness (503 while draining)
//	GET  /metrics                telemetry snapshot plus runtime gauges,
//	                             Prometheus text exposition (?format=json
//	                             for the canonical document)
//	GET  /debug/pprof/*          profiling endpoints, only with -pprof
//
// SIGTERM/SIGINT drain the daemon: admission stops, in-flight crawl jobs
// checkpoint at the next site boundary and seal their WALs, queued jobs stay
// persisted, and the process exits with status 3 if anything was interrupted
// mid-run. A restarted wpmd over the same -dir recovers interrupted jobs
// from their logs and finishes them digest-identical to uninterrupted runs.
//
// The -smoke flag runs a self-contained start → submit → hit → drain check
// against an ephemeral port and exits; CI uses it as the daemon's end-to-end
// gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"gullible/internal/daemon"
	"gullible/internal/daemon/signal"
	"gullible/internal/telemetry"
	"gullible/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	dir := flag.String("dir", "wpmd-state", "state directory (cache, queue, job WALs)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "artifact cache byte budget (negative = unbudgeted)")
	queueDepth := flag.Int("queue", 64, "job queue depth (negative = unbounded)")
	tenantBudget := flag.Int64("tenant-budget", 50000, "per-tenant in-flight cost budget in sites (negative = unlimited)")
	executors := flag.Int("workers", 2, "concurrent job executors")
	crawlWorkers := flag.Int("crawl-workers", 1, "sched workers per crawl job (fixed across restarts: WAL recovery needs a stable shard layout)")
	fsync := flag.String("fsync", "checkpoint", "WAL fsync policy for crawl jobs: off|checkpoint|always")
	retryAfter := flag.Int("retry-after", 5, "Retry-After seconds advertised on 429 responses")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof/* (profiling leaks internals; keep off on shared listeners)")
	smoke := flag.Bool("smoke", false, "run the start→submit→hit→drain self-check on an ephemeral port and exit")
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tel := telemetry.New()
	d, err := daemon.Open(daemon.Config{
		Dir:               *dir,
		CacheBytes:        *cacheBytes,
		QueueDepth:        *queueDepth,
		TenantBudget:      *tenantBudget,
		Executors:         *executors,
		CrawlWorkers:      *crawlWorkers,
		Fsync:             syncPolicy,
		RetryAfterSeconds: *retryAfter,
		Telemetry:         tel,
		EnablePprof:       *pprofFlag,
		// the daemon package itself is wall-clock free (crawl time is
		// virtual); the binary injects the clock for HTTP latency histograms
		NowNanos: func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	listenAddr := *addr
	if *smoke {
		listenAddr = "127.0.0.1:0" // ephemeral: the smoke check runs anywhere
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           daemon.Handler(d),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      5 * time.Minute, // artifact downloads can be large
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "wpmd listening on http://%s (state under %s)\n", ln.Addr(), *dir)

	if *smoke {
		err := runSmoke(fmt.Sprintf("http://%s", ln.Addr()))
		d.Drain()
		_ = srv.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "smoke: ok")
		return
	}

	// the shared interrupt contract: first signal drains, second kills
	stop := signal.Notify(func(s os.Signal) {
		fmt.Fprintf(os.Stderr, "\n%v: draining — in-flight jobs checkpoint at the next site boundary...\n", s)
	})
	select {
	case <-stop:
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	interrupted := d.Drain()
	_ = srv.Close()
	if interrupted > 0 {
		fmt.Fprintf(os.Stderr, "drained: %d job(s) checkpointed mid-run; restart wpmd with the same -dir to resume them\n", interrupted)
		os.Exit(signal.ExitInterrupted)
	}
	fmt.Fprintln(os.Stderr, "drained cleanly")
}

// runSmoke drives the daemon through its own HTTP surface: submit a small
// crawl job, wait for the artifact, resubmit and demand a digest-identical
// cache hit, and check the hit shows up in /metrics.
func runSmoke(base string) error {
	client := &http.Client{Timeout: 60 * time.Second}
	spec := `{"kind":"crawl","numSites":5,"maxSubpages":1}`

	var first daemon.JobStatus
	if err := postJob(client, base, spec, http.StatusAccepted, &first); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for first.State != daemon.JobDone {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in state %s", first.ID, first.State)
		}
		time.Sleep(50 * time.Millisecond)
		if err := getJSON(client, base+"/v1/jobs/"+first.ID, &first); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if first.State == daemon.JobFailed {
			return fmt.Errorf("job failed: %s", first.Error)
		}
	}

	resp, err := client.Get(base + "/v1/jobs/" + first.ID + "/artifact")
	if err != nil {
		return err
	}
	artifact, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("artifact: status %d, %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("X-Artifact-Digest"); got != first.Digest {
		return fmt.Errorf("artifact digest header %s != job digest %s", got, first.Digest)
	}
	if len(artifact) == 0 {
		return fmt.Errorf("artifact is empty")
	}

	// the crawl's span trace sealed next to the bundle
	resp, err = client.Get(base + "/v1/jobs/" + first.ID + "/trace")
	if err != nil {
		return err
	}
	traceBody, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: status %d, %v", resp.StatusCode, err)
	}
	if !bytes.Contains(traceBody, []byte(`"name":"job"`)) || !bytes.Contains(traceBody, []byte(`"name":"visit"`)) {
		return fmt.Errorf("trace missing job/visit spans:\n%.200s", traceBody)
	}

	// the identical spec, resubmitted: answered from the cache, same digest
	var second daemon.JobStatus
	if err := postJob(client, base, spec, http.StatusOK, &second); err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if !second.Cached || second.Digest != first.Digest {
		return fmt.Errorf("resubmit not a digest-identical cache hit: %+v", second)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if !bytes.Contains(metrics, []byte("daemon_cache_hits_total 1")) {
		return fmt.Errorf("metrics missing the cache hit:\n%s", metrics)
	}
	return nil
}

// postJob submits a job spec and decodes the status, demanding wantCode.
func postJob(client *http.Client, base, spec string, wantCode int, out *daemon.JobStatus) error {
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, wantCode, body)
	}
	return json.Unmarshal(body, out)
}

// getJSON decodes a JSON GET response.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}
