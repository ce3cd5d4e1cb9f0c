package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gullible/internal/bundle"
	"gullible/internal/daemon"
	"gullible/internal/experiments"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/trace"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// The daemon-warm workload times one class of request, so every latency
// percentile it reports belongs to that class: each client first completes a
// few cold crawl jobs (submit, await the job on its event stream, download
// the artifact and verify it), not timed, and then times warm hits
// (resubmit a completed crawl, which the daemon answers from its cache, and
// download the artifact again). The cold jobs' latencies and phases are
// extras of the run's document.

// coldSpec is job k of the daemon workload's fixed job pool: a crawl of the
// top sites of its own synthetic web (world seed k+1), one subpage each.
func coldSpec(k int, sz sizes) daemon.JobSpec {
	return daemon.JobSpec{Kind: daemon.KindCrawl, NumSites: sz.DaemonSites, Seed: int64(k) + 1, MaxSubpages: 1}
}

// jobKey names job k's artifact digest.
func jobKey(k int) string { return fmt.Sprintf("job%03d", k) }

// daemonPlan is one client's share of a pass: the pool jobs it runs cold
// and which of its completed jobs it resubmits, in order.
type daemonPlan struct {
	cold []int
	warm []int // indexes into cold
}

// daemonPlans deals the pass's job pool, in the seed's order, round-robin
// to the clients and draws each client's warm resubmits from the seed.
func daemonPlans(seed int64, sz sizes) []daemonPlan {
	pool := make([]int, sz.DaemonClients*sz.WarmPrep)
	for k := range pool {
		pool[k] = k
	}
	plans := make([]daemonPlan, sz.DaemonClients)
	for i, k := range shuffled(seed, pool) {
		plans[i%len(plans)].cold = append(plans[i%len(plans)].cold, k)
	}
	rng := rand.New(rand.NewSource(seed))
	for c := range plans {
		for i := 0; i < sz.WarmOps; i++ {
			plans[c].warm = append(plans[c].warm, rng.Intn(len(plans[c].cold)))
		}
	}
	return plans
}

// coldJob is what a client remembers of a completed crawl job.
type coldJob struct {
	spec   daemon.JobSpec
	addr   string
	sha    [32]byte
	digest string
}

// daemonClient is one closed-loop client with a single keep-alive
// connection: it sends its next request only after the previous op
// completed.
type daemonClient struct {
	base string
	hc   *http.Client
	done []coldJob
	res  passResult
}

// series adds one sample to a named latency series.
func (c *daemonClient) series(name string, d time.Duration) {
	if c.res.Series == nil {
		c.res.Series = map[string][]float64{}
	}
	c.res.Series[name] = append(c.res.Series[name], float64(d)/1e6)
}

// submit posts a job spec and decodes the status it gets back.
func (c *daemonClient) submit(spec daemon.JobSpec) (daemon.JobStatus, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return daemon.JobStatus{}, 0, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return daemon.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return daemon.JobStatus{}, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return daemon.JobStatus{}, resp.StatusCode, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var st daemon.JobStatus
	err = json.Unmarshal(data, &st)
	return st, resp.StatusCode, err
}

// await follows the job's SSE stream until it ends, returning when the job
// was first seen running and when it finished. The stream's subscriber
// buffer may drop events, so a stream that ends without a terminal state is
// settled by a status request.
func (c *daemonClient) await(id string) (running, done time.Time, err error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return running, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, done, fmt.Errorf("events: %s", resp.Status)
	}
	var state daemon.JobState
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		var ev daemon.JobEvent
		if json.Unmarshal(line[len("data: "):], &ev) != nil || ev.Type != "state" {
			continue
		}
		state = ev.State
		switch ev.State {
		case daemon.JobRunning:
			if running.IsZero() {
				running = time.Now()
			}
		case daemon.JobDone:
			if running.IsZero() {
				running = time.Now()
			}
			done = time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		return running, done, err
	}
	if state != daemon.JobDone {
		st, err := c.status(id)
		if err != nil {
			return running, done, err
		}
		if st.State != daemon.JobDone {
			return running, done, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		done = time.Now()
		if running.IsZero() {
			running = done
		}
	}
	return running, done, nil
}

func (c *daemonClient) status(id string) (daemon.JobStatus, error) {
	var st daemon.JobStatus
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// artifact downloads a job's sealed artifact and its advertised digest.
func (c *daemonClient) artifact(id string) ([]byte, string, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("artifact: %s", resp.Status)
	}
	return data, resp.Header.Get("X-Artifact-Digest"), nil
}

// verifyBundle checks a downloaded bundle artifact: it must decode, pass
// bundle.Verify and carry the digest the server advertised.
func verifyBundle(data []byte, advertised string) (*bundle.Bundle, error) {
	b, err := bundle.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if err := b.Verify(); err != nil {
		return nil, err
	}
	if b.Digest != advertised {
		return nil, fmt.Errorf("artifact digest %s, server advertised %s", b.Digest, advertised)
	}
	return b, nil
}

// job runs a cold crawl job end to end: submit, await, download, verify.
func (c *daemonClient) job(spec daemon.JobSpec) (coldJob, error) {
	t0 := time.Now()
	st, _, err := c.submit(spec)
	if err != nil {
		return coldJob{}, err
	}
	submitted := time.Now()
	running, done, err := c.await(st.ID)
	if err != nil {
		return coldJob{}, err
	}
	data, adv, err := c.artifact(st.ID)
	if err != nil {
		return coldJob{}, err
	}
	b, err := verifyBundle(data, adv)
	if err != nil {
		return coldJob{}, err
	}
	end := time.Now()
	c.series("daemon.cold.job_ms", end.Sub(t0))
	c.series("daemon.cold.submit_ms", submitted.Sub(t0))
	c.series("daemon.cold.queue_wait_ms", running.Sub(submitted))
	c.series("daemon.cold.execute_ms", done.Sub(running))
	c.series("daemon.cold.artifact_ms", end.Sub(done))
	return coldJob{spec: spec, addr: st.ID, sha: sha256.Sum256(data), digest: b.Digest}, nil
}

// warm resubmits a completed crawl: the daemon must answer from its cache,
// and the artifact must be byte-identical to the cold download.
func (c *daemonClient) warm(cj coldJob) error {
	t0 := time.Now()
	st, code, err := c.submit(cj.spec)
	if err != nil {
		return err
	}
	if !st.Cached || code != http.StatusOK {
		return fmt.Errorf("resubmit of %s answered %d (state %s), not from the cache", cj.addr, code, st.State)
	}
	submitted := time.Now()
	data, _, err := c.artifact(st.ID)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != cj.sha {
		return fmt.Errorf("warm artifact of %s differs from its cold download", cj.addr)
	}
	c.series("daemon.warm.submit_ms", submitted.Sub(t0))
	c.series("daemon.warm.artifact_ms", time.Since(submitted))
	return nil
}

// cold runs the client's cold jobs in order. A failed job ends the client's
// loop.
func (c *daemonClient) cold(jobs []int, sz sizes) {
	for _, k := range jobs {
		cj, err := c.job(coldSpec(k, sz))
		if err != nil {
			c.res.Failed++
			c.res.problemf("cold job %s: %v", jobKey(k), err)
			return
		}
		c.done = append(c.done, cj)
		c.res.digest(jobKey(k), cj.digest)
	}
}

// warmHits resubmits the client's completed jobs in the planned order.
func (c *daemonClient) warmHits(targets []int) {
	for _, i := range targets {
		t0 := time.Now()
		err := c.warm(c.done[i])
		c.res.Ops++
		if err != nil {
			c.res.Failed++
			c.res.problemf("warm hit: %v", err)
			continue
		}
		c.res.LatMS = append(c.res.LatMS, float64(time.Since(t0))/1e6)
	}
}

// daemonMeasure starts an in-process daemon behind its HTTP handler on a
// loopback listener and drives it with closed-loop clients: each completes
// its cold jobs, then times warm hits on them.
func daemonMeasure(spec passSpec, execNS int64) (*passResult, error) {
	dir, err := os.MkdirTemp("", "wpmbench-wpmd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := daemon.Open(daemon.Config{
		Dir:          dir,
		Executors:    2,
		CrawlWorkers: 1,
		Telemetry:    telemetry.New(),
		NowNanos:     func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return nil, err
	}
	defer d.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           daemon.Handler(d),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "wpmbench daemon: shutdown:", err)
		}
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "wpmbench daemon: serve:", err)
		}
	}()

	clients := make([]*daemonClient, spec.Size.DaemonClients)
	for i := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		clients[i] = &daemonClient{
			base: "http://" + ln.Addr().String(),
			hc:   &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		}
	}
	r := &passResult{}
	if r.ready(spec, execNS) {
		return r, nil
	}
	plans := daemonPlans(spec.Seed, spec.Size)
	drive := func(f func(c *daemonClient, p daemonPlan)) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(c, plans[i])
			}()
		}
		wg.Wait()
	}
	drive(func(c *daemonClient, p daemonPlan) { c.cold(p.cold, spec.Size) })
	for _, c := range clients {
		if c.res.Failed > 0 {
			return nil, fmt.Errorf("completing the jobs to resubmit: %s", strings.Join(c.res.Problems, "; "))
		}
	}
	m := startMeter()
	drive(func(c *daemonClient, p daemonPlan) { c.warmHits(p.warm) })
	m.stop(r)

	for _, c := range clients {
		r.Ops += c.res.Ops
		r.Failed += c.res.Failed
		r.LatMS = append(r.LatMS, c.res.LatMS...)
		r.Problems = append(r.Problems, c.res.Problems...)
		for k, v := range c.res.Digests {
			r.digest(k, v)
		}
		for k, v := range c.res.Series {
			if r.Series == nil {
				r.Series = map[string][]float64{}
			}
			r.Series[k] = append(r.Series[k], v...)
		}
	}
	return r, nil
}

// daemonTraced re-runs the pool's first cold crawl jobs outside the daemon,
// the way its executor runs them (sched.Run onto per-shard WALs with bundle
// recording and the daemon's telemetry, then analysis, artifact encoding and
// trace sealing), so the crawl layers of a cold job can be wrapped. The
// resulting bundles must carry the daemon's artifact digests.
func daemonTraced(spec passSpec, execNS int64, tracing bool) (*passResult, error) {
	dir, err := os.MkdirTemp("", "wpmbench-jobs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tel := telemetry.New()
	tr := newTracer(tracing)
	jobs := spec.Size.DaemonRebuilt
	r := &passResult{Ops: jobs}
	var bundles []*bundle.Bundle
	var allLanes [][]*lane
	r.ready(spec, execNS)

	m := startMeter()
	tr.main.restart()
	pass := tr.main.begin(spanPass)
	for k := 0; k < jobs; k++ {
		addr, canon, err := daemon.ContentAddress(coldSpec(k, spec.Size))
		if err != nil {
			return nil, err
		}
		job := tr.main.beginReq(spanJob, addr)
		meta := map[string]string{"tool": "wpmd", "job": addr, "worldSeed": fmt.Sprint(canon.Seed), "faults": canon.Faults}
		world := websim.New(websim.Options{Seed: canon.Seed, NumSites: canon.NumSites})
		walOpts := wal.Options{Sync: wal.SyncCheckpoint, Telemetry: tel}
		workers := sched.Workers(1, len(canon.Sites))
		run := tr.main.begin(spanSchedRun)
		lanes := tr.shardLanes(workers, run)
		allLanes = append(allLanes, lanes)
		res, err := sched.Run(sched.Crawl{
			Sites:         canon.Sites,
			Workers:       workers,
			Record:        true,
			BundleMeta:    meta,
			Telemetry:     tel,
			DetachMetrics: true,
			Backend: boundaryBackends(lanes,
				sched.WALBackend(sched.ShardDirFS(filepath.Join(dir, addr)), workers, true, meta, walOpts)),
			Config: func(sh sched.Shard) openwpm.CrawlConfig {
				cfg := scanConfig(world, canon.MaxSubpages)
				cfg.MaxVisitSeconds = canon.MaxVisitSeconds
				cfg.Telemetry = tel
				return traceConfig(cfg, lanes[sh.Index])
			},
		})
		tr.main.end(run)
		if err != nil {
			return nil, err
		}
		sp := tr.main.begin(spanAnalyze)
		merged := openwpm.NewTaskManager(scanConfig(world, canon.MaxSubpages))
		merged.Storage = res.Storage
		experiments.Analyze(world, merged, canon.NumSites)
		tr.main.end(sp)
		sp = tr.main.begin(spanCloseWAL)
		err = res.Checkpoint.CloseBackends()
		tr.main.end(sp)
		if err != nil {
			return nil, fmt.Errorf("seal job WAL: %w", err)
		}
		sp = tr.main.begin(spanMarshal)
		_, err = res.Bundle.Marshal()
		tr.main.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.main.begin("trace.seal")
		var buf bytes.Buffer
		err = telemetry.WriteTrace(&buf, trace.Job(res.Trace, telemetry.L("job", addr), telemetry.L("kind", canon.Kind)))
		tr.main.end(sp)
		if err != nil {
			return nil, err
		}
		tr.main.end(job)
		r.Failed += checkReport(r, "job "+addr, res.Report, len(canon.Sites))
		r.Visits += len(canon.Sites)
		bundles = append(bundles, res.Bundle)
	}
	tr.main.end(pass)
	m.stop(r)

	for _, lanes := range allLanes {
		checkLanes(r, lanes)
	}
	for k, b := range bundles {
		if tracing {
			if err := unstealth(b); err != nil {
				return nil, err
			}
		}
		r.digest(jobKey(k), b.Digest)
	}
	return r, finishTrace(r, tr, spec)
}
