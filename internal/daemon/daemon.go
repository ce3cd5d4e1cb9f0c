package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gullible/internal/bundle"
	"gullible/internal/experiments"
	"gullible/internal/faults"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/trace"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// Config configures one daemon instance.
type Config struct {
	// Dir is the state root: cache/ (artifact LRU), queue/ (persisted
	// pending job specs) and jobs/ (per-job WAL shard logs) live under it.
	Dir string
	// CacheBytes is the artifact cache's byte budget (default 256 MiB;
	// negative = unbudgeted).
	CacheBytes int64
	// QueueDepth bounds the number of queued jobs (default 64; negative =
	// unbounded). A full queue rejects with ErrQueueFull.
	QueueDepth int
	// TenantBudget bounds one tenant's in-flight cost in sites (default
	// 50000; negative = unlimited). An exhausted budget rejects with
	// ErrTenantBudget while other tenants keep being admitted.
	TenantBudget int64
	// Executors is the number of concurrent job runners (default 2).
	Executors int
	// CrawlWorkers is the sched worker count inside one crawl or replay job
	// (default 1; 0 is normalised to 1 so the shard layout — and therefore
	// WAL recovery — does not depend on the machine the daemon restarts on).
	CrawlWorkers int
	// Fsync is the WAL sync policy for crawl jobs (default checkpoint).
	Fsync wal.SyncPolicy
	// RetryAfterSeconds is the advisory backoff returned with 429 responses
	// (default 5).
	RetryAfterSeconds int
	// Telemetry instruments the daemon and every job it runs; /metrics
	// renders its snapshots. Nil disables instrumentation (every call is
	// nil-safe).
	Telemetry *telemetry.Telemetry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// handler. Off by default: the profiling surface leaks heap contents and
	// must be opted into per deployment.
	EnablePprof bool
	// NowNanos is a monotonic wall-clock source for HTTP request latency
	// histograms. The daemon itself never reads the wall clock (crawl time
	// is virtual and the wpmlint wallclock rule bans time.Now in internal
	// packages); the binary injects one. Nil disables latency observation —
	// request counters and in-flight gauges still work.
	NowNanos func() int64
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.TenantBudget == 0 {
		c.TenantBudget = 50000
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.CrawlWorkers <= 0 {
		c.CrawlWorkers = 1
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 5
	}
	return c
}

// JobState is a job's lifecycle position.
type JobState string

const (
	// JobQueued: admitted, persisted, waiting for an executor.
	JobQueued JobState = "queued"
	// JobRunning: an executor is crawling/replaying.
	JobRunning JobState = "running"
	// JobDone: artifact sealed into the cache.
	JobDone JobState = "done"
	// JobFailed: execution errored; the spec is no longer queued.
	JobFailed JobState = "failed"
	// JobInterrupted: drain checkpointed the job mid-crawl; its WAL is
	// sealed and the next daemon start recovers and finishes it.
	JobInterrupted JobState = "interrupted"
)

// Job is one admitted job. Identity is the content address; two submissions
// of the same canonical spec share one Job (and, once sealed, one cache
// entry forever).
type Job struct {
	Addr   string
	Spec   JobSpec
	Tenant string
	Cost   int64
	Seq    uint64 // admission order, persisted so restarts replay FIFO

	// events streams state transitions and crawl progress to
	// SSE subscribers; see eventHub.
	events *eventHub

	mu     sync.Mutex
	state  JobState
	err    string
	digest string
	done   chan struct{}
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
	j.events.publish(stateEvent(j.Status()))
}

func (j *Job) finish(s JobState, digest, errMsg string) {
	j.mu.Lock()
	j.state, j.digest, j.err = s, digest, errMsg
	select {
	case <-j.done:
	default:
		close(j.done)
	}
	j.mu.Unlock()
	j.events.publish(stateEvent(j.Status()))
	j.events.close()
}

// Done is closed when the job reaches a terminal state in this process
// (done, failed or interrupted).
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the JSON-serialisable snapshot of a job.
type JobStatus struct {
	ID     string   `json:"id"`
	Kind   string   `json:"kind"`
	State  JobState `json:"state"`
	Tenant string   `json:"tenant,omitempty"`
	Cost   int64    `json:"cost"`
	Digest string   `json:"digest,omitempty"`
	Error  string   `json:"error,omitempty"`
	// Cached is set on submissions answered from the artifact cache
	// without queueing anything.
	Cached bool `json:"cached,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.Addr, Kind: j.Spec.Kind, State: j.state,
		Tenant: j.Tenant, Cost: j.Cost, Digest: j.digest, Error: j.err,
	}
}

// queueRec is the persisted form of a pending job: everything a restarted
// daemon needs to re-admit it in order.
type queueRec struct {
	Seq    uint64  `json:"seq"`
	Tenant string  `json:"tenant,omitempty"`
	Spec   JobSpec `json:"spec"`
}

// Admission errors. The HTTP layer maps both onto 429 + Retry-After; they
// are distinct so callers can tell global overload (ErrQueueFull: the box is
// saturated) from one tenant exhausting its own in-flight cost budget
// (ErrTenantBudget: other tenants are still admitted).
var (
	ErrQueueFull    = errors.New("daemon: job queue is full")
	ErrTenantBudget = errors.New("daemon: tenant budget exhausted")
)

// Daemon is the crawl-as-a-service core: admission, execution, caching,
// drain and recovery. The HTTP layer in http.go is a thin shell over it.
//
// All admission state lives under mu alone, so the ordering rules are facts
// of the code's shape: a job enters the table, the FIFO and its tenant's
// load in one critical section after its spec is persisted; an executor
// takes a job only while the daemon is not draining; and settle returns a
// job's cost before its Done channel closes.
type Daemon struct {
	cfg   Config
	tel   *telemetry.Telemetry
	cache *Cache

	stop chan struct{} // closed by Drain; every in-flight crawl watches it
	wg   sync.WaitGroup

	mu    sync.Mutex
	ready *sync.Cond // on mu: signalled per admitted job, broadcast by Drain
	// jobs holds every job this process admitted, finished ones included
	// (a late SSE subscriber still replays their events).
	jobs map[string]*Job
	// queued is the FIFO of admitted jobs no executor has taken yet.
	queued []*Job
	// load is each tenant's cost of queued and running jobs; a tenant
	// with none has no entry.
	load      map[string]int64
	submitSeq uint64
	draining  bool
}

// newDaemon builds a daemon over an open cache with no executors running.
func newDaemon(cfg Config, cache *Cache) *Daemon {
	d := &Daemon{
		cfg: cfg, tel: cfg.Telemetry, cache: cache,
		stop: make(chan struct{}),
		jobs: map[string]*Job{}, load: map[string]int64{},
	}
	d.ready = sync.NewCond(&d.mu)
	return d
}

// newJob builds a queued job for a canonical spec.
func (d *Daemon) newJob(addr string, spec JobSpec, tenant string, seq uint64) *Job {
	return &Job{
		Addr: addr, Spec: spec, Tenant: tenant, Cost: Cost(spec), Seq: seq,
		state: JobQueued, done: make(chan struct{}),
		events: newEventHub(d.tel.Counter("daemon_event_drops_total")),
	}
}

// Open builds a daemon over cfg.Dir: the artifact cache index is rebuilt
// from disk, persisted queue entries are re-admitted in their original
// order (jobs with sealed WAL shards will resume from their checkpoints when
// an executor picks them up), orphaned job WALs are swept, and the executor
// pool starts.
func Open(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("daemon: Config.Dir is required")
	}
	for _, sub := range []string{"queue", "jobs"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("daemon: open: %w", err)
		}
	}
	cache, err := OpenCache(filepath.Join(cfg.Dir, "cache"), cfg.CacheBytes, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	d := newDaemon(cfg, cache)
	if err := d.recoverPersisted(); err != nil {
		_ = cache.Close() // the recovery error is the one to report
		return nil, err
	}
	for i := 0; i < cfg.Executors; i++ {
		d.wg.Add(1)
		go d.executor()
	}
	return d, nil
}

// recoverPersisted reloads the persisted queue (FIFO by admission seq),
// force-admitting each job past the depth/budget checks it already passed in
// a previous process, and sweeps job WAL directories that no longer have a
// pending spec (completed jobs whose cleanup was cut short).
func (d *Daemon) recoverPersisted() error {
	qdir := filepath.Join(d.cfg.Dir, "queue")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		return fmt.Errorf("daemon: recover queue: %w", err)
	}
	var recs []queueRec
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(qdir, e.Name()))
		if err != nil {
			continue
		}
		var rec queueRec
		if json.Unmarshal(data, &rec) != nil {
			// undecodable spec (a torn write): the accepted job is lost.
			// Drop the file and count the loss; a failed remove only leaves
			// it to be re-rejected on the next recovery pass
			_ = os.Remove(filepath.Join(qdir, e.Name()))
			d.tel.Counter("daemon_jobs_lost_total").Inc()
			continue
		}
		addr, canon, err := ContentAddress(rec.Spec)
		if err != nil || addr != strings.TrimSuffix(e.Name(), ".json") {
			// the spec no longer canonicalises onto its file name: stale
			// format or tampered state — drop it rather than run the wrong job
			_ = os.Remove(filepath.Join(qdir, e.Name()))
			d.tel.Counter("daemon_jobs_lost_total").Inc()
			continue
		}
		rec.Spec = canon
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	// Open has not started the executors yet, but admission state is
	// mu-guarded everywhere else; recovery holds the lock too so every write
	// site agrees on the discipline.
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rec := range recs {
		addr, _, _ := ContentAddress(rec.Spec)
		if rec.Seq > d.submitSeq {
			d.submitSeq = rec.Seq
		}
		if d.cache.Contains(addr) {
			// completed by a previous process that died before cleanup
			d.removePersisted(addr)
			continue
		}
		// the depth and budget checks are skipped: a previous process
		// already admitted this work
		d.enqueueLocked(d.newJob(addr, rec.Spec, rec.Tenant, rec.Seq))
		d.tel.Counter("daemon_jobs_recovered_total").Inc()
	}
	// sweep WAL directories with no pending spec
	jdirRoot := filepath.Join(d.cfg.Dir, "jobs")
	jents, err := os.ReadDir(jdirRoot)
	if err != nil {
		return fmt.Errorf("daemon: sweep jobs: %w", err)
	}
	for _, e := range jents {
		if !e.IsDir() {
			continue
		}
		if _, ok := d.jobs[e.Name()]; !ok {
			// best-effort sweep: a WAL dir that survives is re-swept on the
			// next start and can never be served (no pending spec points at it)
			_ = os.RemoveAll(filepath.Join(jdirRoot, e.Name()))
		}
	}
	d.tel.Gauge("daemon_queue_depth").Set(int64(len(d.queued)))
	return nil
}

// Draining reports whether Drain has begun.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Submit admits a job (or answers it from the cache). The returned status is
// what POST /v1/jobs serialises: state done + Cached for a cache hit, queued
// for a fresh admission, or the current state of an already-known job.
// Admission failures return ErrQueueFull or ErrTenantBudget.
func (d *Daemon) Submit(spec JobSpec, tenant string) (JobStatus, error) {
	addr, canon, err := ContentAddress(spec)
	if err != nil {
		return JobStatus{}, err
	}
	d.tel.Counter("daemon_jobs_submitted_total").Inc()

	// the cache answers first: deterministic jobs make sealed artifacts
	// valid forever, so a hit needs no admission, no queue, no crawl
	if meta, ok := d.cache.Touch(addr); ok {
		d.tel.Counter("daemon_cache_hits_total").Inc()
		return JobStatus{
			ID: addr, Kind: canon.Kind, State: JobDone,
			Digest: meta.Digest, Cached: true, Cost: Cost(canon),
		}, nil
	}
	d.tel.Counter("daemon_cache_misses_total").Inc()

	if canon.Kind == KindReplay {
		if src, ok := d.cache.Peek(canon.Source); !ok || src.Kind != KindCrawl && src.Kind != KindReplay {
			return JobStatus{}, fmt.Errorf("daemon: replay source %s is not a cached crawl or replay bundle — submit the source job first", canon.Source)
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return JobStatus{}, fmt.Errorf("daemon: draining, not accepting jobs")
	}
	// identical request queued or running: coalesce onto it. A done job
	// missed the cache above (its artifact was evicted or dropped as
	// damaged) and a failed one sealed nothing; both are admitted again.
	if j, ok := d.jobs[addr]; ok {
		if st := j.Status(); st.State == JobQueued || st.State == JobRunning {
			d.tel.Counter("daemon_jobs_coalesced_total").Inc()
			return st, nil
		}
	}
	if d.cfg.QueueDepth > 0 && len(d.queued) >= d.cfg.QueueDepth {
		d.tel.Counter("daemon_jobs_rejected_total", telemetry.L("reason", "queue")).Inc()
		return JobStatus{}, ErrQueueFull
	}
	if d.cfg.TenantBudget > 0 && d.load[tenant]+Cost(canon) > d.cfg.TenantBudget {
		d.tel.Counter("daemon_jobs_rejected_total", telemetry.L("reason", "tenant")).Inc()
		return JobStatus{}, ErrTenantBudget
	}
	d.submitSeq++
	j := d.newJob(addr, canon, tenant, d.submitSeq)
	if err := d.persistQueued(j); err != nil {
		// a job we cannot persist would vanish on restart; refuse it
		return JobStatus{}, err
	}
	// the snapshot is taken before the lock is released, so the caller
	// always sees the job queued
	d.enqueueLocked(j)
	return j.Status(), nil
}

// enqueueLocked registers an admitted job, charges its cost to its tenant
// and wakes one executor. The caller holds d.mu.
func (d *Daemon) enqueueLocked(j *Job) {
	d.jobs[j.Addr] = j
	d.queued = append(d.queued, j)
	d.load[j.Tenant] += j.Cost
	d.tel.Gauge("daemon_queue_depth").Set(int64(len(d.queued)))
	d.ready.Signal()
}

// persistQueued writes the job's spec to queue/<addr>.json so a killed
// daemon re-admits it on restart.
func (d *Daemon) persistQueued(j *Job) error {
	data, err := json.Marshal(queueRec{Seq: j.Seq, Tenant: j.Tenant, Spec: j.Spec})
	if err != nil {
		return err
	}
	path := filepath.Join(d.cfg.Dir, "queue", j.Addr+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("daemon: persist job: %w", err)
	}
	return nil
}

// removePersisted deletes a job's queue spec and WAL directory. Cleanup is
// best-effort: leftovers are swept by the next recovery pass, and a recovered
// job whose artifact is already cached is simply dropped again.
func (d *Daemon) removePersisted(addr string) {
	_ = os.Remove(filepath.Join(d.cfg.Dir, "queue", addr+".json")) // see above
	_ = os.RemoveAll(filepath.Join(d.cfg.Dir, "jobs", addr))       // see above
}

// JobStatusFor returns the status of a known or cached job. Jobs that
// completed in an earlier process exist only as cache entries; they report
// state done.
func (d *Daemon) JobStatusFor(addr string) (JobStatus, bool) {
	d.mu.Lock()
	j, ok := d.jobs[addr]
	d.mu.Unlock()
	if ok {
		return j.Status(), true
	}
	if meta, ok := d.cache.Peek(addr); ok {
		return JobStatus{ID: addr, Kind: meta.Kind, State: JobDone, Digest: meta.Digest, Cached: true}, true
	}
	return JobStatus{}, false
}

// Artifact returns a completed job's sealed artifact bytes and meta.
func (d *Daemon) Artifact(addr string) ([]byte, ArtifactMeta, bool) {
	return d.cache.Get(addr)
}

// Job returns the live job for addr, if this process knows it.
func (d *Daemon) Job(addr string) (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[addr]
	return j, ok
}

// Drain stops the daemon cooperatively: admission closes, queued jobs stay
// persisted for the next start, and every in-flight crawl checkpoints at its
// next site boundary and seals its WAL. Drain blocks until the executor pool
// has exited, closes the cache's recency log, and returns the number of
// jobs it interrupted mid-run.
func (d *Daemon) Drain() int {
	d.mu.Lock()
	if !d.draining {
		d.draining = true
		close(d.stop)
		d.ready.Broadcast()
	}
	d.mu.Unlock()
	d.wg.Wait()
	// a download served after this keeps its recency bump in memory only;
	// a failed close loses at most the log's last bumps, which only age
	// their entries
	_ = d.cache.Close()

	interrupted := 0
	d.mu.Lock()
	for _, j := range d.jobs {
		if j.Status().State == JobInterrupted {
			interrupted++
		}
	}
	d.mu.Unlock()
	return interrupted
}

// executor is one worker: it runs admitted jobs until the daemon drains.
func (d *Daemon) executor() {
	defer d.wg.Done()
	for {
		j, ok := d.next()
		if !ok {
			return
		}
		d.run(j)
	}
}

// next blocks until a job is queued or the daemon drains, and takes the
// oldest queued job. Once draining it returns false even when jobs remain
// queued: stopping work is the point, and their specs stay persisted for
// the next start.
func (d *Daemon) next() (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.draining && len(d.queued) == 0 {
		d.ready.Wait()
	}
	if d.draining {
		return nil, false
	}
	j := d.queued[0]
	d.queued[0] = nil
	d.queued = d.queued[1:]
	d.tel.Gauge("daemon_queue_depth").Set(int64(len(d.queued)))
	return j, true
}

// run executes one job to a terminal state.
func (d *Daemon) run(j *Job) {
	j.setState(JobRunning)
	running := d.tel.Gauge("daemon_jobs_running")
	running.Add(1)
	defer running.Add(-1)

	artifact, meta, interrupted, err := d.execute(j)
	if err == nil && !interrupted {
		err = d.cache.Put(j.Addr, artifact, meta)
	}
	switch {
	case interrupted:
		d.settle(j, JobInterrupted, "", "")
	case err != nil:
		d.settle(j, JobFailed, "", err.Error())
	default:
		d.settle(j, JobDone, meta.Digest, "")
	}
}

// settle ends a job this process took from the queue. A job that drain
// interrupted keeps its queue spec and sealed WAL, and the next start
// recovers and finishes it; any other outcome removes both. The tenant's
// cost is returned before finish closes Done, so whoever waits on Done can
// spend the freed budget at once.
func (d *Daemon) settle(j *Job, state JobState, digest, errMsg string) {
	switch state {
	case JobDone:
		d.tel.Counter("daemon_jobs_completed_total", telemetry.L("kind", j.Spec.Kind)).Inc()
	case JobFailed:
		d.tel.Counter("daemon_jobs_failed_total").Inc()
	case JobInterrupted:
		d.tel.Counter("daemon_jobs_interrupted_total").Inc()
	}
	if state != JobInterrupted {
		d.removePersisted(j.Addr)
	}
	d.mu.Lock()
	d.load[j.Tenant] -= j.Cost
	if d.load[j.Tenant] <= 0 {
		delete(d.load, j.Tenant)
	}
	d.mu.Unlock()
	j.finish(state, digest, errMsg)
}

// execute dispatches a job to its kind's implementation.
func (d *Daemon) execute(j *Job) (artifact []byte, meta ArtifactMeta, interrupted bool, err error) {
	switch j.Spec.Kind {
	case KindCrawl:
		return d.executeCrawl(j)
	case KindReplay:
		artifact, meta, err = d.executeReplay(j)
	case KindDiff:
		artifact, meta, err = d.executeDiff(j)
	case KindAgreement:
		artifact, meta, err = d.executeAgreement(j)
	default:
		err = fmt.Errorf("daemon: unknown job kind %q", j.Spec.Kind)
	}
	return artifact, meta, false, err
}

// bundleMeta labels a job's recorded bundle. Deterministic content only —
// derived from the canonical spec, so an interrupted-and-recovered run seals
// the same manifest as a cold one.
func bundleMeta(j *Job) map[string]string {
	return map[string]string{
		"tool":      "wpmd",
		"job":       j.Addr,
		"worldSeed": fmt.Sprint(j.Spec.Seed),
		"faults":    j.Spec.Faults,
	}
}

// executeCrawl runs a crawl job through the scheduler with per-shard WAL
// backends under jobs/<addr>/. A fresh run opens new logs; a run whose WAL
// directory already exists (the daemon was killed or drained mid-job)
// recovers the checkpoint from the logs and resumes — determinism makes the
// finished artifact byte-identical either way.
func (d *Daemon) executeCrawl(j *Job) ([]byte, ArtifactMeta, bool, error) {
	spec := j.Spec
	jdir := filepath.Join(d.cfg.Dir, "jobs", j.Addr)
	walOpts := wal.Options{Sync: d.cfg.Fsync, Telemetry: d.tel}
	meta := bundleMeta(j)
	profile, err := faults.ProfileNamed(spec.Faults)
	if err != nil {
		return nil, ArtifactMeta{}, false, err
	}

	opts := experiments.ScanOptions{
		Sites:           spec.Sites,
		MaxSubpages:     spec.MaxSubpages,
		Workers:         d.cfg.CrawlWorkers,
		MaxVisitSeconds: spec.MaxVisitSeconds,
		FaultSeed:       spec.FaultSeed,
		FaultProfile:    profile,
		RecordBundle:    true,
		BundleMeta:      meta,
		Telemetry:       d.tel,
		// the daemon's registry lives as long as the process; embedding its
		// snapshot would make otherwise-identical bundles digest-diverge, so
		// the sealed artifact carries no metrics and /metrics serves them
		DetachMetrics: true,
		Stop:          d.stop,
	}
	if fss, lerr := sched.ListShardFSs(jdir); lerr == nil {
		// sealed shard logs exist: recover their checkpoint and resume
		cp, _, rerr := sched.Recover(fss, walOpts)
		if rerr != nil {
			return nil, ArtifactMeta{}, false, fmt.Errorf("daemon: recover job %s: %w", j.Addr, rerr)
		}
		opts.Resume = cp
		opts.Workers = cp.Workers
		// a shard whose log lost even its metadata record restarts from
		// scratch; the factory reopens a fresh durable log for it (recovered
		// shards keep their continuation backends and never hit the factory)
		opts.Backend = sched.WALBackend(sched.ShardDirFS(jdir), cp.Workers, true, meta, walOpts)
	} else {
		eff := sched.Workers(d.cfg.CrawlWorkers, len(spec.Sites))
		opts.Backend = sched.WALBackend(sched.ShardDirFS(jdir), eff, true, meta, walOpts)
	}

	world := websim.New(websim.Options{Seed: spec.Seed, NumSites: spec.NumSites})
	r, err := experiments.RunScanObserved(world, spec.NumSites, opts, func(done, total int) {
		j.events.publish(JobEvent{Type: "progress", Done: done, Total: total})
	})
	if err != nil {
		return nil, ArtifactMeta{}, false, err
	}
	if r.Interrupted {
		if r.Checkpoint != nil {
			// the drained job still resumes from its checkpoint, so a log
			// that fails to seal is counted rather than failing the job;
			// the series exists only once a seal failed
			if cerr := r.Checkpoint.CloseBackends(); cerr != nil {
				d.tel.Counter("daemon_wal_seal_failures_total").Inc()
			}
		}
		return nil, ArtifactMeta{}, true, nil
	}
	if r.Checkpoint != nil {
		if cerr := r.Checkpoint.CloseBackends(); cerr != nil {
			return nil, ArtifactMeta{}, false, fmt.Errorf("daemon: seal job %s WAL: %w", j.Addr, cerr)
		}
	}
	if r.Bundle == nil {
		return nil, ArtifactMeta{}, false, fmt.Errorf("daemon: crawl job %s produced no bundle", j.Addr)
	}
	artifact, err := r.Bundle.Marshal()
	if err != nil {
		return nil, ArtifactMeta{}, false, err
	}
	if err := d.sealTrace(j, r.Trace); err != nil {
		return nil, ArtifactMeta{}, false, err
	}
	return artifact, ArtifactMeta{Kind: spec.Kind, Digest: r.Bundle.Digest, ContentType: "application/json"}, false, nil
}

// traceSuffix derives a job's trace-artifact cache address from its content
// address: the merged span trace is a second sealed artifact riding next to
// the bundle, served at GET /v1/jobs/{id}/trace and surviving warm cache
// hits exactly like the bundle does.
const traceSuffix = "-trace"

// sealTrace wraps a completed job's merged crawl trace in the job/phase
// envelope and seals it into the cache. Traces are pure functions of the
// crawl's virtual execution, so the sealed bytes are identical whether the
// job ran cold, resumed from a drain checkpoint, or replayed.
func (d *Daemon) sealTrace(j *Job, events []telemetry.SpanEvent) error {
	if len(events) == 0 {
		return nil
	}
	jobTrace := trace.Job(events, telemetry.L("job", j.Addr), telemetry.L("kind", j.Spec.Kind))
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, jobTrace); err != nil {
		return fmt.Errorf("daemon: seal job %s trace: %w", j.Addr, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return d.cache.Put(j.Addr+traceSuffix, buf.Bytes(), ArtifactMeta{
		Kind: "trace", Digest: hex.EncodeToString(sum[:]), ContentType: "application/x-ndjson",
	})
}

// executeReplay re-executes a cached bundle under a variant observer and
// seals the replayed crawl as a new bundle.
func (d *Daemon) executeReplay(j *Job) ([]byte, ArtifactMeta, error) {
	spec := j.Spec
	data, meta, ok := d.cache.Get(spec.Source)
	if !ok {
		return nil, ArtifactMeta{}, fmt.Errorf("daemon: replay source %s is not in the cache (evicted?) — resubmit the source job", spec.Source)
	}
	// the cache checks only an entry's size, so the source is verified
	// before it is replayed: a damaged or foreign artifact fails the job
	// instead of sealing a replay of the wrong crawl, and leaves the cache,
	// so that resubmitting the source job runs it again
	src, err := bundle.Unmarshal(data)
	if err == nil {
		err = src.Verify()
	}
	if err == nil && src.Digest != meta.Digest {
		err = fmt.Errorf("bundle digest %s, but the cache entry was sealed with %s", src.Digest, meta.Digest)
	}
	if err != nil {
		d.cache.drop(spec.Source)
		d.tel.Counter("daemon_cache_corrupt_total").Inc()
		return nil, ArtifactMeta{}, fmt.Errorf("daemon: replay source %s: %w", spec.Source, err)
	}
	policy, err := bundle.ParseMissPolicy(spec.Miss)
	if err != nil {
		return nil, ArtifactMeta{}, err
	}
	var mut func(*openwpm.CrawlConfig)
	if spec.Variant != "none" {
		m, err := experiments.VariantMutator(spec.Variant)
		if err != nil {
			return nil, ArtifactMeta{}, err
		}
		mut = m
	}
	// the replay shares the daemon's metrics registry but detaches it from
	// the sealed bundle: the artifact must be digest-identical no matter
	// what else the daemon ran
	res, _, _, err := experiments.Replay(src, policy, mut, sched.Crawl{
		Workers: d.cfg.CrawlWorkers,
		Record:  true, BundleMeta: bundleMeta(j), Telemetry: d.tel, DetachMetrics: true,
	})
	if err != nil {
		return nil, ArtifactMeta{}, err
	}
	artifact, err := res.Bundle.Marshal()
	if err != nil {
		return nil, ArtifactMeta{}, err
	}
	if err := d.sealTrace(j, res.Trace); err != nil {
		return nil, ArtifactMeta{}, err
	}
	return artifact, ArtifactMeta{Kind: spec.Kind, Digest: res.Bundle.Digest, ContentType: "application/json"}, nil
}

// reportArtifact seals a canonical-JSON report document: the artifact is the
// indented canonical encoding, the digest its SHA-256.
func reportArtifact(kind string, doc any) ([]byte, ArtifactMeta, error) {
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, ArtifactMeta{}, err
	}
	data = append(data, '\n')
	sum := sha256.Sum256(data)
	return data, ArtifactMeta{Kind: kind, Digest: hex.EncodeToString(sum[:]), ContentType: "application/json"}, nil
}

// executeDiff records a scan, replays it under the variant observer and
// seals the per-visit divergence report.
func (d *Daemon) executeDiff(j *Job) ([]byte, ArtifactMeta, error) {
	spec := j.Spec
	profile, err := faults.ProfileNamed(spec.Faults)
	if err != nil {
		return nil, ArtifactMeta{}, err
	}
	r, err := experiments.RunBundleDiff(spec.Seed, experiments.BundleDiffOptions{
		NumSites:     spec.NumSites,
		MaxSubpages:  spec.MaxSubpages,
		Variant:      spec.Variant,
		FaultProfile: profile,
		FaultSeed:    spec.FaultSeed,
	})
	if err != nil {
		return nil, ArtifactMeta{}, err
	}
	return reportArtifact(spec.Kind, struct {
		Sites        int                `json:"sites"`
		WorldSeed    int64              `json:"worldSeed"`
		Variant      string             `json:"variant"`
		BaseDigest   string             `json:"baseDigest"`
		ReplayDigest string             `json:"replayDigest"`
		Hits         int                `json:"hits"`
		Misses       int                `json:"misses"`
		Diff         *bundle.DiffReport `json:"diff"`
	}{r.Sites, r.WorldSeed, r.Variant, r.Base.Digest, r.Replay.Digest, r.Hits, r.Misses, r.Diff})
}

// executeAgreement runs the static-vs-dynamic tamper agreement experiment
// and seals its per-rule table.
func (d *Daemon) executeAgreement(j *Job) ([]byte, ArtifactMeta, error) {
	spec := j.Spec
	r := experiments.RunStaticDynamicAgreement(spec.Seed, spec.NumSites, nil)
	return reportArtifact(spec.Kind, r)
}

// CacheStats reports the artifact cache's occupancy for /healthz.
func (d *Daemon) CacheStats() (entries int, bytes int64) {
	return d.cache.Len(), d.cache.Bytes()
}

// QueueDepth reports the number of queued jobs.
func (d *Daemon) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queued)
}

// Telemetry exposes the daemon's registry (for /metrics).
func (d *Daemon) Telemetry() *telemetry.Telemetry { return d.tel }

// RetryAfterSeconds is the advisory backoff for 429 responses.
func (d *Daemon) RetryAfterSeconds() int { return d.cfg.RetryAfterSeconds }
