package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gullible/internal/telemetry"
)

// smallCrawl is the test workhorse: tiny, deterministic, fast.
var smallCrawl = JobSpec{Kind: KindCrawl, NumSites: 3, MaxSubpages: 1}

// openTest opens a daemon over dir with test-friendly sizing.
func openTest(t *testing.T, dir string, tel *telemetry.Telemetry) *Daemon {
	t.Helper()
	d, err := Open(Config{Dir: dir, Executors: 1, CrawlWorkers: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// waitDone blocks until the daemon's job for addr reaches a terminal state.
func waitDone(t *testing.T, d *Daemon, addr string) JobStatus {
	t.Helper()
	j, ok := d.Job(addr)
	if !ok {
		t.Fatalf("job %s unknown to the daemon", addr)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish: %+v", addr, j.Status())
	}
	return j.Status()
}

func TestSubmitExecutesAndCaches(t *testing.T) {
	tel := telemetry.New()
	d := openTest(t, t.TempDir(), tel)
	defer d.Drain()

	st, err := d.Submit(smallCrawl, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.Cached {
		t.Fatalf("first submit: %+v", st)
	}
	done := waitDone(t, d, st.ID)
	if done.State != JobDone || done.Digest == "" {
		t.Fatalf("job finished as %+v", done)
	}
	data, meta, ok := d.Artifact(st.ID)
	if !ok || meta.Digest != done.Digest || int64(len(data)) != meta.Bytes {
		t.Fatalf("artifact: ok=%v meta=%+v len=%d", ok, meta, len(data))
	}

	// the identical request — spelled with explicit defaults — hits the cache
	again, err := d.Submit(JobSpec{
		Kind: KindCrawl, NumSites: 3, MaxSubpages: 1,
		Seed: DefaultSeed, Faults: DefaultFaults,
	}, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != JobDone || again.Digest != done.Digest {
		t.Fatalf("second submit missed the cache: %+v", again)
	}
	snap := tel.Snapshot()
	if snap.Counters["daemon_cache_hits_total"] != 1 {
		t.Fatalf("hit counter = %d, want 1", snap.Counters["daemon_cache_hits_total"])
	}
	if snap.Counters["daemon_cache_misses_total"] != 1 {
		t.Fatalf("miss counter = %d, want 1", snap.Counters["daemon_cache_misses_total"])
	}
	// the crawl's JS instrument installs reach the daemon's registry, so
	// /metrics shows how often a window fell back to running the script
	if snap.Counters["js_instrument_installs_total{path=image}"] == 0 {
		t.Fatalf("no image installs counted: %v", snap.Counters)
	}
	if _, ok := snap.Counters["js_instrument_installs_total{path=script}"]; !ok {
		t.Fatal("script install series missing from the registry")
	}

	// the queue spec and job WAL are gone once the artifact sealed
	if _, err := os.Stat(filepath.Join(d.cfg.Dir, "queue", st.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("queue spec survived completion: %v", err)
	}
	if _, err := os.Stat(filepath.Join(d.cfg.Dir, "jobs", st.ID)); !os.IsNotExist(err) {
		t.Fatalf("job WAL dir survived completion: %v", err)
	}
}

func TestWarmHitAcrossRestartAndColdDeterminism(t *testing.T) {
	dirA := t.TempDir()
	d1 := openTest(t, dirA, nil)
	st, err := d1.Submit(smallCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, d1, st.ID)
	art1, _, _ := d1.Artifact(st.ID)
	d1.Drain()

	// a restarted daemon over the same dir serves the sealed artifact
	d2 := openTest(t, dirA, nil)
	defer d2.Drain()
	warm, err := d2.Submit(smallCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Digest != first.Digest {
		t.Fatalf("warm submit after restart: %+v, want cached digest %s", warm, first.Digest)
	}

	// a cold daemon in a fresh dir reproduces the artifact byte-identically
	d3 := openTest(t, t.TempDir(), nil)
	defer d3.Drain()
	st3, err := d3.Submit(smallCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, d3, st3.ID)
	art3, _, _ := d3.Artifact(st3.ID)
	if cold.Digest != first.Digest {
		t.Fatalf("cold digest %s != first %s", cold.Digest, first.Digest)
	}
	if !bytes.Equal(art1, art3) {
		t.Fatal("cold artifact bytes differ from the first run's")
	}
}

func TestReplayDiffAgreementJobs(t *testing.T) {
	d := openTest(t, t.TempDir(), nil)
	defer d.Drain()

	st, err := d.Submit(smallCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	crawlDone := waitDone(t, d, st.ID)

	// a replay whose source is not cached is rejected up front
	if _, err := d.Submit(JobSpec{Kind: KindReplay, Source: "deadbeef"}, ""); err == nil {
		t.Fatal("replay with an uncached source was admitted")
	}

	rep, err := d.Submit(JobSpec{Kind: KindReplay, Source: st.ID, Variant: "none"}, "")
	if err != nil {
		t.Fatal(err)
	}
	repDone := waitDone(t, d, rep.ID)
	if repDone.State != JobDone || repDone.Digest == "" {
		t.Fatalf("replay job: %+v", repDone)
	}
	if repDone.Digest == crawlDone.Digest {
		t.Fatal("replay bundle digest equals the source digest (recorder not engaged?)")
	}

	diff, err := d.Submit(JobSpec{Kind: KindDiff, NumSites: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if diffDone := waitDone(t, d, diff.ID); diffDone.State != JobDone {
		t.Fatalf("diff job: %+v", diffDone)
	}
	data, meta, _ := d.Artifact(diff.ID)
	if meta.ContentType != "application/json" || !bytes.Contains(data, []byte("replayDigest")) {
		t.Fatalf("diff artifact meta=%+v body=%q…", meta, data[:min(len(data), 80)])
	}

	agr, err := d.Submit(JobSpec{Kind: KindAgreement, NumSites: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if agrDone := waitDone(t, d, agr.ID); agrDone.State != JobDone {
		t.Fatalf("agreement job: %+v", agrDone)
	}
}

// stalledDaemon builds a daemon with no executor pool: admitted jobs stay
// queued forever, which makes admission-control outcomes deterministic.
func stalledDaemon(t testing.TB, cfg Config) *Daemon {
	t.Helper()
	cfg = cfg.withDefaults()
	cache, err := OpenCache(filepath.Join(cfg.Dir, "cache"), cfg.CacheBytes, cfg.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"queue", "jobs"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return &Daemon{
		cfg: cfg, tel: cfg.Telemetry, cache: cache,
		queue: NewQueue(cfg.QueueDepth, cfg.TenantBudget),
		stop:  make(chan struct{}), jobs: map[string]*Job{},
	}
}

func TestSubmitAdmissionControl(t *testing.T) {
	d := stalledDaemon(t, Config{Dir: t.TempDir(), QueueDepth: 2, TenantBudget: 5})

	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3}, "alice"); err != nil {
		t.Fatal(err)
	}
	// same spec again: coalesced onto the queued job, not re-admitted
	st, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || d.QueueDepth() != 1 {
		t.Fatalf("coalesce: state=%s depth=%d", st.State, d.QueueDepth())
	}
	// alice's budget (5) is spent (3): a 3-site job busts it
	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: 7}, "alice"); err != ErrTenantBudget {
		t.Fatalf("over-budget submit: %v, want ErrTenantBudget", err)
	}
	// bob has his own budget and the queue has a slot
	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: 7}, "bob"); err != nil {
		t.Fatal(err)
	}
	// the queue (depth 2) is now full for everyone
	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: 8}, "carol"); err != ErrQueueFull {
		t.Fatalf("full-queue submit: %v, want ErrQueueFull", err)
	}
}

func TestDrainPersistsQueuedJobsForNextStart(t *testing.T) {
	dir := t.TempDir()
	d := stalledDaemon(t, Config{Dir: dir})
	st, err := d.Submit(smallCrawl, "alice")
	if err != nil {
		t.Fatal(err)
	}
	d.Drain() // no executors: the queued job is left persisted

	d2 := openTest(t, dir, nil)
	defer d2.Drain()
	done := waitDone(t, d2, st.ID)
	if done.State != JobDone {
		t.Fatalf("recovered job finished as %+v", done)
	}
}

// TestDrainMidCrawlAndRecover is the acceptance path: kill -TERM mid-job →
// the in-flight crawl checkpoints and seals its WAL, the restarted daemon
// recovers it from the log and completes digest-identical to an
// uninterrupted run.
func TestDrainMidCrawlAndRecover(t *testing.T) {
	spec := JobSpec{Kind: KindCrawl, NumSites: 40, MaxSubpages: 1}

	// reference: the same job, uninterrupted, in a separate daemon
	ref := openTest(t, t.TempDir(), nil)
	refSt, err := ref.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitDone(t, ref, refSt.ID)
	refArt, _, _ := ref.Artifact(refSt.ID)
	ref.Drain()

	dir := t.TempDir()
	tel := telemetry.New()
	d := openTest(t, dir, tel)
	st, err := d.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	// wait until the crawl has made real progress, then drain mid-job
	deadline := time.Now().Add(120 * time.Second)
	for tel.Snapshot().Gauges["crawl_progress_done"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("crawl never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	interrupted := d.Drain()

	j, _ := d.Job(st.ID)
	switch j.Status().State {
	case JobInterrupted:
		if interrupted != 1 {
			t.Fatalf("Drain reported %d interrupted jobs, want 1", interrupted)
		}
		// the spec and the sealed WAL survive for the next start
		if _, err := os.Stat(filepath.Join(dir, "queue", st.ID+".json")); err != nil {
			t.Fatalf("queue spec missing after drain: %v", err)
		}
		if fss, err := os.ReadDir(filepath.Join(dir, "jobs", st.ID)); err != nil || len(fss) == 0 {
			t.Fatalf("job WAL shards missing after drain: %v", err)
		}
	case JobDone:
		// the crawl beat the drain to the finish line; determinism still
		// holds below, but the recovery path was not exercised
		t.Log("crawl completed before the drain landed; recovery path not hit")
	default:
		t.Fatalf("after drain, job is %+v", j.Status())
	}

	// restart over the same dir: the job is recovered and finished
	d2 := openTest(t, dir, nil)
	defer d2.Drain()
	done := waitDone(t, d2, st.ID)
	if done.State != JobDone {
		t.Fatalf("recovered job finished as %+v", done)
	}
	if done.Digest != refDone.Digest {
		t.Fatalf("recovered digest %s != uninterrupted %s", done.Digest, refDone.Digest)
	}
	art, _, _ := d2.Artifact(st.ID)
	if !bytes.Equal(art, refArt) {
		t.Fatal("recovered artifact bytes differ from the uninterrupted run")
	}
}
