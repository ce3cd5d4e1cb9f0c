package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// Frozen bytes of the identity replay of smallCrawl: its re-recorded bundle
// digest and the SHA-256 of its sealed trace artifact. There is no update
// flag; a diff means the replay path changed an artifact.
const (
	replayJobDigest   = "f87ea4ab1227eb3ee27e86a554c4a59b53b5dcfada20f1a766db1e49eeeff90b"
	replayJobTraceSHA = "c8c3a906cffc24c1fd1ceabcb08fb3cfc79d4c24ff9cc698cea3d1ff6d96f24c"
)

func TestReplayDiffAgreementJobs(t *testing.T) {
	d := openTest(t, t.TempDir(), telemetry.New())
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
	if repDone.Digest != replayJobDigest {
		t.Errorf("replay bundle digest %s, frozen %s", repDone.Digest, replayJobDigest)
	}
	trace, _, ok := d.Artifact(rep.ID + traceSuffix)
	if !ok {
		t.Fatal("replay job sealed no trace artifact")
	}
	if sum := sha256.Sum256(trace); hex.EncodeToString(sum[:]) != replayJobTraceSHA {
		t.Errorf("replay trace SHA-256 %x, frozen %s", sum, replayJobTraceSHA)
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

// TestReplayVerifiesSource: a replay job verifies its cached source bundle
// and checks its digest against the cache entry's before replaying it. An
// entry holding {}, a bundle with one body byte flipped (same size, so the
// cache's size check passes), and an intact bundle filed under another
// entry's digest each fail the job with an error naming the source.
func TestReplayVerifiesSource(t *testing.T) {
	tel := telemetry.New()
	d := openTest(t, t.TempDir(), tel)
	defer d.Drain()
	st, err := d.Submit(smallCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, d, st.ID); done.State != JobDone {
		t.Fatalf("source crawl: %+v", done)
	}
	data, meta, ok := d.Artifact(st.ID)
	if !ok {
		t.Fatal("source crawl sealed no artifact")
	}
	bodies := bytes.Index(data, []byte(`"bodies": {`))
	if bodies < 0 {
		t.Fatal("source bundle has no body pool")
	}
	// the first lower-case letter inside the first body's content
	at := bodies + bytes.Index(data[bodies:], []byte(`": "`)) + 4
	for data[at] < 'a' || data[at] > 'y' {
		at++
	}
	flipped := bytes.Clone(data)
	flipped[at]++
	foreign := meta
	foreign.Digest = strings.Repeat("0", 64)

	// each damaged artifact sits at the address of a crawl spec that never
	// ran, as if that crawl's cache entry had been damaged
	cases := []struct {
		name     string
		artifact []byte
		meta     ArtifactMeta
		want     string
	}{
		{"empty object", []byte("{}\n"), ArtifactMeta{Kind: KindCrawl}, "unsupported format"},
		{"flipped body", flipped, meta, "digest mismatch"},
		{"foreign meta", data, foreign, "cache entry was sealed with"},
	}
	for i, c := range cases {
		spec := smallCrawl
		spec.NumSites = 4 + i
		src := mustAddr(t, spec)
		if err := d.cache.Put(src, c.artifact, c.meta); err != nil {
			t.Fatal(err)
		}
		rep, err := d.Submit(JobSpec{Kind: KindReplay, Source: src, Variant: "none"}, "")
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, d, rep.ID)
		if got.State != JobFailed || !strings.Contains(got.Error, src) || !strings.Contains(got.Error, c.want) {
			t.Errorf("%s: replay finished as %+v; want failed naming %s with %q", c.name, got, src, c.want)
		}
		if n := tel.Snapshot().Counters["daemon_cache_corrupt_total"]; n != int64(i+1) {
			t.Errorf("%s: daemon_cache_corrupt_total = %d, want %d", c.name, n, i+1)
		}
		if d.cache.Contains(src) {
			t.Errorf("%s: the damaged source is still cached", c.name)
		}
		again, err := d.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if again.Cached {
			t.Errorf("%s: resubmitting the source spec was answered from the damaged entry", c.name)
		} else if done := waitDone(t, d, again.ID); done.State != JobDone {
			t.Errorf("%s: the resubmitted source crawl finished as %+v", c.name, done)
		}
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
	return newDaemon(cfg, cache)
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

// TestRecoverCountsDroppedQueueFiles: a queue file that does not decode (a
// torn write) and a valid spec under a name it does not canonicalise to are
// both dropped at open, and each counts as a lost job.
func TestRecoverCountsDroppedQueueFiles(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, "queue")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	addr, canon, err := ContentAddress(smallCrawl)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(queueRec{Seq: 1, Spec: canon})
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(qdir, addr+".json")
	misnamed := filepath.Join(qdir, strings.Repeat("0", len(addr))+".json")
	for name, data := range map[string][]byte{torn: good[:len(good)/2], misnamed: good} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tel := telemetry.New()
	d := openTest(t, dir, tel)
	defer d.Drain()
	if got := tel.Snapshot().Counters["daemon_jobs_lost_total"]; got != 2 {
		t.Fatalf("daemon_jobs_lost_total = %d, want 2", got)
	}
	for _, name := range []string{torn, misnamed} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (stat: %v)", filepath.Base(name), err)
		}
	}
	if d.QueueDepth() != 0 {
		t.Fatalf("a dropped queue file was admitted: depth %d", d.QueueDepth())
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

// queueFiles counts the job specs persisted under dir/queue.
func queueFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "queue"))
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestQueueDepthLimit(t *testing.T) {
	dir := t.TempDir()
	d := stalledDaemon(t, Config{Dir: dir, QueueDepth: 3, TenantBudget: -1})
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: seed}, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: 4}, "t"); err != ErrQueueFull {
		t.Fatalf("fourth submit: %v, want ErrQueueFull", err)
	}
	// a refused job was never persisted
	if n := queueFiles(t, dir); n != 3 {
		t.Fatalf("%d persisted specs, want 3", n)
	}
	d.Drain()

	// recovery re-admits all three past a smaller depth: a previous process
	// already admitted them
	d2 := stalledDaemon(t, Config{Dir: dir, QueueDepth: 2, TenantBudget: -1})
	defer d2.Drain()
	if err := d2.recoverPersisted(); err != nil {
		t.Fatal(err)
	}
	if d2.QueueDepth() != 3 {
		t.Fatalf("recovered depth %d, want 3", d2.QueueDepth())
	}
	if _, err := d2.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: 4}, "t"); err != ErrQueueFull {
		t.Fatalf("submit past the recovered depth: %v, want ErrQueueFull", err)
	}
}

func TestQueueTenantBudget(t *testing.T) {
	d := stalledDaemon(t, Config{Dir: t.TempDir(), TenantBudget: 4})
	defer d.Drain()
	a, err := d.Submit(smallCrawl, "alice") // cost 3
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 2, Seed: 7}, "alice"); err != ErrTenantBudget {
		t.Fatalf("over-budget submit: %v, want ErrTenantBudget", err)
	}
	// another tenant is unaffected
	if _, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 4, Seed: 7}, "bob"); err != nil {
		t.Fatalf("bob's submit: %v", err)
	}

	// the cost is held while the job runs and returned before Done closes,
	// so a submitter woken by Done is admitted against the freed budget
	j, ok := d.next()
	if !ok || j.Addr != a.ID {
		t.Fatalf("next: %v ok=%v, want alice's job", j, ok)
	}
	woken := make(chan error, 1)
	go func() {
		<-j.Done()
		_, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 4, Seed: 8}, "alice")
		woken <- err
	}()
	d.run(j)
	if st := j.Status(); st.State != JobDone {
		t.Fatalf("alice's job finished as %+v", st)
	}
	if err := <-woken; err != nil {
		t.Fatalf("submit after Done: %v", err)
	}
}

func TestQueueNextFIFO(t *testing.T) {
	d := stalledDaemon(t, Config{Dir: t.TempDir()})
	defer d.Drain()
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := d.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: seed}, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i, want := range ids {
		if j, ok := d.next(); !ok || j.Addr != want {
			t.Fatalf("next #%d: %v ok=%v, want %s", i, j, ok, want)
		}
	}
}

func TestQueueNextBlocksUntilAdmit(t *testing.T) {
	d := stalledDaemon(t, Config{Dir: t.TempDir()})
	defer d.Drain()
	got := make(chan *Job, 1)
	go func() {
		j, _ := d.next()
		got <- j
	}()
	st, err := d.Submit(smallCrawl, "t")
	if err != nil {
		t.Fatal(err)
	}
	if j := <-got; j == nil || j.Addr != st.ID {
		t.Fatalf("blocked next returned %v, want %s", j, st.ID)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	// executors blocked on an empty queue: Drain returns only once both
	// woke and exited
	d := stalledDaemon(t, Config{Dir: t.TempDir()})
	for i := 0; i < 2; i++ {
		d.wg.Add(1)
		go d.executor()
	}
	drained := make(chan struct{})
	go func() {
		d.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not wake the blocked executors")
	}

	// a draining daemon hands out no job, even one still queued, and
	// admits nothing; the queued job stays persisted for the next start
	dir := t.TempDir()
	d2 := stalledDaemon(t, Config{Dir: dir})
	st, err := d2.Submit(smallCrawl, "t")
	if err != nil {
		t.Fatal(err)
	}
	d2.Drain()
	if j, ok := d2.next(); ok {
		t.Fatalf("next returned %v after Drain", j)
	}
	if _, err := d2.Submit(JobSpec{Kind: KindCrawl, NumSites: 3, Seed: 7}, "t"); err == nil {
		t.Fatal("a draining daemon admitted a job")
	}
	if j, _ := d2.Job(st.ID); j.Status().State != JobQueued || queueFiles(t, dir) != 1 {
		t.Fatalf("queued job after Drain: %+v, %d persisted specs", j.Status(), queueFiles(t, dir))
	}
}

// TestAdmissionConcurrentSubmitters: submitters and executors share the
// admission state. Every job fails at once (its cached source does not
// decode), so specs are admitted, coalesced, failed and re-admitted while
// other goroutines submit; once all settled, no cost is charged and nothing
// is queued or persisted.
func TestAdmissionConcurrentSubmitters(t *testing.T) {
	dir := t.TempDir()
	d := stalledDaemon(t, Config{Dir: dir, TenantBudget: 8})
	defer d.Drain()
	var srcs []string
	for i := 0; i < 12; i++ {
		src := fmt.Sprintf("%064x", i)
		if err := d.cache.Put(src, []byte("not json\n"), ArtifactMeta{Kind: KindCrawl}); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for i := 0; i < 2; i++ {
		d.wg.Add(1)
		go d.executor()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for _, src := range srcs {
				_, err := d.Submit(JobSpec{Kind: KindReplay, Source: src}, tenant)
				// a replay that found its source damaged evicted it, so a
				// later submit of the same replay is refused at admission
				if err != nil && err != ErrTenantBudget && !strings.Contains(err.Error(), "is not a cached crawl") {
					t.Error(err)
				}
			}
		}(fmt.Sprint("t", g%2))
	}
	wg.Wait()
	for _, src := range srcs {
		addr, _, err := ContentAddress(JobSpec{Kind: KindReplay, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Job(addr); ok {
			if st := waitDone(t, d, addr); st.State != JobFailed {
				t.Fatalf("replay of %s finished as %+v, want failed", src, st)
			}
		}
	}
	d.mu.Lock()
	queued, load := len(d.queued), len(d.load)
	d.mu.Unlock()
	if queued != 0 || load != 0 || queueFiles(t, dir) != 0 {
		t.Fatalf("after every job settled: %d queued, %d tenants charged, %d persisted specs", queued, load, queueFiles(t, dir))
	}
}

// TestSubmitReplayNeedsCachedBundle: a replay whose source is cached but is
// a report or a trace, not a bundle, is refused at submit with 400.
func TestSubmitReplayNeedsCachedBundle(t *testing.T) {
	d := stalledDaemon(t, Config{Dir: t.TempDir()})
	defer d.Drain()
	src := strings.Repeat("a", 64)
	for addr, kind := range map[string]string{src: KindDiff, src + traceSuffix: "trace"} {
		if err := d.cache.Put(addr, []byte("{}\n"), ArtifactMeta{Kind: kind}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Submit(JobSpec{Kind: KindReplay, Source: addr}, ""); err == nil || !strings.Contains(err.Error(), "not a cached crawl or replay bundle") {
			t.Fatalf("replay of a %s artifact: %v, want a not-a-bundle error", kind, err)
		}
		rec := httptest.NewRecorder()
		body := `{"kind":"replay","source":"` + addr + `"}`
		Handler(d).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST replay of a %s artifact: code %d, want 400: %s", kind, rec.Code, rec.Body)
		}
	}
	if d.QueueDepth() != 0 {
		t.Fatalf("a refused replay was queued (depth %d)", d.QueueDepth())
	}
}

// TestSubmitReadmitsFailedJob: a failed job reports its error on the
// artifact route, frees its spec and budget, and a resubmission of its spec
// is admitted again rather than answered with the stale failure.
func TestSubmitReadmitsFailedJob(t *testing.T) {
	dir := t.TempDir()
	d := stalledDaemon(t, Config{Dir: dir, TenantBudget: 1})
	defer d.Drain()
	src := strings.Repeat("b", 64)
	if err := d.cache.Put(src, []byte("{}\n"), ArtifactMeta{Kind: KindCrawl}); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindReplay, Source: src, Variant: "none"}
	st, err := d.Submit(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// the source leaves the cache before an executor takes the job
	d.cache.drop(src)
	j, ok := d.next()
	if !ok {
		t.Fatal("no queued job")
	}
	d.run(j)
	failed := j.Status()
	if failed.State != JobFailed || !strings.Contains(failed.Error, "not in the cache") {
		t.Fatalf("job finished as %+v, want failed on the missing source", failed)
	}
	if n := queueFiles(t, dir); n != 0 {
		t.Fatalf("%d persisted specs after the failure, want 0", n)
	}

	rec := httptest.NewRecorder()
	Handler(d).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/artifact", nil))
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "failed") ||
		!strings.Contains(rec.Body.String(), "not in the cache") {
		t.Fatalf("GET artifact of a failed job: code %d, body %s", rec.Code, rec.Body)
	}

	if err := d.cache.Put(src, []byte("{}\n"), ArtifactMeta{Kind: KindCrawl}); err != nil {
		t.Fatal(err)
	}
	again, err := d.Submit(spec, "alice") // within alice's budget of 1 again
	if err != nil {
		t.Fatal(err)
	}
	if again.State != JobQueued || d.QueueDepth() != 1 || queueFiles(t, dir) != 1 {
		t.Fatalf("resubmit of a failed spec: %+v, depth %d", again, d.QueueDepth())
	}
}
