package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"gullible/internal/telemetry"
)

// benchSpec is the benchmark job: small enough to run many times, big enough
// that the cold path does real crawl work.
var benchSpec = JobSpec{Kind: KindCrawl, NumSites: 10, MaxSubpages: 1}

func benchDaemon(b *testing.B, dir string) *Daemon {
	b.Helper()
	d, err := Open(Config{Dir: dir, Executors: 2, CrawlWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDaemonColdJob measures the full miss path: admission, crawl,
// bundle seal, cache insert. Every iteration uses a distinct seed so nothing
// is served warm.
func BenchmarkDaemonColdJob(b *testing.B) {
	d := benchDaemon(b, b.TempDir())
	defer d.Drain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := benchSpec
		spec.Seed = int64(1000 + i)
		st, err := d.Submit(spec, "bench")
		if err != nil {
			b.Fatal(err)
		}
		j, _ := d.Job(st.ID)
		<-j.Done()
		if s := j.Status(); s.State != JobDone {
			b.Fatalf("job %+v", s)
		}
	}
}

// BenchmarkDaemonWarmJob measures the hit path as a client sees it: one
// cold execution up front, then every iteration resubmits the spec and
// downloads the artifact from the content-addressed cache, both over
// loopback HTTP.
func BenchmarkDaemonWarmJob(b *testing.B) {
	d := benchDaemon(b, b.TempDir())
	defer d.Drain()
	st, err := d.Submit(benchSpec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	j, _ := d.Job(st.ID)
	<-j.Done()
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	hc := srv.Client()
	body, err := json.Marshal(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hc.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var hit JobStatus
		err = json.NewDecoder(res.Body).Decode(&hit)
		res.Body.Close()
		if err != nil || !hit.Cached {
			b.Fatalf("warm submit missed the cache: %+v (%v)", hit, err)
		}
		res, err = hc.Get(srv.URL + "/v1/jobs/" + hit.ID + "/artifact")
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK {
			b.Fatalf("artifact download: %s (%v)", res.Status, err)
		}
	}
}

// BenchmarkDaemonSaturation measures admission under overload: a stalled
// queue (no executors) is filled to depth and then bombarded; the metric is
// rejections per second, i.e. how fast the daemon says no. The benchmark
// reports the hit ratio of admitted to attempted submissions.
func BenchmarkDaemonSaturation(b *testing.B) {
	tel := telemetry.New()
	d := stalledDaemon(b, Config{Dir: b.TempDir(), QueueDepth: 8, TenantBudget: -1, Telemetry: tel})
	for i := 0; ; i++ {
		spec := benchSpec
		spec.Seed = int64(5000 + i)
		if _, err := d.Submit(spec, fmt.Sprintf("t%d", i)); err != nil {
			break // queue full: saturation reached
		}
	}
	b.ResetTimer()
	rejected := 0
	for i := 0; i < b.N; i++ {
		spec := benchSpec
		spec.Seed = int64(100000 + i)
		if _, err := d.Submit(spec, "bench"); err == ErrQueueFull {
			rejected++
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(rejected)/float64(b.N), "rejects/op")
	}
}
