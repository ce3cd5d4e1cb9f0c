package sched_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"gullible/internal/sched"
	"gullible/internal/telemetry"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// traceString renders a span stream to its canonical JSON-lines bytes — the
// form the identity assertions compare.
func traceString(t *testing.T, events []telemetry.SpanEvent) string {
	t.Helper()
	var b strings.Builder
	if err := telemetry.WriteTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTraceIdenticalAcrossResumeAndRecovery is the trace plane's determinism
// contract at the scheduler layer: the merged span stream of a crawl must be
// byte-identical whether the crawl ran uninterrupted, was cooperatively
// stopped and resumed in-process, or was killed and rebuilt from its WAL
// shard logs — and the sharded crawl's trace must equal the serial one.
func TestTraceIdenticalAcrossResumeAndRecovery(t *testing.T) {
	const sites = 12
	urls := websim.Tranco(sites)
	meta := map[string]string{"scenario": "trace-identity"}

	var serial string
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(map[int]string{1: "serial", 2: "sharded"}[workers], func(t *testing.T) {
			cold, err := sched.Run(sched.Crawl{
				Sites:      urls,
				Workers:    workers,
				Config:     crawlConfig(websim.New(websim.Options{Seed: 7, NumSites: sites}), telemetry.New()),
				Record:     true,
				BundleMeta: meta,
				Telemetry:  telemetry.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(cold.Trace) == 0 {
				t.Fatal("telemetry-enabled run produced an empty merged trace")
			}
			want := traceString(t, cold.Trace)
			if workers == 1 {
				serial = want
			} else if serial != "" && want != serial { // serial is empty when -run selects only this subtest
				t.Fatalf("%d-worker trace diverges from the serial one:\nserial:\n%s\nsharded:\n%s", workers, serial, want)
			}
			// every span id in the merged stream is begun at most once
			seen := map[int64]bool{}
			for _, ev := range cold.Trace {
				if ev.Kind == "B" {
					if seen[ev.Span] {
						t.Fatalf("merged trace begins span %d twice", ev.Span)
					}
					seen[ev.Span] = true
				}
			}

			// in-process stop + resume
			stop := make(chan struct{})
			var once sync.Once
			crawl := sched.Crawl{
				Sites:         urls,
				Workers:       workers,
				Config:        crawlConfig(websim.New(websim.Options{Seed: 7, NumSites: sites}), telemetry.New()),
				Record:        true,
				BundleMeta:    meta,
				Telemetry:     telemetry.New(),
				ProgressEvery: 1,
				Stop:          stop,
				OnProgress: func(done, total int) {
					if done >= 3 {
						once.Do(func() { close(stop) })
					}
				},
			}
			first, err := sched.Run(crawl)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Interrupted {
				t.Fatalf("crawl was not interrupted (done %d/%d)", first.Checkpoint.Done(), sites)
			}
			crawl.Stop, crawl.OnProgress, crawl.ProgressEvery = nil, nil, 0
			crawl.Resume = first.Checkpoint
			resumed, err := sched.Run(crawl)
			if err != nil {
				t.Fatal(err)
			}
			if got := traceString(t, resumed.Trace); got != want {
				t.Fatalf("in-process resumed trace diverges from cold run:\ncold:\n%s\nresumed:\n%s", want, got)
			}

			// killed process + WAL recovery
			fss := make([]*wal.MemFS, workers)
			for i := range fss {
				fss[i] = wal.NewMemFS()
			}
			stop2 := make(chan struct{})
			var once2 sync.Once
			crawl2 := sched.Crawl{
				Sites:      urls,
				Workers:    workers,
				Config:     crawlConfig(websim.New(websim.Options{Seed: 7, NumSites: sites}), telemetry.New()),
				Record:     true,
				BundleMeta: meta,
				Telemetry:  telemetry.New(),
				Backend: sched.WALBackend(func(sh sched.Shard) wal.FS { return fss[sh.Index] },
					workers, true, meta, wal.Options{}),
				ProgressEvery: 1,
				Stop:          stop2,
				OnProgress: func(done, total int) {
					if done >= 3 {
						once2.Do(func() { close(stop2) })
					}
				},
			}
			interrupted, err := sched.Run(crawl2)
			if err != nil {
				t.Fatal(err)
			}
			if !interrupted.Interrupted {
				t.Fatalf("WAL crawl was not interrupted (done %d/%d)", interrupted.Checkpoint.Done(), sites)
			}
			// drop every live object: recovery must come from the logs alone
			interrupted = nil
			walFSs := make([]wal.FS, workers)
			for i, fs := range fss {
				walFSs[i] = fs
			}
			recovered, _, err := sched.Recover(walFSs, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			crawl2.Stop, crawl2.OnProgress, crawl2.ProgressEvery = nil, nil, 0
			crawl2.Backend = nil
			crawl2.Resume = recovered
			crawl2.Telemetry = telemetry.New()
			crawl2.Config = crawlConfig(websim.New(websim.Options{Seed: 7, NumSites: sites}), telemetry.New())
			final, err := sched.Run(crawl2)
			if err != nil {
				t.Fatal(err)
			}
			if final.Interrupted {
				t.Fatal("recovered run did not complete")
			}
			if got := traceString(t, final.Trace); got != want {
				t.Fatalf("WAL-recovered trace diverges from cold run:\ncold:\n%s\nrecovered:\n%s", want, got)
			}
			if err := final.Checkpoint.CloseBackends(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMergedTraceShardOrder: parts must concatenate in shard order after the
// one crawl root, which opens the trace as span 1.
func TestMergedTraceShardOrder(t *testing.T) {
	const sites = 6
	res, err := sched.Run(sched.Crawl{
		Sites:     websim.Tranco(sites),
		Workers:   3,
		Config:    crawlConfig(websim.New(websim.Options{Seed: 9, NumSites: sites}), telemetry.New()),
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty merged trace")
	}
	first := res.Trace[0]
	if first.Kind != "B" || first.Name != "crawl" || first.Span != 1 {
		t.Fatalf("merged trace must open with crawl span 1, got %+v", first)
	}
	// visits appear in global site order: shard 0's sites before shard 1's
	var visited []string
	for _, ev := range res.Trace {
		if ev.Kind == "B" && ev.Name == "visit" {
			for _, a := range ev.Attrs {
				if a.Key == "site" {
					visited = append(visited, a.Value)
				}
			}
		}
	}
	want := websim.Tranco(sites)
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("merged trace visits out of global order:\n%v\nwant\n%v", visited, want)
	}
}

// TestTraceIdenticalAcrossWorkerCounts: the scheduler owns the crawl root and
// the crawl clock, so a traced crawl merges to the same bytes at any worker
// count — one crawl root over every site, visits on the serial clock.
func TestTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	const sites = 12
	var serial string
	for _, workers := range []int{1, 2, 3, 4} {
		res, err := sched.Run(sched.Crawl{
			Sites:     websim.Tranco(sites),
			Workers:   workers,
			Config:    crawlConfig(websim.New(websim.Options{Seed: 5, NumSites: sites}), telemetry.New()),
			Telemetry: telemetry.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != workers {
			t.Fatalf("crawl ran %d workers, want %d", res.Workers, workers)
		}
		got := traceString(t, res.Trace)
		if workers == 1 {
			serial = got
			continue
		}
		if got != serial {
			t.Fatalf("%d-worker trace diverges from the serial one:\nserial:\n%s\nsharded:\n%s", workers, serial, got)
		}
	}
	if !strings.Contains(serial, `"name":"crawl","ts":0,"attrs":[{"k":"sites","v":"12"}]`) {
		t.Fatalf("serial trace has no 12-site crawl root:\n%s", serial)
	}
}
