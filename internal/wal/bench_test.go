package wal_test

import (
	"fmt"
	"testing"

	"gullible/internal/openwpm"
	"gullible/internal/wal"
)

// benchRecords is the per-iteration record count: enough appends that
// per-record cost dominates setup.
const benchRecords = 2000

func benchCall(i int) openwpm.JSCall {
	return openwpm.JSCall{
		TopURL:    fmt.Sprintf("http://site-%03d.example/", i%37),
		FrameURL:  fmt.Sprintf("http://site-%03d.example/frame", i%37),
		Symbol:    "window.navigator.userAgent",
		Operation: "get",
		Value:     "Mozilla/5.0 (X11; Linux x86_64)",
		ScriptURL: fmt.Sprintf("http://cdn.example/lib-%02d.js", i%11),
		Time:      float64(i) * 0.25,
	}
}

// BenchmarkBackendAppend measures records/sec through each storage backend:
// the in-memory no-op baseline, and the WAL at each fsync policy (real files,
// real fsync — the checkpoint variant commits every 50 records the way a
// crawl checkpoints every site).
func BenchmarkBackendAppend(b *testing.B) {
	run := func(b *testing.B, make func(b *testing.B) openwpm.Backend) {
		for i := 0; i < b.N; i++ {
			be := make(b)
			for j := 0; j < benchRecords; j++ {
				if err := be.AppendJSCall(benchCall(j)); err != nil {
					b.Fatal(err)
				}
				if j%50 == 49 {
					var o openwpm.SiteOutcome
					if err := be.AppendCheckpoint(o, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := be.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(benchRecords*b.N)/b.Elapsed().Seconds(), "recs/s")
	}

	b.Run("store=memory", func(b *testing.B) {
		run(b, func(b *testing.B) openwpm.Backend { return openwpm.MemBackend{} })
	})
	for _, sync := range []wal.SyncPolicy{wal.SyncOff, wal.SyncCheckpoint, wal.SyncAlways} {
		sync := sync
		b.Run(fmt.Sprintf("store=wal/fsync=%s", sync), func(b *testing.B) {
			run(b, func(b *testing.B) openwpm.Backend {
				be, err := wal.Open(wal.DirFS{Dir: b.TempDir()}, wal.ShardMeta{Workers: 1}, wal.Options{Sync: sync})
				if err != nil {
					b.Fatal(err)
				}
				return be
			})
		})
	}
}
