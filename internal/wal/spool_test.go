package wal_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"gullible/internal/analysis"
	"gullible/internal/bundle"
	"gullible/internal/openwpm"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// TestRecordedLogSpoolsNoStorageRows: a recorded shard log holds each crawl
// fact once. The storage rows are logged as their own records, so a spooled
// bundle visit carries only what the recorder alone saw (exchanges, writes,
// drops); recovery rebuilds the visit boundaries from the log, and the
// recovered shard seals the same bundle as the live one.
func TestRecordedLogSpoolsNoStorageRows(t *testing.T) {
	const sites = 6
	urls := websim.Tranco(sites)
	meta := map[string]string{"scenario": "spool"}
	sm := shardMeta(urls)
	sm.Record, sm.Meta = true, meta
	fs := wal.NewMemFS()
	be, err := wal.Open(fs, sm, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := bundle.NewRecorder(meta)
	rec.Spool = be
	cfg := testConfig(websim.New(websim.Options{Seed: 21, NumSites: sites}))
	cfg.Backend, cfg.Recorder, cfg.Tamper = be, rec, analysis.TamperRecorder
	tm := openwpm.NewTaskManager(cfg)
	report := tm.CrawlFromHooked(urls, &openwpm.Checkpoint{}, openwpm.CrawlHooks{
		OnSite: func(o openwpm.SiteOutcome) {
			if err := be.AppendCheckpoint(o, nil, nil); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		},
	})
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	live := tm.Storage
	if len(live.JSCalls) == 0 || len(live.Cookies) == 0 || len(live.ContentWrites) == 0 || len(live.Tampers) == 0 {
		t.Fatalf("crawl stored %d JS calls, %d cookies, %d content writes, %d tamper rows; the test needs all four",
			len(live.JSCalls), len(live.Cookies), len(live.ContentWrites), len(live.Tampers))
	}

	recs, _, err := wal.Scan(fs)
	if err != nil {
		t.Fatal(err)
	}
	spooled := 0
	for _, r := range recs {
		if r.Kind != "bvisit" {
			continue
		}
		spooled++
		var v bundle.Visit
		if err := json.Unmarshal(r.Data, &v); err != nil {
			t.Fatalf("bvisit %d: %v", spooled, err)
		}
		if v.Record != (openwpm.VisitRecord{}) || v.JSCalls != nil || v.Cookies != nil || v.Scripts != nil || v.Tampers != nil {
			t.Fatalf("bvisit %d spools storage rows: record %+v, %d JS calls, %d cookies, %d scripts, %d tamper rows",
				spooled, v.Record, len(v.JSCalls), len(v.Cookies), len(v.Scripts), len(v.Tampers))
		}
	}
	if spooled != len(live.Visits) {
		t.Fatalf("log spooled %d bundle visits for %d stored visits", spooled, len(live.Visits))
	}

	got, err := wal.RecoverShard(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Storage.VisitEnds, live.VisitEnds) || !reflect.DeepEqual(got.Storage.ContentWrites, live.ContentWrites) {
		t.Fatal("recovery rebuilt different visit ends or content writes than the live crawl stored")
	}
	want, err := bundle.Finalize([]*bundle.Recorder{rec}, tm.Cfg, urls, live, report)
	if err != nil {
		t.Fatal(err)
	}
	restored := bundle.RestoreRecorder(got.Meta.Meta, got.Bodies, got.RecorderVisits)
	b, err := bundle.Finalize([]*bundle.Recorder{restored}, tm.Cfg, urls, got.Storage, report)
	if err != nil {
		t.Fatal(err)
	}
	if b.Digest != want.Digest {
		t.Fatalf("bundle sealed from the recovered log %s, from the live crawl %s", b.Digest, want.Digest)
	}
}
