package main

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gullible/internal/bundle"
	"gullible/internal/faults"
	"gullible/internal/httpsim"
	"gullible/internal/openwpm"
	"gullible/internal/sched"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// faultyProfile drops one storage write in twenty, so short crawls are sure
// to exercise the storage-fault hook.
func faultyProfile() faults.Profile {
	p := faults.DefaultProfile()
	p.StoragePerMille = 50
	return p
}

// crawl runs sites through sched.Run on one worker, wrapping each shard's
// transport when wrap is set.
func crawl(t *testing.T, sites []string, record, wrap bool, transport func() httpsim.RoundTripper) *sched.Result {
	t.Helper()
	tr := newTracer(true)
	lanes := tr.shardLanes(1, -1)
	res, err := sched.Run(sched.Crawl{
		Sites:   sites,
		Workers: 1,
		Record:  record,
		Config: func(sh sched.Shard) openwpm.CrawlConfig {
			rt := transport()
			if wrap {
				rt = wrapTransport(rt, lanes[sh.Index])
			}
			return scanConfig(rt, 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTransportWrapperForwardsCapabilities(t *testing.T) {
	world := websim.New(websim.Options{Seed: 7})
	ln := newTracer(true).main
	capabilities := func(rt httpsim.RoundTripper) (sf, fc bool) {
		_, sf = rt.(storageFaulter)
		_, fc = rt.(faultCounter)
		return
	}
	for _, c := range []struct {
		name   string
		rt     httpsim.RoundTripper
		sf, fc bool
	}{
		{"world", world, false, false},
		{"fault injector", faults.NewInjector(1, faultyProfile(), world), true, true},
		{"replay transport", bundle.NewReplayTransport(&bundle.Bundle{}, bundle.MissFail, nil), true, false},
	} {
		sf, fc := capabilities(wrapTransport(c.rt, ln))
		if sf != c.sf || fc != c.fc {
			t.Errorf("%s: wrapper exposes StorageFault=%v CountsByName=%v, want %v %v", c.name, sf, fc, c.sf, c.fc)
		}
	}

	// behaviour, not just method sets: a faulted crawl through the wrapped
	// injector drops the same writes and tallies the same faults
	sites := websim.Tranco(8)
	injector := func() httpsim.RoundTripper { return faults.NewInjector(1, faultyProfile(), world) }
	plain := crawl(t, sites, true, false, injector)
	wrapped := crawl(t, sites, true, true, injector)
	if plain.Report.DroppedWrites == 0 {
		t.Fatal("the faulted crawl dropped no storage writes; the test proves nothing")
	}
	if plain.Storage.Digest() != wrapped.Storage.Digest() || plain.Bundle.Digest != wrapped.Bundle.Digest {
		t.Error("wrapping the fault injector changed the crawl's storage or bundle")
	}
	if !reflect.DeepEqual(plain.FaultKinds, wrapped.FaultKinds) || len(plain.FaultKinds) == 0 {
		t.Errorf("fault tallies %v through the wrapper, %v without", wrapped.FaultKinds, plain.FaultKinds)
	}

	// the replay transport re-drops the archived writes through the wrapper
	replay := func() httpsim.RoundTripper { return bundle.NewReplayTransport(plain.Bundle, bundle.MissFail, nil) }
	replayed := crawl(t, sites, false, true, replay)
	if replayed.Storage.Digest() != plain.Storage.Digest() {
		t.Error("a replay through the wrapped replay transport differs from the recording")
	}
}

func TestBackendWrapperForwardsSpool(t *testing.T) {
	ln := newTracer(true).main
	if _, ok := wrapBackend(openwpm.MemBackend{}, ln).(bundle.Spool); ok {
		t.Error("wrapped memory backend claims bundle.Spool")
	}
	be, err := wal.Open(wal.DirFS{Dir: t.TempDir()}, wal.ShardMeta{Workers: 1}, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if _, ok := wrapBackend(be, ln).(bundle.Spool); !ok {
		t.Error("wrapped WAL backend hides bundle.Spool")
	}
	if wrapBackend(nil, ln) != nil || !ln.failed {
		t.Error("a nil backend must stay nil and mark the shard failed")
	}
}

// TestTracedPassesMatchUntraced is the wrappers' transparency check: every
// workload's traced pass stores the bytes its untraced pass stores.
func TestTracedPassesMatchUntraced(t *testing.T) {
	size := smokeSizes(2)
	size.ScanSites = 8
	size.Subpages = 2
	for _, name := range []string{"scan", "record-replay", "compare", "daemon-warm"} {
		spec := passSpec{Workload: name, Seed: 42, Workers: 2, Size: size}
		w := workloads[name]
		measured, err := w.measure(spec, 0)
		if err != nil {
			t.Fatalf("%s measure: %v", name, err)
		}
		spec.SpansOut = filepath.Join(t.TempDir(), "spans.jsonl")
		traced, err := w.traced(spec, 0, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		for _, r := range []*passResult{measured, traced} {
			if len(r.Problems) > 0 {
				t.Errorf("%s %s: %v", name, r.Kind, r.Problems)
			}
		}
		compared := 0
		for k, d := range traced.Digests {
			if m, ok := measured.Digests[k]; ok {
				compared++
				if m != d {
					t.Errorf("%s: traced %s digest %s, untraced %s", name, k, d, m)
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: traced and untraced passes share no digest", name)
		}
		lt := traced.Layers
		if lt == nil || lt.Sites == 0 || lt.AccountedPct < 98 || lt.AccountedPct > 102 {
			t.Fatalf("%s: layer table %+v", name, lt)
		}
		for _, row := range []string{spanHTTP, rowOther, spanAppend} {
			if lt.row(row).Count == 0 {
				t.Errorf("%s: no %s spans", name, row)
			}
		}
		if lt.row(spanInstrument).Count+lt.row(spanStealth).Count == 0 {
			t.Errorf("%s: no instrument spans", name)
		}
		if n := countLines(t, spec.SpansOut); n < lt.Sites {
			t.Errorf("%s: %d span lines for %d sites", name, n, lt.Sites)
		}
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		n++
	}
	return n
}
