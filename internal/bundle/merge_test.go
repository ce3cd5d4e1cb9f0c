package bundle

import (
	"reflect"
	"strings"
	"testing"

	"gullible/internal/openwpm"
)

// mkShard builds one shard's recorder and storage after a crawl of one
// visit per site, for Finalize unit tests. Each visit stores content, which
// the storage's analyser flags.
func mkShard(content string, sites ...string) (*Recorder, *openwpm.Storage) {
	r := NewRecorder(map[string]string{"scenario": "merge-unit"})
	st := openwpm.NewStorage()
	st.TamperFn = func(string) (openwpm.TamperRecord, bool) {
		return openwpm.TamperRecord{Parsed: true, Findings: []openwpm.TamperFinding{{Rule: "webdriver-probe", Line: 3}}}, true
	}
	for _, site := range sites {
		st.AddScriptFile(site+"d.js", content, "application/javascript")
		st.AddVisit(openwpm.VisitRecord{SiteURL: site, Site: site})
		r.EndVisit()
	}
	return r, st
}

// merged folds shard storages in shard order, as sched.Run does.
func merged(shards ...*openwpm.Storage) *openwpm.Storage {
	st := openwpm.NewStorage()
	for _, sh := range shards {
		st.Merge(sh)
	}
	return st
}

func TestMergeValidation(t *testing.T) {
	if _, err := Finalize(nil, openwpm.CrawlConfig{}, nil, openwpm.NewStorage(), nil); err == nil {
		t.Fatal("finalizing zero recorders must fail")
	}

	// a resumed crawl labelled differently from the run it continues
	a, sa := mkShard("x", "https://a.example/")
	other, so := mkShard("y", "https://b.example/")
	other.meta = map[string]string{"scenario": "something-else"}
	sites := []string{"https://a.example/", "https://b.example/"}
	if _, err := Finalize([]*Recorder{a, other}, openwpm.CrawlConfig{}, sites, merged(sa, so), nil); err == nil || !strings.Contains(err.Error(), "meta") {
		t.Fatalf("manifest meta mismatch must fail loudly, got %v", err)
	}
}

// A recorder visit without a storage visit (or the reverse) would shift every
// later visit onto the wrong rows; Finalize must refuse instead.
func TestFinalizeRejectsVisitCountMismatch(t *testing.T) {
	sites := []string{"https://a.example/", "https://b.example/"}
	rec, st := mkShard("x", sites...)
	short, _ := mkShard("x", sites[0])
	if _, err := Finalize([]*Recorder{short}, openwpm.CrawlConfig{}, sites, st, nil); err == nil || !strings.Contains(err.Error(), "visits") {
		t.Fatalf("1 recorder visit over 2 storage visits: got %v, want a count error", err)
	}
	rec.EndVisit() // a visit the storage never stored
	if _, err := Finalize([]*Recorder{rec}, openwpm.CrawlConfig{}, sites, st, nil); err == nil || !strings.Contains(err.Error(), "visits") {
		t.Fatalf("3 recorder visits over 2 storage visits: got %v, want a count error", err)
	}
}

// A log written before storage rows left the spool carries them in every
// spooled visit; Finalize takes a visit's record and rows from the storage
// alone, so such a log still seals the bundle its crawl recorded.
func TestFinalizeIgnoresSpooledStorageRows(t *testing.T) {
	site := "https://a.example/"
	live, st := mkShard("x", site)
	want, err := Finalize([]*Recorder{live}, openwpm.CrawlConfig{}, []string{site}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := want.Visits[0] // the visit as an older recorder spooled it
	old.JSCalls = []openwpm.JSCall{{Symbol: "stale"}}
	restored := RestoreRecorder(live.meta, live.bodies, []Visit{old})
	got, err := Finalize([]*Recorder{restored}, openwpm.CrawlConfig{}, []string{site}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest {
		t.Fatalf("a visit spooled with storage rows seals %s, want %s", got.Digest, want.Digest)
	}
}

func TestMergeDedupesTamperRows(t *testing.T) {
	// both shards saw the same script body and analysed it independently;
	// the merged storage, and so the bundle, keeps only the globally-first
	// row, like a serial recording would
	a, sa := mkShard("shared", "https://a.example/")
	b, sb := mkShard("shared", "https://b.example/")
	st := merged(sa, sb)
	m, err := Finalize([]*Recorder{a, b}, openwpm.CrawlConfig{}, []string{"https://a.example/", "https://b.example/"}, st, nil)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := len(m.Visits[0].Tampers); got != 1 || m.Visits[0].Tampers[0].URL != "https://a.example/d.js" {
		t.Fatalf("first visit has tamper rows %+v, want the one for https://a.example/d.js", m.Visits[0].Tampers)
	}
	if got := len(m.Visits[1].Tampers); got != 0 {
		t.Fatalf("second visit kept %d duplicate tamper rows, want 0", got)
	}
	if got := len(m.Visits[1].Scripts); got != 1 {
		t.Fatalf("second visit has %d script refs, want its own content write", got)
	}
	// the shard storages and recorders must not have been mutated
	if len(sb.Tampers) != 1 || len(b.visits[0].Tampers) != 0 || b.visits[0].Record.Site != "" {
		t.Fatal("Merge or Finalize mutated a shard's storage or recorder")
	}
}

func TestStorageWritesFor(t *testing.T) {
	visit := func(site string, writes map[string]int) Visit {
		return Visit{Record: openwpm.VisitRecord{SiteURL: site, Site: site}, StorageWrites: writes}
	}
	b := &Bundle{
		Sites: []string{"https://a.example/", "https://b.example/"},
		Visits: []Visit{
			visit("https://a.example/", map[string]int{"javascript": 7, "content": 1}),
			visit("https://b.example/", map[string]int{"javascript": 5}),
		},
	}
	got := b.StorageWritesFor([]string{"https://a.example/"})
	if !reflect.DeepEqual(got, map[string]int{"javascript": 7, "content": 1}) {
		t.Fatalf("StorageWritesFor(prefix) = %v", got)
	}
	all := b.StorageWritesFor(b.Sites)
	if all["javascript"] != 12 {
		t.Fatalf("StorageWritesFor(all) javascript = %d, want 12", all["javascript"])
	}
}
