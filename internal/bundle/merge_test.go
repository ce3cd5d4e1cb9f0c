package bundle

import (
	"reflect"
	"strings"
	"testing"

	"gullible/internal/openwpm"
)

// mkRecorder builds a shard recorder that archived one site's visit, for
// Finalize unit tests.
func mkRecorder(site string, writes map[string]int, drops map[string][]int) *Recorder {
	r := NewRecorder(map[string]string{"scenario": "merge-unit"})
	r.visits = []Visit{{
		Record:        openwpm.VisitRecord{SiteURL: site, Site: site},
		StorageWrites: writes,
	}}
	for table, seqs := range drops {
		r.drops[table] = seqs
	}
	return r
}

func TestMergeRenumbersStorageDrops(t *testing.T) {
	// shard 0: 10 js writes, dropped the 3rd; shard 1: 5 js writes, dropped
	// its local 2nd and 4th — globally writes 12 and 14
	a := mkRecorder("https://a.example/", map[string]int{"javascript": 10}, map[string][]int{"javascript": {3}})
	b := mkRecorder("https://b.example/", map[string]int{"javascript": 5, "content": 2}, map[string][]int{"javascript": {2, 4}, "content": {1}})
	sites := []string{"https://a.example/", "https://b.example/"}
	m, err := Finalize([]*Recorder{a, b}, openwpm.CrawlConfig{}, sites, nil, nil)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got, want := m.StorageDrops["javascript"], []int{3, 12, 14}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged javascript drops = %v, want %v", got, want)
	}
	// content had no writes in shard 0, so shard 1's drop keeps its position
	if got, want := m.StorageDrops["content"], []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged content drops = %v, want %v", got, want)
	}
	if got := len(m.Visits); got != 2 {
		t.Fatalf("merged bundle has %d visits, want 2", got)
	}
	if m.Digest == "" {
		t.Fatal("merged bundle is unsealed")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("merged bundle fails verification: %v", err)
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Finalize(nil, openwpm.CrawlConfig{}, nil, nil, nil); err == nil {
		t.Fatal("finalizing zero recorders must fail")
	}

	// a resumed crawl labelled differently from the run it continues
	a := mkRecorder("https://a.example/", nil, nil)
	other := mkRecorder("https://b.example/", nil, nil)
	other.meta = map[string]string{"scenario": "something-else"}
	sites := []string{"https://a.example/", "https://b.example/"}
	if _, err := Finalize([]*Recorder{a, other}, openwpm.CrawlConfig{}, sites, nil, nil); err == nil || !strings.Contains(err.Error(), "meta") {
		t.Fatalf("manifest meta mismatch must fail loudly, got %v", err)
	}
}

func TestMergeDedupesTamperRows(t *testing.T) {
	// both shards saw the same script body and analysed it independently;
	// the bundle must keep only the globally-first row, like a serial
	// recording would
	rec := openwpm.TamperRecord{SHA256: "aa", URL: "https://cdn.example/d.js", Parsed: true,
		Findings: []openwpm.TamperFinding{{Rule: "webdriver-probe", Line: 3}}}
	a := mkRecorder("https://a.example/", nil, nil)
	a.visits[0].Tampers = []openwpm.TamperRecord{rec}
	b := mkRecorder("https://b.example/", nil, nil)
	b.visits[0].Tampers = []openwpm.TamperRecord{rec}
	m, err := Finalize([]*Recorder{a, b}, openwpm.CrawlConfig{}, []string{"https://a.example/", "https://b.example/"}, nil, nil)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := len(m.Visits[0].Tampers); got != 1 {
		t.Fatalf("first visit has %d tamper rows, want 1", got)
	}
	if got := len(m.Visits[1].Tampers); got != 0 {
		t.Fatalf("second visit kept %d duplicate tamper rows, want 0", got)
	}
	// the recorders must not have been mutated
	if len(b.visits[0].Tampers) != 1 {
		t.Fatal("Finalize mutated a recorder's tamper rows")
	}
}

func TestOffsetStorageLocalisesGlobalDrops(t *testing.T) {
	b := &Bundle{
		Manifest:     Manifest{Format: Format, Tool: Tool},
		Sites:        []string{"https://a.example/"},
		Visits:       []Visit{{StorageWrites: map[string]int{"javascript": 20}}},
		StorageDrops: map[string][]int{"javascript": {3, 12, 14}},
	}
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	rt := NewReplayTransport(b, MissFail, nil)
	// this worker starts after 10 global writes: its local writes 1..4 are
	// global 11..14, so global drops 12 and 14 hit local writes 2 and 4
	rt.OffsetStorage(map[string]int{"javascript": 10})
	want := []bool{false, true, false, true}
	for i, w := range want {
		if got := rt.StorageFault("javascript"); got != w {
			t.Fatalf("offset write %d: StorageFault = %v, want %v", i+1, got, w)
		}
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
