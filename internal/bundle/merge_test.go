package bundle

import (
	"reflect"
	"strings"
	"testing"

	"gullible/internal/openwpm"
)

// mkRecorder builds a shard recorder that archived one site's visit, for
// Finalize unit tests.
func mkRecorder(site string) *Recorder {
	r := NewRecorder(map[string]string{"scenario": "merge-unit"})
	r.visits = []Visit{{Record: openwpm.VisitRecord{SiteURL: site, Site: site}}}
	return r
}

func TestMergeValidation(t *testing.T) {
	if _, err := Finalize(nil, openwpm.CrawlConfig{}, nil, nil, nil); err == nil {
		t.Fatal("finalizing zero recorders must fail")
	}

	// a resumed crawl labelled differently from the run it continues
	a := mkRecorder("https://a.example/")
	other := mkRecorder("https://b.example/")
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
	a := mkRecorder("https://a.example/")
	a.visits[0].Tampers = []openwpm.TamperRecord{rec}
	b := mkRecorder("https://b.example/")
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
