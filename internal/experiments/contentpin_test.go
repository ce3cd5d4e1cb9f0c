package experiments

import (
	"testing"

	"gullible/internal/faults"
	"gullible/internal/websim"
)

// Pinned artifacts of a faulted, recorded 3-worker scan: 120 sites, 2
// subpages, world seed 42, the default fault profile at fault seed 3. The
// content table feeds both digests (the storage digest's script section and
// each bundle visit's script references), so any change to how served URLs
// and bodies are recorded or merged shows here.
const (
	pinnedScanStorageDigest = "ed7c4e69956ac81f3f3b2965be6bd65b073269d059faf2b4380f06cff5cf438b"
	pinnedScanBundleDigest  = "6b9adc29d20d9713383d2158e004e69e4fb7d1015980bb34c921bf91fe1c95bd"
)

func TestFaultedScanDigestsPinned(t *testing.T) {
	profile := faults.DefaultProfile()
	world := websim.New(websim.Options{Seed: 42, NumSites: 120})
	r, err := RunScanObserved(world, 120, ScanOptions{
		MaxSubpages:  2,
		Workers:      3,
		FaultProfile: &profile,
		FaultSeed:    3,
		RecordBundle: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 3 {
		t.Fatalf("scan used %d workers, want 3", r.Workers)
	}
	// the digest's script section lists every URL that served a body; keep
	// at least one body served from more than one URL in the pinned scan
	urls := map[string]map[string]bool{}
	for _, w := range r.Storage.ContentWrites {
		if urls[w.SHA] == nil {
			urls[w.SHA] = map[string]bool{}
		}
		urls[w.SHA][w.URL] = true
	}
	multi := 0
	for _, set := range urls {
		if len(set) > 1 {
			multi++
		}
	}
	t.Logf("%d writes, %d bodies, %d served from more than one URL", len(r.Storage.ContentWrites), len(urls), multi)
	if multi == 0 {
		t.Fatalf("no body among %d was served from more than one URL", len(urls))
	}
	if got := r.Storage.Digest(); got != pinnedScanStorageDigest {
		t.Errorf("storage digest = %s, want %s", got, pinnedScanStorageDigest)
	}
	if r.Bundle == nil {
		t.Fatal("recorded scan returned no bundle")
	}
	if got := r.Bundle.Digest; got != pinnedScanBundleDigest {
		t.Errorf("bundle digest = %s, want %s", got, pinnedScanBundleDigest)
	}
}
