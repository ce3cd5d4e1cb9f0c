package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"gullible/internal/websim"
)

// scanGolden is the frozen record of the engine-parity crawl: the storage
// digest, JS call tally and rendered report captured when the tree-walking
// interpreter was the live oracle. There is deliberately no update flag — a
// diff is a semantics change and must be justified.
type scanGolden struct {
	WorldSeed int64  `json:"world_seed"`
	Sites     int    `json:"sites"`
	Subpages  int    `json:"subpages"`
	Digest    string `json:"digest"`
	JSCalls   int    `json:"js_calls"`
	Report    string `json:"report"`
}

const scanGoldenPath = "testdata/vmscan.golden.json"

// TestVMScanMatchesInterpreter is the engine-parity acceptance scenario: a
// crawl executed on the JS engine must reproduce the frozen artifacts —
// storage digest, report, JS call tally — byte for byte. Any semantics drift
// (values, errors, step accounting, property-access hook order) surfaces
// here as a digest delta.
func TestVMScanMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic-web crawl; skipped in -short mode")
	}
	raw, err := os.ReadFile(scanGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want scanGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode %s: %v", scanGoldenPath, err)
	}
	world := websim.New(websim.Options{Seed: want.WorldSeed, NumSites: want.Sites})
	r, err := RunScanObserved(world, want.Sites, ScanOptions{MaxSubpages: want.Subpages, Workers: 1}, nil)
	if err != nil {
		t.Fatalf("RunScanObserved: %v", err)
	}
	if got := r.Storage.Digest(); got != want.Digest {
		t.Errorf("storage digest %s, golden %s", got, want.Digest)
	}
	if got := len(r.Storage.JSCalls); got != want.JSCalls {
		t.Errorf("JS call tally %d, golden %d", got, want.JSCalls)
	}
	if got := r.Report.String(); got != want.Report {
		t.Errorf("report diverges:\ngot:\n%s\ngolden:\n%s", got, want.Report)
	}
}
