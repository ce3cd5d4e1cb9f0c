package daemon

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCanonicalize feeds arbitrary JSON to the job-spec decoder and, when it
// decodes, to Canonicalize. Canonicalize must never panic; a spec it accepts
// must canonicalise to itself a second time, and ContentAddress must give the
// spec and its canonical form one address. The committed seeds
// (testdata/fuzz/FuzzCanonicalize) are one spec of each kind, each setting
// fields its kind does not use, and one malformed spec.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s JobSpec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		c, err := Canonicalize(s)
		if err != nil {
			return
		}
		again, err := Canonicalize(c)
		if err != nil {
			t.Fatalf("canonical spec %+v rejected: %v", c, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("Canonicalize is not idempotent:\n%+v\nthen\n%+v", c, again)
		}
		addr, _, err := ContentAddress(s)
		if err != nil {
			t.Fatalf("ContentAddress rejected a spec Canonicalize accepted: %v", err)
		}
		if canon, _, _ := ContentAddress(c); canon != addr {
			t.Fatalf("spec and its canonical form have different addresses: %s vs %s", addr, canon)
		}
	})
}
