package bundle

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the bundle decoder. Decoding plus
// Verify must return a bundle or an error, never panic or hang, and a bundle
// that verifies must re-marshal to bytes that decode and verify again under
// the same digest. The committed seeds (testdata/fuzz/FuzzUnmarshal) are a
// small recorded bundle, a truncated copy and one with a tampered digest.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Unmarshal(data)
		if err != nil {
			if b != nil {
				t.Fatalf("Unmarshal returned both a bundle and error %v", err)
			}
			return
		}
		if b.Verify() != nil {
			return
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("verified bundle does not re-marshal: %v", err)
		}
		again, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled bundle does not decode: %v", err)
		}
		if err := again.Verify(); err != nil {
			t.Fatalf("re-marshalled bundle does not verify: %v", err)
		}
		if again.Digest != b.Digest {
			t.Fatalf("re-marshalled digest %s, original %s", again.Digest, b.Digest)
		}
		if out2, _ := again.Marshal(); !bytes.Equal(out, out2) {
			t.Fatal("second re-marshal changed the bytes")
		}
	})
}
