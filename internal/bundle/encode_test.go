package bundle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gullible/internal/openwpm"
)

// oracle is the encoding the canonical encoder must reproduce byte for byte.
func oracle(t testing.TB, b *Bundle, digest string) []byte {
	t.Helper()
	c := *b
	c.Digest = digest
	want, err := json.MarshalIndent(&c, "", " ")
	if err != nil {
		t.Fatalf("json.MarshalIndent: %v", err)
	}
	return want
}

// checkEncoding compares Marshal and ComputeDigest with the oracle, with the
// bundle's digest set and with it blanked.
func checkEncoding(t testing.TB, b *Bundle) {
	t.Helper()
	got, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if want := oracle(t, b, b.Digest); !bytes.Equal(got, want) {
		t.Fatalf("Marshal differs from json.MarshalIndent at byte %d of %d (want %d)", firstDiff(got, want), len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Errorf("Marshal returned cap %d for %d bytes; want a slice sized to the document", cap(got), len(got))
	}
	blank, err := b.canonicalParts("")
	if err != nil {
		t.Fatalf("canonicalParts: %v", err)
	}
	want := oracle(t, b, "")
	if got := bytes.Join(blank, nil); !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding differs from json.MarshalIndent at byte %d", firstDiff(got, want))
	}
	sum := sha256.Sum256(want)
	if d, err := b.ComputeDigest(); err != nil || d != hex.EncodeToString(sum[:]) {
		t.Fatalf("ComputeDigest = %s, %v; want %x", d, err, sum)
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestBundleFieldsMatchEncoder keeps canonicalParts in step with Bundle: a
// field added, renamed, re-tagged or moved fails here until the encoder
// writes it and this list, the fields canonicalParts writes in order, is
// updated.
func TestBundleFieldsMatchEncoder(t *testing.T) {
	encoded := []string{
		"manifest", "config", "sites,omitempty", "visits,omitempty",
		"crashes,omitempty", "bodies,omitempty", "report,omitempty", "digest,omitempty",
	}
	typ := reflect.TypeOf(Bundle{})
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		tags = append(tags, typ.Field(i).Tag.Get("json"))
	}
	if !reflect.DeepEqual(tags, encoded) {
		t.Fatalf("Bundle's JSON fields are %q; the canonical encoder writes %q", tags, encoded)
	}
}

// TestMarshalMatchesMarshalIndent checks the encoder against its oracle on a
// recorded faulted crawl, on edge-case bundles, and on random bundles that
// populate every field (testing/quick draws arbitrary strings, floats, maps
// and nil or non-nil pointers), at several visit-chunk widths.
func TestMarshalMatchesMarshalIndent(t *testing.T) {
	cfg, sites := faultedConfig(61, 8, 12)
	cfg.Tamper = func(content string) (openwpm.TamperRecord, bool) {
		return openwpm.TamperRecord{URL: "<x>& ", Findings: []openwpm.TamperFinding{{Rule: "r", Detail: "\"\\"}}}, true
	}
	recorded, _, _, err := recordCrawl(cfg, sites, map[string]string{"a<b": "c&d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Visits) == 0 || len(recorded.Bodies) == 0 {
		t.Fatalf("recorded bundle has %d visits and %d bodies; want both", len(recorded.Visits), len(recorded.Bodies))
	}
	bundles := map[string]*Bundle{
		"recorded": recorded,
		"empty":    {},
		"empty-collections": {
			Sites: []string{}, Visits: []Visit{}, Bodies: map[string]string{},
			Report: &openwpm.CrawlReport{ErrorClasses: map[string]int{}},
		},
		"empty-members": {
			Visits: []Visit{{}, {Exchanges: []Exchange{{Headers: map[string]string{}}}, StorageWrites: map[string]int{}}},
			Bodies: map[string]string{"": "", "\x00": "\"\\/ \xff"},
		},
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 6; i++ {
		v, ok := quick.Value(reflect.TypeOf(Bundle{}), rng)
		if !ok {
			t.Fatal("quick.Value cannot generate a Bundle")
		}
		b := v.Interface().(Bundle)
		bundles["random-"+strconv.Itoa(i)] = &b
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for name, b := range bundles {
			t.Run(name+"/procs="+strconv.Itoa(procs), func(t *testing.T) {
				checkEncoding(t, b)
				if err := b.Seal(); err != nil {
					t.Fatal(err)
				}
				checkEncoding(t, b)
			})
		}
	}
}

// TestAppendIndentedMatchesIndent runs the indentation pass alone against
// json.Indent on values with nesting, empty containers and strings whose
// escapes end in backslash runs.
func TestAppendIndentedMatchesIndent(t *testing.T) {
	values := []any{
		map[string]any{"a": []any{}, "b": map[string]any{}, "c": []any{1, "x", nil, true, []any{[]any{}}}},
		[]string{`\`, `\\`, `"`, `\"`, `a\\"b`, "", "{[,:]}"},
		-1.5e-300, "plain", nil, false,
	}
	for _, v := range values {
		src, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for depth := 0; depth < 3; depth++ {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", " "); err != nil {
				t.Fatal(err)
			}
			// json.Indent lays out a value at depth 0; shift its inner
			// lines for deeper ones
			w := strings.ReplaceAll(want.String(), "\n", "\n"+strings.Repeat(" ", depth))
			if got := string(appendIndented(nil, src, depth)); got != w {
				t.Errorf("appendIndented(%s, %d) = %q; want %q", src, depth, got, w)
			}
		}
	}
}

// FuzzEncode checks the canonical encoder against json.MarshalIndent on
// every input that decodes to a bundle, with the digest set and blanked. It
// seeds from FuzzUnmarshal's corpus: a recorded bundle, a truncated copy and
// one with a tampered digest.
func FuzzEncode(f *testing.F) {
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("seed %s: %v", e.Name(), err)
		}
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Unmarshal(data)
		if err != nil {
			return
		}
		checkEncoding(t, b)
	})
}
