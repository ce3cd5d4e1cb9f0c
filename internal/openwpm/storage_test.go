package openwpm

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"gullible/internal/httpsim"
)

func TestStorageMergeCombinesRecords(t *testing.T) {
	a := NewStorage()
	b := NewStorage()
	a.AddJSCall(JSCall{Symbol: "Navigator.userAgent"})
	b.AddJSCall(JSCall{Symbol: "Screen.width"})
	a.Requests = append(a.Requests, RequestRecord{URL: "https://x/a", Type: httpsim.TypeScript})
	b.Requests = append(b.Requests, RequestRecord{URL: "https://x/b", Type: httpsim.TypeImage})
	a.AddScriptFile("https://x/a.js", "shared content", "text/javascript")
	b.AddScriptFile("https://y/b.js", "shared content", "text/javascript")
	b.AddScriptFile("https://y/c.js", "other content", "text/javascript")

	a.Merge(b)
	if len(a.JSCalls) != 2 || len(a.Requests) != 2 {
		t.Fatalf("merge lost records: %d calls, %d requests", len(a.JSCalls), len(a.Requests))
	}
	if len(a.ScriptFiles) != 2 {
		t.Fatalf("script files = %d, want 2 unique contents", len(a.ScriptFiles))
	}
	var urls []string
	for _, w := range a.ContentWrites {
		urls = append(urls, w.URL)
	}
	if want := []string{"https://x/a.js", "https://y/b.js", "https://y/c.js"}; !reflect.DeepEqual(urls, want) {
		t.Fatalf("content writes after merge = %v, want %v", urls, want)
	}
	if a.ContentWrites[0].SHA != a.ContentWrites[1].SHA {
		t.Errorf("both writes of the shared body must reference one SHA: %v", a.ContentWrites)
	}
	if f := a.ScriptFiles[a.ContentWrites[0].SHA]; f.URL != "https://x/a.js" || f.Content != "shared content" {
		t.Errorf("shared body = %+v, want the first write's URL and content", f)
	}

	// the merged store digests like one store that made every write itself
	one := NewStorage()
	one.AddJSCall(JSCall{Symbol: "Navigator.userAgent"})
	one.AddJSCall(JSCall{Symbol: "Screen.width"})
	one.Requests = append(one.Requests, a.Requests...)
	one.AddScriptFile("https://x/a.js", "shared content", "text/javascript")
	one.AddScriptFile("https://y/b.js", "shared content", "text/javascript")
	one.AddScriptFile("https://y/c.js", "other content", "text/javascript")
	if got, want := a.Digest(), one.Digest(); got != want {
		t.Errorf("merged digest %s differs from the single store's %s", got, want)
	}
}

func TestStorageMergeIdempotentURLs(t *testing.T) {
	a := NewStorage()
	b := NewStorage()
	a.AddScriptFile("https://x/a.js", "same", "text/javascript")
	b.AddScriptFile("https://x/a.js", "same", "text/javascript")
	a.Merge(b)
	if len(a.ContentWrites) != 2 || len(a.ScriptFiles) != 1 {
		t.Fatalf("merge kept %d writes and %d bodies, want 2 and 1", len(a.ContentWrites), len(a.ScriptFiles))
	}

	twice := NewStorage()
	twice.AddScriptFile("https://x/a.js", "same", "text/javascript")
	twice.AddScriptFile("https://x/a.js", "same", "text/javascript")
	if got, want := a.Digest(), twice.Digest(); got != want {
		t.Errorf("merged digest %s differs from one store that wrote the body twice (%s)", got, want)
	}
	// a repeated URL adds nothing to the digest
	once := NewStorage()
	once.AddScriptFile("https://x/a.js", "same", "text/javascript")
	if got, want := a.Digest(), once.Digest(); got != want {
		t.Errorf("merged digest %s differs from one store that wrote the body once (%s)", got, want)
	}
}

func TestStorageMergeAfterFaultInjection(t *testing.T) {
	// a worker storage that lost writes to injected storage faults must
	// merge its dropped-write counters and crash records into the combined
	// store — the sharded-scan accounting depends on it
	worker := NewStorage()
	drop := true
	worker.FaultFn = func(table string) bool {
		drop = !drop
		return drop // every second write fails
	}
	for i := 0; i < 6; i++ {
		worker.AddJSCall(JSCall{Symbol: "Navigator.userAgent"})
	}
	for i := 0; i < 4; i++ {
		worker.AddCookie(CookieEntry{Name: "id", Domain: "x.com"})
	}
	worker.AddCrash(CrashRecord{SiteURL: "https://x.com/", PageURL: "https://x.com/", Attempt: 0, Class: "crash", Error: "boom"})
	worker.AddCrash(CrashRecord{SiteURL: "https://y.com/", PageURL: "https://y.com/p", Attempt: 1, Class: "hang", Error: "stall"})
	if worker.DroppedTotal() != 5 {
		t.Fatalf("fault fn dropped %d writes, want 5", worker.DroppedTotal())
	}

	other := NewStorage()
	other.FaultFn = func(string) bool { return true }
	other.AddJSCall(JSCall{Symbol: "Screen.width"}) // dropped

	merged := NewStorage()
	merged.Dropped = nil // Merge must handle a nil counter map
	merged.Merge(worker)
	merged.Merge(other)

	if got := merged.DroppedTotal(); got != 6 {
		t.Fatalf("merged dropped total = %d, want 6", got)
	}
	if merged.Dropped["javascript"] != 4 || merged.Dropped["javascript_cookies"] != 2 {
		t.Fatalf("per-table dropped counters not carried over: %v", merged.Dropped)
	}
	if len(merged.Crashes) != 2 {
		t.Fatalf("crash records lost in merge: %d, want 2", len(merged.Crashes))
	}
	if merged.Crashes[0].SiteURL != "https://x.com/" || merged.Crashes[1].Class != "hang" {
		t.Fatalf("crash records corrupted in merge: %+v", merged.Crashes)
	}
	if len(merged.JSCalls) != 3 || len(merged.Cookies) != 2 {
		t.Fatalf("surviving records lost: %d calls, %d cookies", len(merged.JSCalls), len(merged.Cookies))
	}
}

func TestSanitizeEdgeCases(t *testing.T) {
	if got := Sanitize(""); got != "" {
		t.Fatalf("Sanitize(%q) = %q, want empty", "", got)
	}
	// benign input below the length bound passes through unchanged
	clean := "https://example.com/script.js?v=3"
	if got := Sanitize(clean); got != clean {
		t.Fatalf("Sanitize(%q) = %q, want unchanged", clean, got)
	}
	// quotes double; doubling again is well-formed (pairs stay paired)
	once := Sanitize("it's")
	if once != "it''s" {
		t.Fatalf("Sanitize quote escape = %q, want it''s", once)
	}
	twice := Sanitize(once)
	if twice != "it''''s" {
		t.Fatalf("double sanitisation = %q, want it''''s", twice)
	}
	// truncation must not split multi-byte runes: output stays valid UTF-8
	long := strings.Repeat("é", 400) // 800 bytes of 2-byte runes
	got := Sanitize(long)
	if len(got) > 512 {
		t.Fatalf("sanitized length = %d, want ≤ 512", len(got))
	}
	if !utf8.ValidString(got) {
		t.Fatalf("truncation produced invalid UTF-8: %q", got[len(got)-4:])
	}
	for _, r := range got {
		if r != 'é' {
			t.Fatalf("truncation corrupted a rune to %q", r)
		}
	}
	// a quote pair straddling the cut is removed whole
	pairStraddle := strings.Repeat("a", 511) + "'x"
	got = Sanitize(pairStraddle)
	if strings.HasSuffix(got, "'") {
		t.Fatalf("truncation left a lone quote: %q", got[len(got)-4:])
	}
}

func TestStorageDigestDeterministicAndSensitive(t *testing.T) {
	build := func() *Storage {
		s := NewStorage()
		s.AddVisit(VisitRecord{SiteURL: "https://a/", Site: "https://a/", OK: true})
		s.AddJSCall(JSCall{Symbol: "Navigator.webdriver", Operation: "get"})
		s.AddCookie(CookieEntry{Name: "id", Value: "1", Domain: "a"})
		s.AddScriptFile("https://a/x.js", "content", "text/javascript")
		s.AddCrash(CrashRecord{SiteURL: "https://a/", Class: "crash"})
		return s
	}
	a, b := build(), build()
	if a.Digest() != b.Digest() {
		t.Fatal("identical stores produced different digests")
	}
	b.AddJSCall(JSCall{Symbol: "Screen.width"})
	if a.Digest() == b.Digest() {
		t.Fatal("digest insensitive to an extra record")
	}
}

func TestSanitizeProperties(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 600 {
			s = s[:600]
		}
		out := Sanitize(s)
		if len(out) > 512 {
			return false
		}
		// no lone quotes: every ' must be part of a doubled pair
		for i := 0; i < len(out); i++ {
			if out[i] != '\'' {
				continue
			}
			// count the run of quotes
			j := i
			for j < len(out) && out[j] == '\'' {
				j++
			}
			if (j-i)%2 != 0 {
				return false
			}
			i = j - 1
		}
		// no raw newlines or NULs
		for i := 0; i < len(out); i++ {
			if out[i] == '\n' || out[i] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHoneyNamesStableAndDistinct(t *testing.T) {
	a := HoneyNames("client", 4)
	b := HoneyNames("client", 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("honey names not stable per seed")
		}
	}
	c := HoneyNames("other", 4)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("honey names identical across seeds")
	}
	seen := map[string]bool{}
	for _, n := range a {
		if seen[n] {
			t.Fatalf("duplicate honey name %q", n)
		}
		seen[n] = true
	}
}
