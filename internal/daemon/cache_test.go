package daemon

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func put(t *testing.T, c *Cache, addr string, size int) {
	t.Helper()
	if err := c.Put(addr, make([]byte, size), ArtifactMeta{Kind: KindCrawl, Digest: "d-" + addr, ContentType: "application/json"}); err != nil {
		t.Fatalf("Put(%s): %v", addr, err)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	artifact := []byte("sealed bundle bytes")
	if err := c.Put("a1", artifact, ArtifactMeta{Kind: KindCrawl, Digest: "dig", ContentType: "application/json"}); err != nil {
		t.Fatal(err)
	}
	data, meta, ok := c.Get("a1")
	if !ok || string(data) != string(artifact) {
		t.Fatalf("Get returned %q ok=%v", data, ok)
	}
	if meta.Digest != "dig" || meta.Bytes != int64(len(artifact)) {
		t.Fatalf("meta %+v", meta)
	}
	if _, _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, "a", 100)
	put(t, c, "b", 100)
	put(t, c, "c", 100)
	// keep "a" warm, then overflow: "b" is now the coldest entry
	if _, ok := c.Touch("a"); !ok {
		t.Fatal("Touch(a) missed")
	}
	put(t, c, "d", 100)
	if c.Contains("b") {
		t.Fatal("LRU evicted the wrong entry: b survived")
	}
	for _, want := range []string{"a", "c", "d"} {
		if !c.Contains(want) {
			t.Fatalf("entry %s evicted, want b gone only", want)
		}
	}
	if c.Bytes() != 300 {
		t.Fatalf("cache holds %d bytes, want 300", c.Bytes())
	}
}

func TestCacheOversizeArtifactStored(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, "big", 200) // larger than the whole budget: stored anyway
	if !c.Contains("big") {
		t.Fatal("own Put evicted the new entry")
	}
	put(t, c, "next", 10) // the next Put evicts it
	if c.Contains("big") || !c.Contains("next") {
		t.Fatalf("eviction after oversize entry wrong: big=%v next=%v", c.Contains("big"), c.Contains("next"))
	}
}

func TestCacheRestartRebuildsIndexAndRecency(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, "a", 100)
	put(t, c, "b", 100)
	if _, ok := c.Touch("a"); !ok { // persisted? Touch alone is in-memory…
		t.Fatal("Touch(a) missed")
	}
	// Get persists the recency bump; use it so the order survives restart
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missed")
	}

	c2, err := OpenCache(dir, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 || c2.Bytes() != 200 {
		t.Fatalf("rebuilt index: %d entries, %d bytes", c2.Len(), c2.Bytes())
	}
	data, meta, ok := c2.Get("a")
	if !ok || len(data) != 100 || meta.Digest != "d-a" {
		t.Fatalf("rebuilt Get(a): ok=%v len=%d meta=%+v", ok, len(data), meta)
	}
	// recency from the previous process still orders eviction: "b" is colder
	put(t, c2, "c", 100)
	if c2.Contains("b") || !c2.Contains("a") {
		t.Fatalf("restart lost recency: a=%v b=%v", c2.Contains("a"), c2.Contains("b"))
	}
}

func TestCacheDamagedPairsRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, "whole", 10)
	put(t, c, "noart", 10)
	put(t, c, "short", 10)
	if err := os.Remove(filepath.Join(dir, "noart.art")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "short.art"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Contains("whole") || c2.Contains("noart") || c2.Contains("short") {
		t.Fatalf("damage handling wrong: whole=%v noart=%v short=%v",
			c2.Contains("whole"), c2.Contains("noart"), c2.Contains("short"))
	}
}

func TestCacheGetSelfHealsOnDiskLoss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, "gone", 10)
	if err := os.Remove(filepath.Join(dir, "gone.art")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("gone"); ok {
		t.Fatal("Get served an artifact the disk lost")
	}
	if c.Contains("gone") {
		t.Fatal("lost entry still indexed")
	}
}

func TestCacheAddrsMostRecentFirst(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		put(t, c, fmt.Sprintf("e%d", i), 10)
	}
	if _, ok := c.Touch("e0"); !ok {
		t.Fatal("Touch missed")
	}
	addrs := c.Addrs()
	if len(addrs) != 3 || addrs[0] != "e0" {
		t.Fatalf("Addrs() = %v, want e0 first", addrs)
	}
}

// readLog returns the cache directory's recency log lines.
func readLog(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, recencyLog))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func TestCacheMetaWrittenOnlyByPut(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	put(t, c, "a", 10)
	before, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := c.Get("a"); !ok {
			t.Fatal("Get(a) missed")
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("Get rewrote the meta file:\n%s\nbecame\n%s", before, after)
	}
	if lines := readLog(t, dir); strings.Join(lines, ",") != "2 a,3 a,4 a" {
		t.Fatalf("recency log %q, want one line per Get", lines)
	}
}

func TestCacheRestartIgnoresTornLogLine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"a", "b", "c"} {
		put(t, c, a, 10)
	}
	for _, a := range []string{"a", "b"} {
		if _, _, ok := c.Get(a); !ok {
			t.Fatalf("Get(%s) missed", a)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// a crash mid-append: the last bump, which would make c the most
	// recent entry, lost its newline
	f, err := os.OpenFile(filepath.Join(dir, recencyLog), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("99 c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := strings.Join(c2.Addrs(), " "); got != "b a c" {
		t.Fatalf("restored recency %q, want \"b a c\"", got)
	}
	if lines := readLog(t, dir); strings.Join(lines, ",") != "3 c,4 a,5 b" {
		t.Fatalf("compacted log %q", lines)
	}
	// the sequence resumes past the intact lines only
	put(t, c2, "d", 10)
	if m, _ := c2.Peek("d"); m.Seq != 6 {
		t.Fatalf("next stamp %d, want 6", m.Seq)
	}
}

func TestCacheRestartIgnoresLogLinesOfEvictedEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, c, "a", 100)
	put(t, c, "b", 100)
	for _, a := range []string{"b", "a"} {
		if _, _, ok := c.Get(a); !ok {
			t.Fatalf("Get(%s) missed", a)
		}
	}
	put(t, c, "c", 100) // evicts b, whose Get is still in the log
	if c.Contains("b") {
		t.Fatal("b was not evicted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, recencyLog), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("7 ghost\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := strings.Join(c2.Addrs(), " "); got != "c a" {
		t.Fatalf("restored entries %q, want \"c a\"", got)
	}
	if lines := readLog(t, dir); strings.Join(lines, ",") != "4 a,5 c" {
		t.Fatalf("compacted log %q keeps lines of entries that are gone", lines)
	}
}

func TestCacheRecencyLogStaysBounded(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	put(t, c, "a", 10)
	put(t, c, "b", 10)
	limit := recencyLogFactor*2 + recencyLogSlack
	for i := 0; i < 10*limit; i++ {
		addr := []string{"a", "b"}[i%2]
		if _, _, ok := c.Get(addr); !ok {
			t.Fatalf("Get(%s) missed", addr)
		}
		if i%97 == 0 {
			if n := len(readLog(t, dir)); n > limit {
				t.Fatalf("after %d Gets the log has %d lines, want at most %d", i+1, n, limit)
			}
		}
	}
	// the last Get was of b: compaction kept the order
	c2, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := strings.Join(c2.Addrs(), " "); got != "b a" {
		t.Fatalf("restored recency %q, want \"b a\"", got)
	}
}

// TestCacheConcurrentOpens downloads from several goroutines at once, enough
// to compact the recency log while they run, and reopens the cache after.
func TestCacheConcurrentOpens(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"a", "b", "c"}
	for _, a := range addrs {
		put(t, c, a, 100)
	}
	const readers, reads = 4, 200
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				f, meta, ok := c.Open(addrs[(r+i)%len(addrs)])
				if !ok {
					t.Error("Open missed a cached entry")
					return
				}
				if n, err := io.Copy(io.Discard, io.LimitReader(f, meta.Bytes)); err != nil || n != meta.Bytes {
					t.Errorf("read %d of %d bytes: %v", n, meta.Bytes, err)
				}
				f.Close()
			}
		}(r)
	}
	wg.Wait()
	want := c.Addrs()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Addrs(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("restored recency %v, want %v", got, want)
	}
}
