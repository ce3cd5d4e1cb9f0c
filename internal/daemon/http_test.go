package daemon

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gullible/internal/telemetry"
)

// largeCrawl seals a bundle of more than 600 KB, the size of the benchmark's
// warm-hit artifacts.
var largeCrawl = JobSpec{Kind: KindCrawl, NumSites: 20, MaxSubpages: 1}

// TestArtifactRoute fetches a crawl's bundle over loopback HTTP: the served
// bytes and headers match the cache entry, a download is streamed from the
// file without buffering the artifact, and an artifact the disk lost is
// neither served nor left cached.
func TestArtifactRoute(t *testing.T) {
	dir := t.TempDir()
	// NowNanos puts the instrument middleware's statusWriter between the
	// handler and net/http, as in wpmd
	d, err := Open(Config{
		Dir: dir, Executors: 1, CrawlWorkers: 2, Telemetry: telemetry.New(),
		NowNanos: func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain()
	st, err := d.Submit(largeCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, d, st.ID); done.State != JobDone {
		t.Fatalf("crawl finished as %+v", done)
	}
	want, meta, ok := d.Artifact(st.ID)
	if !ok {
		t.Fatal("completed crawl has no artifact")
	}
	if meta.Bytes < 600<<10 {
		t.Fatalf("artifact is %d bytes, want at least 600 KB", meta.Bytes)
	}

	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	hc := srv.Client()
	get := func(id string) *http.Response {
		t.Helper()
		res, err := hc.Get(srv.URL + "/v1/jobs/" + id + "/artifact")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := get(st.ID)
	body, code := readAll(t, res)
	if code != http.StatusOK || !bytes.Equal([]byte(body), want) {
		t.Fatalf("GET artifact: code %d, %d bytes (want %d)", code, len(body), len(want))
	}
	for h, v := range map[string]string{
		"Content-Length":    strconv.FormatInt(meta.Bytes, 10),
		"Content-Type":      meta.ContentType,
		"X-Artifact-Digest": meta.Digest,
	} {
		if got := res.Header.Get(h); got != v {
			t.Fatalf("header %s = %q, want %q", h, got, v)
		}
	}

	if _, code := readAll(t, get(strings.Repeat("0", 64))); code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d, want 404", code)
	}

	// a download that buffered the artifact would allocate its full size
	const downloads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < downloads; i++ {
		res := get(st.ID)
		n, err := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if err != nil || n != meta.Bytes || res.StatusCode != http.StatusOK {
			t.Fatalf("download %d: code %d, %d bytes, err %v", i, res.StatusCode, n, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / downloads; per >= 64<<10 {
		t.Fatalf("a download allocates %d bytes, want under 64 KB for a %d-byte artifact", per, meta.Bytes)
	}

	// net/http sends the body with sendfile only if the reader it gets from
	// the middleware is the file itself or a LimitedReader over it
	rec := &readerFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	Handler(d).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/artifact", nil))
	if lr, ok := rec.src.(*io.LimitedReader); !ok || rec.Code != http.StatusOK {
		t.Fatalf("the body reached the ResponseWriter's ReadFrom as %T (code %d), want *io.LimitedReader", rec.src, rec.Code)
	} else if _, ok := lr.R.(*os.File); !ok {
		t.Fatalf("the LimitedReader wraps %T, want *os.File", lr.R)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("ReadFrom path served other bytes")
	}

	if err := os.Truncate(filepath.Join(dir, "cache", st.ID+artSuffix), meta.Bytes/2); err != nil {
		t.Fatal(err)
	}
	if body, code := readAll(t, get(st.ID)); code == http.StatusOK {
		t.Fatal("a truncated artifact was served")
	} else if code != http.StatusConflict || !strings.Contains(body, "evicted or damaged") {
		t.Fatalf("GET a lost artifact: code %d, body %s; want 409 naming the loss", code, body)
	}
	if d.cache.Contains(st.ID) {
		t.Fatal("the truncated artifact is still cached")
	}
	again, err := d.Submit(largeCrawl, "")
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatalf("resubmit after the loss answered from the cache: %+v", again)
	}
	if done := waitDone(t, d, st.ID); done.State != JobDone || done.Digest != meta.Digest {
		t.Fatalf("re-run finished as %+v, want done with digest %s", done, meta.Digest)
	}
	body, code = readAll(t, get(st.ID))
	if code != http.StatusOK || !bytes.Equal([]byte(body), want) {
		t.Fatalf("GET after the re-run: code %d, %d bytes (want %d)", code, len(body), len(want))
	}
}

// readerFromRecorder is a ResponseRecorder that, like net/http's response,
// implements io.ReaderFrom, and records the reader it was handed.
type readerFromRecorder struct {
	*httptest.ResponseRecorder
	src io.Reader
}

func (r *readerFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.src = src
	return r.Body.ReadFrom(src)
}
