// Package bad is the wpmlint self-test fixture: every determinism invariant
// violated once. The verify script runs wpmlint against this directory and
// requires a non-zero exit; the linter's own testdata skip keeps it out of
// normal "..." walks.
package bad

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

type labels map[string]string

func L(k, v string) labels { return labels{k: v} }

// Stamp violates wallclock: crawl code must not read the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want wallclock
}

// Jitter violates randseed: the package-level functions use the process
// global, unseeded source.
func Jitter() int {
	return rand.Intn(10) // want randseed
}

// Digest violates maprange: serialising while ranging a map emits bytes in
// random order.
func Digest(m map[string]int) string {
	var b strings.Builder
	for k, v := range m { // want maprange
		fmt.Fprintf(&b, "%s=%d;", k, v)
	}
	return b.String()
}

// Snapshot is the legal canonical-encoder shape: collect, sort elsewhere,
// then serialise — the map range itself only gathers keys.
func Snapshot(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

type wfile struct{}

func (wfile) Write(p []byte) (int, error) { return len(p), nil }
func (wfile) Close() error                { return nil }
func (wfile) Sync() error                 { return nil }

// Seal violates closecheck twice: on a written file the dropped Close error
// (and the deferred, dropped Sync error) is the write error of record.
func Seal(f wfile) {
	defer f.Sync() // want closecheck
	f.Close()      // want closecheck
}

// SealChecked is the legal shape: the Close error is propagated.
func SealChecked(f wfile) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// SealExplicit discards visibly — legal — and defer f.Close() is the
// idiomatic read-path cleanup, also legal.
func SealExplicit(f wfile) {
	defer f.Close()
	_ = f.Sync()
}

// Serve violates servertimeouts twice: the http.Server literal sets no
// timeouts (write-side WriteTimeout and idle-side IdleTimeout are each an
// obligation; ReadTimeout or ReadHeaderTimeout covers the read side), and
// the bare ListenAndServe helper cannot set any.
func Serve(h http.Handler) error {
	srv := &http.Server{Addr: ":0", Handler: h} // want servertimeouts
	_ = srv
	return http.ListenAndServe(":0", h) // want servertimeouts
}

// ServeTimed is the legal shape: every side of the connection is bounded.
func ServeTimed(h http.Handler) *http.Server {
	return &http.Server{
		Addr:              ":0",
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

type flight struct{}

func (flight) Begin(name string, parent int64, at float64, ls ...labels) int64 { return 1 }
func (flight) End(span int64, name string, at float64, ls ...labels)           {}

// VisitDiscard violates spanpair: the Begin result is the only handle to the
// span, and it is dropped on the floor.
func VisitDiscard(f flight) {
	f.Begin("visit", 0, 0) // want spanpair
}

// VisitNoEnd violates spanpair: the span id is held but never reaches End.
func VisitNoEnd(f flight) {
	span := f.Begin("visit", 0, 0) // want spanpair
}

// VisitEarlyReturn violates spanpair: the error path returns with the span
// still open.
func VisitEarlyReturn(f flight, fail bool) error {
	span := f.Begin("visit", 0, 0)
	if fail {
		return fmt.Errorf("boom") // want spanpair
	}
	f.End(span, "visit", 1)
	return nil
}

// VisitPaired is the legal shape: every return path Ends the span first,
// including through the `if span != 0` guard idiom.
func VisitPaired(f flight, fail bool) error {
	span := f.Begin("visit", 0, 0)
	if fail {
		if span != 0 {
			f.End(span, "visit", 1, L("status", "error"))
		}
		return fmt.Errorf("boom")
	}
	f.End(span, "visit", 1)
	return nil
}

// VisitDeferred closes via defer — legal: every later return is covered.
func VisitDeferred(f flight, fail bool) error {
	span := f.Begin("visit", 0, 0)
	defer f.End(span, "visit", 1)
	if fail {
		return fmt.Errorf("boom")
	}
	return nil
}

// VisitEscapes hands the span id to another function — out of spanpair's
// scope: the callee owns the End.
func VisitEscapes(f flight) {
	span := f.Begin("visit", 0, 0)
	record(span)
}

func record(int64) {}
