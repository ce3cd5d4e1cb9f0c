package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gullible/internal/telemetry"
)

// ArtifactMeta is the sidecar record stored next to every cached artifact:
// what the bytes are, how they verify, and the recency stamp the LRU uses to
// survive restarts.
type ArtifactMeta struct {
	// Kind is the job kind that produced the artifact.
	Kind string `json:"kind"`
	// Digest is the artifact's own integrity digest: the bundle digest for
	// crawl/replay jobs, the SHA-256 of the report bytes otherwise.
	Digest string `json:"digest"`
	// ContentType is the HTTP content type the artifact is served with.
	ContentType string `json:"contentType"`
	// Bytes is the artifact size on disk.
	Bytes int64 `json:"bytes"`
	// Seq is the logical access stamp (monotonic per cache instance).
	// Logical, not wall-clock: the daemon keeps no wall time in its state.
	// The meta file holds the stamp of the Put; later bumps are persisted in
	// the recency log, so recency ordering survives restarts.
	Seq uint64 `json:"seq"`
}

// Cache is a disk-backed, byte-budgeted LRU of sealed job artifacts keyed by
// content address. Entries are immutable once written — the address IS the
// content — so a hit serves the exact bytes a cold run produced. Eviction is
// least-recently-used by logical access sequence; the index lives in memory
// and is rebuilt on open from the sidecar files, which only Put writes, and
// the recency log, which every Open appends one line to.
type Cache struct {
	mu      sync.Mutex
	dir     string
	budget  int64
	seq     uint64
	bytes   int64
	entries map[string]*ArtifactMeta
	tel     *telemetry.Telemetry

	// log is the append-only recency log (nil once Close ran) and logLines
	// counts its lines since the last compaction; both are guarded by mu.
	log      *os.File
	logLines int
}

// artifact file suffixes: <addr>.art holds the bytes, <addr>.json the meta.
const (
	artSuffix  = ".art"
	metaSuffix = ".json"
)

// recencyLog is the file in the cache directory that persists recency bumps,
// one "<seq> <addr>" line each. It is compacted to one line per live entry
// on open, and whenever it grows past recencyLogFactor lines per entry plus
// recencyLogSlack, so it stays bounded however many hits the cache serves.
const (
	recencyLog       = "recency.log"
	recencyLogFactor = 4
	recencyLogSlack  = 256
)

// OpenCache opens (creating if needed) the cache directory and rebuilds the
// LRU index from the sidecar files and the recency log, then compacts the
// log. budget <= 0 means unbudgeted. Damaged pairs (missing meta, missing
// artifact, size mismatch) are removed rather than served.
func OpenCache(dir string, budget int64, tel *telemetry.Telemetry) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: open cache: %w", err)
	}
	c := &Cache{dir: dir, budget: budget, entries: map[string]*ArtifactMeta{}, tel: tel}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("daemon: open cache: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, metaSuffix) {
			continue
		}
		addr := strings.TrimSuffix(name, metaSuffix)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var m ArtifactMeta
		if json.Unmarshal(data, &m) != nil {
			c.removeFiles(addr)
			continue
		}
		fi, err := os.Stat(c.artPath(addr))
		if err != nil || fi.Size() != m.Bytes {
			c.removeFiles(addr)
			continue
		}
		c.entries[addr] = &m
		c.bytes += m.Bytes
		c.seq = max(c.seq, m.Seq)
	}
	logSeq, err := replayLog(dir, c.entries)
	if err != nil {
		return nil, fmt.Errorf("daemon: open cache: %w", err)
	}
	c.seq = max(c.seq, logSeq)
	if err := c.compactLogLocked(); err != nil {
		return nil, fmt.Errorf("daemon: open cache: %w", err)
	}
	c.gauges()
	return c, nil
}

// replayLog folds the recency log in dir into entries: each entry takes the
// highest stamp any line gives it. Lines for addresses that are not cached
// (evicted, or dropped as damaged) are ignored, and so is a torn last line,
// which a crash mid-append leaves without its newline. It returns the highest
// stamp in the log, so the cache's sequence resumes past every line.
func replayLog(dir string, entries map[string]*ArtifactMeta) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, recencyLog))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var top uint64
	for len(data) > 0 {
		end := bytes.IndexByte(data, '\n')
		if end < 0 {
			break // torn last line
		}
		line := data[:end]
		data = data[end+1:]
		seqText, addr, ok := bytes.Cut(line, []byte{' '})
		if !ok {
			continue
		}
		seq, err := strconv.ParseUint(string(seqText), 10, 64)
		if err != nil {
			continue
		}
		top = max(top, seq)
		if m, ok := entries[string(addr)]; ok && seq > m.Seq {
			m.Seq = seq
		}
	}
	return top, nil
}

// compactLogLocked replaces the recency log with one line per live entry,
// oldest first, written to a temporary file and renamed into place, and
// reopens it for appending. Called with mu held (or before the cache is
// shared).
func (c *Cache) compactLogLocked() error {
	addrs := make([]string, 0, len(c.entries))
	for a := range c.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return c.entries[addrs[i]].Seq < c.entries[addrs[j]].Seq
	})
	path := filepath.Join(c.dir, recencyLog)
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	var line []byte
	for _, a := range addrs {
		line = appendLogLine(line[:0], c.entries[a].Seq, a)
		_, _ = w.Write(line) // a failed write sticks; Flush reports it
	}
	err = w.Flush()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best-effort; the next compaction truncates it
		return err
	}
	log, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if c.log != nil {
		_ = c.log.Close() // the renamed-over log; nothing was buffered in it
	}
	c.log, c.logLines = log, len(addrs)
	return nil
}

func appendLogLine(b []byte, seq uint64, addr string) []byte {
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, ' ')
	b = append(b, addr...)
	return append(b, '\n')
}

// logBumpLocked persists one recency bump, compacting the log once it has
// grown past its bound. Best-effort like the bump itself: a lost line only
// ages the entry after a restart. Called with mu held.
func (c *Cache) logBumpLocked(addr string, seq uint64) {
	if c.log == nil {
		return
	}
	if _, err := c.log.Write(appendLogLine(nil, seq, addr)); err != nil {
		return
	}
	c.logLines++
	if c.logLines > recencyLogFactor*len(c.entries)+recencyLogSlack {
		_ = c.compactLogLocked() // on failure the log keeps growing until the next try
	}
}

// Close closes the recency log. Bumps after Close stay in memory only, as
// Touch's always do. Close is idempotent.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

func (c *Cache) artPath(addr string) string  { return filepath.Join(c.dir, addr+artSuffix) }
func (c *Cache) metaPath(addr string) string { return filepath.Join(c.dir, addr+metaSuffix) }

func (c *Cache) removeFiles(addr string) {
	// eviction is best-effort: a failed remove leaks disk bytes, but the
	// entry is already gone from the index so it can never be served stale
	_ = os.Remove(c.artPath(addr))
	_ = os.Remove(c.metaPath(addr)) // best-effort, as above
}

// gauges publishes the cache's size; called with mu held (or before the
// cache is shared).
func (c *Cache) gauges() {
	c.tel.Gauge("daemon_cache_bytes").Set(c.bytes)
	c.tel.Gauge("daemon_cache_entries").Set(int64(len(c.entries)))
}

// Open returns the cached artifact file for addr, positioned at its start,
// and its meta, bumping the entry's recency and appending the bump to the
// recency log. The caller closes the file and reads at most meta.Bytes from
// it. The bool reports whether the entry exists; hit/miss accounting is the
// daemon's job (a download must not double-count the submit-path hit). If
// the disk lost the artifact or its size no longer matches the meta, the
// entry is dropped so the next submit re-runs the job instead of serving a
// truncated archive.
func (c *Cache) Open(addr string) (*os.File, ArtifactMeta, bool) {
	c.mu.Lock()
	m, ok := c.entries[addr]
	if !ok {
		c.mu.Unlock()
		return nil, ArtifactMeta{}, false
	}
	c.seq++
	m.Seq = c.seq
	meta := *m
	c.logBumpLocked(addr, meta.Seq)
	path := c.artPath(addr)
	c.mu.Unlock()

	f, err := os.Open(path)
	if err == nil {
		fi, err := f.Stat()
		if err == nil && fi.Size() == meta.Bytes {
			return f, meta, true
		}
		_ = f.Close() // read-only; nothing to lose
	}
	c.drop(addr)
	return nil, ArtifactMeta{}, false
}

// Get returns the cached artifact bytes and meta for addr: Open plus a read
// of the whole file.
func (c *Cache) Get(addr string) ([]byte, ArtifactMeta, bool) {
	f, meta, ok := c.Open(addr)
	if !ok {
		return nil, ArtifactMeta{}, false
	}
	defer f.Close()
	data := make([]byte, meta.Bytes)
	if _, err := io.ReadFull(f, data); err != nil {
		c.drop(addr) // shrank since Open checked its size
		return nil, ArtifactMeta{}, false
	}
	return data, meta, true
}

// drop removes a damaged entry from the index and the disk.
func (c *Cache) drop(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[addr]; ok {
		c.bytes -= cur.Bytes
		delete(c.entries, addr)
		c.removeFiles(addr)
		c.gauges()
	}
}

// Contains reports entry existence without bumping recency or touching disk.
func (c *Cache) Contains(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[addr]
	return ok
}

// Touch returns an entry's meta and bumps its recency without reading the
// artifact bytes — the submit-path cache hit, where the caller only needs
// the digest.
func (c *Cache) Touch(addr string) (ArtifactMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.entries[addr]
	if !ok {
		return ArtifactMeta{}, false
	}
	c.seq++
	m.Seq = c.seq
	return *m, true
}

// Peek returns an entry's meta without bumping recency (status reads must
// not keep an entry warm).
func (c *Cache) Peek(addr string) (ArtifactMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.entries[addr]
	if !ok {
		return ArtifactMeta{}, false
	}
	return *m, true
}

// Put stores an artifact under its content address and evicts
// least-recently-used entries until the cache fits its byte budget. The new
// entry itself is never evicted by its own Put — an artifact larger than the
// whole budget is stored (and will be the first evicted by the next Put).
func (c *Cache) Put(addr string, artifact []byte, meta ArtifactMeta) error {
	meta.Bytes = int64(len(artifact))
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[addr]; ok {
		// same address means same content; refresh recency only
		c.seq++
		old.Seq = c.seq
		return nil
	}
	if err := os.WriteFile(c.artPath(addr), artifact, 0o644); err != nil {
		return fmt.Errorf("daemon: cache put: %w", err)
	}
	c.seq++
	meta.Seq = c.seq
	enc, err := json.Marshal(meta)
	if err != nil {
		// roll back the half-written pair; an orphaned artifact without its
		// meta file is ignored by recovery, so a failed remove only leaks disk
		_ = os.Remove(c.artPath(addr))
		return fmt.Errorf("daemon: cache put: %w", err)
	}
	if err := os.WriteFile(c.metaPath(addr), append(enc, '\n'), 0o644); err != nil {
		// roll back, best-effort as above
		_ = os.Remove(c.artPath(addr))
		return fmt.Errorf("daemon: cache put: %w", err)
	}
	c.entries[addr] = &meta
	c.bytes += meta.Bytes
	c.evictLocked(addr)
	c.gauges()
	return nil
}

// evictLocked removes least-recently-used entries (never keep, the entry
// being inserted) until bytes fit the budget. Called with mu held.
func (c *Cache) evictLocked(keep string) {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		victim := ""
		var oldest uint64
		for addr, m := range c.entries {
			if addr == keep {
				continue
			}
			if victim == "" || m.Seq < oldest {
				victim, oldest = addr, m.Seq
			}
		}
		if victim == "" {
			return // only the just-inserted entry remains
		}
		c.bytes -= c.entries[victim].Bytes
		delete(c.entries, victim)
		c.removeFiles(victim)
		c.tel.Counter("daemon_cache_evictions_total").Inc()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the cache's current on-disk artifact volume.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Addrs returns the cached content addresses, most recently used first —
// diagnostic surface for tests and the status endpoint.
func (c *Cache) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.entries))
	for a := range c.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return c.entries[addrs[i]].Seq > c.entries[addrs[j]].Seq
	})
	return addrs
}
