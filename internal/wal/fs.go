// Package wal implements the durable storage backend: an append-only,
// segmented write-ahead log of canonical-JSON records with per-record
// length+checksum framing, a configurable flush/fsync policy, a small FS
// seam under which tests inject disk faults, and a recovery path that
// truncates a torn tail and replays the intact prefix back into crawl state.
//
// The invariants the log maintains:
//
//   - Committed records are never rewritten: segments only grow (or are
//     truncated back to a record boundary after a failed write), so a crash
//     can only damage the tail, never the committed prefix.
//   - Every record is independently verifiable: a frame carries its payload
//     length and CRC-32C, so recovery can find the longest intact prefix of
//     any byte stream without trusting anything after the damage point.
//   - Checkpoint records are the durability boundary: everything before the
//     last checkpoint marker is committed state, everything after it belongs
//     to an in-flight site and is discarded on recovery (the site is simply
//     re-crawled, which determinism makes byte-identical).
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the writable handle the log appends to. Write must not retain
// p: the writer reuses the buffer for the frames that follow.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the small filesystem surface the log needs. DirFS backs it with a
// real directory; MemFS keeps it in memory with fsync-aware crash
// simulation for tests.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// ReadFile returns name's full content.
	ReadFile(name string) ([]byte, error)
	// List returns all file names, sorted.
	List() ([]string, error)
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Remove deletes name.
	Remove(name string) error
}

// Reset removes every file in fs, returning the log to the empty state a
// fresh Open expects. Recovery uses it on a log so damaged that not even the
// shard-metadata record survived (ErrNoShardMeta): nothing in it is
// trustworthy, and the restarted shard must begin a clean log rather than
// append after garbage a later scan would choke on.
func Reset(fs FS) error {
	names, err := fs.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := fs.Remove(n); err != nil {
			return err
		}
	}
	return nil
}

// DirFS is an FS rooted at a real directory (created on first write).
type DirFS struct{ Dir string }

func (d DirFS) Create(name string) (File, error) {
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(d.Dir, name))
}

func (d DirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.Dir, name))
}

func (d DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d DirFS) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(d.Dir, name), size)
}

func (d DirFS) Remove(name string) error {
	return os.Remove(filepath.Join(d.Dir, name))
}

// MemFS is an in-memory FS that tracks, per file, how many bytes have been
// fsynced. Crash() models power loss: every file is truncated back to its
// last synced offset, so tests can prove exactly what each fsync policy
// guarantees. A plain process kill (buffered user-space data lost, OS-level
// writes kept) is modelled by simply abandoning the Writer without Close.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: map[string]*memFile{}} }

type memFile struct {
	fs     *MemFS
	name   string
	data   []byte
	synced int
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{fs: m, name: name}
	m.files[name] = f
	return f, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: memfs: %s does not exist", name)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("wal: memfs: truncate %s: no such file", name)
	}
	if int(size) < len(f.data) {
		f.data = f.data[:size]
	}
	if f.synced > len(f.data) {
		f.synced = len(f.data)
	}
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("wal: memfs: remove %s: no such file", name)
	}
	delete(m.files, name)
	return nil
}

// Crash simulates power loss: unsynced bytes vanish from every file.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.data = f.data[:f.synced]
	}
}

// Size returns the current size of name (testing helper; 0 when absent).
func (m *MemFS) Size(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return int64(len(f.data))
	}
	return 0
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.synced = len(f.data)
	return nil
}

func (f *memFile) Close() error { return nil }
