package wal

import (
	"encoding/binary"
	"os"
	"sync"
	"syscall"
)

// FaultPlan scripts the disk faults a FaultFS injects. Writes and fsyncs
// are numbered from 0 in the order the FS sees them, across all files.
type FaultPlan struct {
	// Cuts maps a write's number to how many of its bytes land: the write
	// then reports that short count with no error, as a File that breaks
	// the io.Writer contract would. A cut at or past the write's length
	// does not fire.
	Cuts map[int]int
	// Budget is the device's capacity in bytes (0 = unlimited). A write
	// that would overfill it lands the bytes that fit and fails with
	// ENOSPC; truncating or removing a file frees its bytes again.
	Budget int64
	// SyncFails names the fsyncs that fail.
	SyncFails map[int]bool
}

// FaultFS is a MemFS whose files fail writes and fsyncs as its plan says,
// through the same File calls a real disk fails. It tallies what it
// injected, and counts the log frames the failed writes carried, so a test
// can hold the writer's loss accounting to an independent count.
type FaultFS struct {
	*MemFS
	plan FaultPlan

	mu         sync.Mutex
	writes     int
	syncs      int
	cut        int // writes cut short
	noSpace    int // writes failed with ENOSPC
	syncFailed int // fsyncs failed
	lostFrames int // frames in writes that did not land whole
}

// NewFaultFS returns an empty FaultFS following plan.
func NewFaultFS(plan FaultPlan) *FaultFS {
	return &FaultFS{MemFS: NewMemFS(), plan: plan}
}

// FaultCounts reports the writes cut short, the writes failed with ENOSPC,
// the fsyncs failed, and the frames the failed writes carried.
func (f *FaultFS) FaultCounts() (cut, noSpace, syncFailed, lostFrames int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut, f.noSpace, f.syncFailed, f.lostFrames
}

func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

// used is the bytes the device holds now.
func (f *FaultFS) used() int64 {
	names, _ := f.MemFS.List()
	var n int64
	for _, name := range names {
		n += f.MemFS.Size(name)
	}
	return n
}

type faultFile struct {
	File
	fs   *FaultFS
	name string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.writes
	f.writes++
	if b := f.plan.Budget; b > 0 {
		if free := b - f.used(); int64(len(p)) > free {
			n, _ := ff.File.Write(p[:free])
			f.noSpace++
			f.lostFrames += framesIn(p)
			return n, &os.PathError{Op: "write", Path: ff.name, Err: syscall.ENOSPC}
		}
	}
	if c, ok := f.plan.Cuts[seq]; ok && c < len(p) {
		f.cut++
		f.lostFrames += framesIn(p)
		return ff.File.Write(p[:c])
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.syncs
	f.syncs++
	if f.plan.SyncFails[seq] {
		f.syncFailed++
		return &os.PathError{Op: "sync", Path: ff.name, Err: syscall.EIO}
	}
	return ff.File.Sync()
}

// framesIn counts the log frames in one buffer the writer flushed: an
// optional segment header, then whole frames.
func framesIn(p []byte) int {
	if len(p) >= headerSize && string(p[:4]) == segMagic {
		p = p[headerSize:]
	}
	n := 0
	for len(p) >= frameSize {
		size := frameSize + int(binary.LittleEndian.Uint32(p))
		if size > len(p) {
			break
		}
		p = p[size:]
		n++
	}
	return n
}
