package faults

import (
	"fmt"
	"sync"

	"gullible/internal/telemetry"
)

// DiskKind enumerates the injectable disk fault kinds — the failure modes a
// durable storage backend must survive without corrupting committed records.
type DiskKind int

// Disk fault kinds.
const (
	DiskShortWrite   DiskKind = iota // only a prefix of the write persists (torn write)
	DiskFsyncFail                    // fsync reports failure; durability of recent writes is unknown
	DiskENOSPC                       // the device is full; writes fail until space frees
	DiskWriteLatency                 // the write completes but stalls (counted, not timed — the repo runs on virtual time)
	numDiskKinds
)

func (k DiskKind) String() string {
	switch k {
	case DiskShortWrite:
		return "short-write"
	case DiskFsyncFail:
		return "fsync-fail"
	case DiskENOSPC:
		return "enospc"
	case DiskWriteLatency:
		return "write-latency"
	}
	return fmt.Sprintf("disk-kind(%d)", int(k))
}

// DiskError is an injected disk failure.
type DiskError struct {
	Kind DiskKind
	Name string // file the operation targeted
}

func (e *DiskError) Error() string {
	return fmt.Sprintf("injected %s disk fault on %s", e.Kind, e.Name)
}

// FaultClass implements Classified: ENOSPC is deterministic until space
// frees, everything else may clear on retry.
func (e *DiskError) FaultClass() Class {
	if e.Kind == DiskENOSPC {
		return ClassPermanent
	}
	return ClassTransient
}

// DiskProfile configures disk fault injection.
type DiskProfile struct {
	// Per-mille probabilities, evaluated per write (or per sync).
	ShortWritePerMille   int
	FsyncFailPerMille    int
	WriteLatencyPerMille int

	// LatencyMS is the virtual stall one slow write accumulates.
	LatencyMS float64

	// ByteBudget caps the total bytes the device accepts; once exhausted
	// every write fails with ENOSPC (0 = unlimited). Partial last writes
	// persist a prefix, like a real full disk.
	ByteBudget int64
}

// DefaultDiskProfile is a modest failure mix for soak tests: occasional torn
// writes and fsync failures, no byte budget.
func DefaultDiskProfile() DiskProfile {
	return DiskProfile{
		ShortWritePerMille:   10,
		FsyncFailPerMille:    5,
		WriteLatencyPerMille: 20,
		LatencyMS:            250,
	}
}

// DiskInjector is the decision layer for disk fault injection. The WAL's
// io-level shim consults it before every write and sync; every decision is a
// pure function of (seed, write sequence), so a faulted crawl is exactly
// reproducible. The injector never touches files itself — keeping it io-free
// lets package wal own the shim without an import cycle.
type DiskInjector struct {
	Seed    int64
	Profile DiskProfile

	mu      sync.Mutex
	seq     int   // global write sequence, the hash salt
	written int64 // bytes accepted so far, for the ENOSPC budget
	stallMS float64
	counts  map[DiskKind]int

	kindMeters [numDiskKinds]*telemetry.Counter
}

// NewDiskInjector returns a seeded disk fault injector.
func NewDiskInjector(seed int64, p DiskProfile) *DiskInjector {
	return &DiskInjector{Seed: seed, Profile: p, counts: map[DiskKind]int{}}
}

// SetTelemetry wires the injector into a telemetry registry
// (disk_faults_total{kind=...}).
func (d *DiskInjector) SetTelemetry(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	for k := DiskKind(0); k < numDiskKinds; k++ {
		d.kindMeters[k] = tel.Counter("disk_faults_total", telemetry.L("kind", k.String()))
	}
}

// tally records one injected disk fault (caller holds d.mu).
func (d *DiskInjector) tally(k DiskKind) {
	d.counts[k]++
	d.kindMeters[k].Inc()
}

// BeforeWrite decides the fate of one n-byte write to name. It returns how
// many bytes the store should persist and a non-nil error when the write
// must fail: allow < n with an error is a short/torn write, allow possibly
// zero with an ENOSPC error is a full device. allow == n with a nil error is
// the normal path.
func (d *DiskInjector) BeforeWrite(name string, n int) (allow int, err error) {
	if d == nil {
		return n, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	p := d.Profile
	if p.WriteLatencyPerMille > 0 && fnvHash(d.Seed, "disk-latency", d.seq)%1000 < uint64(p.WriteLatencyPerMille) {
		d.stallMS += p.LatencyMS
		d.tally(DiskWriteLatency)
	}
	if p.ByteBudget > 0 && d.written+int64(n) > p.ByteBudget {
		allow = int(p.ByteBudget - d.written)
		if allow < 0 {
			allow = 0
		}
		d.written = p.ByteBudget
		d.tally(DiskENOSPC)
		return allow, &DiskError{Kind: DiskENOSPC, Name: name}
	}
	if p.ShortWritePerMille > 0 && n > 0 && fnvHash(d.Seed, "disk-short", d.seq)%1000 < uint64(p.ShortWritePerMille) {
		allow = int(fnvHash(d.Seed, "disk-cut", d.seq) % uint64(n))
		d.written += int64(allow)
		d.tally(DiskShortWrite)
		return allow, &DiskError{Kind: DiskShortWrite, Name: name}
	}
	d.written += int64(n)
	return n, nil
}

// OnSync decides whether one fsync of name fails.
func (d *DiskInjector) OnSync(name string) error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	if p := d.Profile.FsyncFailPerMille; p > 0 && fnvHash(d.Seed, "disk-fsync", d.seq)%1000 < uint64(p) {
		d.tally(DiskFsyncFail)
		return &DiskError{Kind: DiskFsyncFail, Name: name}
	}
	return nil
}

// StallMS is the virtual time slow writes have accumulated.
func (d *DiskInjector) StallMS() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stallMS
}

// Counts returns how many disk faults of each kind have been injected.
func (d *DiskInjector) Counts() map[DiskKind]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[DiskKind]int, len(d.counts))
	for k, n := range d.counts {
		out[k] = n
	}
	return out
}

// CountsByName is Counts keyed by kind name (for reports).
func (d *DiskInjector) CountsByName() map[string]int {
	out := map[string]int{}
	for k, n := range d.Counts() {
		out[k.String()] = n
	}
	return out
}
