// Package faults is a seeded, deterministic fault-injection harness for the
// measurement pipeline. It wraps any httpsim.RoundTripper and perturbs the
// traffic the way a real large-scale crawl is perturbed: transport resets,
// truncated bodies, tarpits (responses that arrive only after a long virtual
// delay), hangs that exhaust a visit budget, mid-visit browser crashes, and
// storage write failures. Every decision is a pure function of the fault
// seed and the request, so a crawl under faults is exactly reproducible —
// the property the paper demands of reliability experiments.
//
// The package also defines the error taxonomy the hardened framework layer
// (package openwpm) uses to decide between retrying, failing fast and
// salvaging partial results.
package faults

import (
	"errors"
	"fmt"
)

// Class is the recovery-relevant classification of a visit error.
type Class int

// Error classes, ordered roughly by severity.
const (
	ClassNone      Class = iota // no error
	ClassTransient              // retry is likely to succeed (connection reset, ...)
	ClassPermanent              // deterministic failure; retrying wastes budget
	ClassHang                   // the visit stalled until a watchdog gave up
	ClassCrash                  // the browser process died mid-visit
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassHang:
		return "hang"
	case ClassCrash:
		return "crash"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classified is implemented by errors that know their own recovery class.
type Classified interface {
	FaultClass() Class
}

// Classify maps an error to its recovery class. Unknown errors default to
// transient: an unclassified failure on a live network is far more often a
// flake than a law of nature, and the retry budget bounds the cost of being
// wrong.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var c Classified
	if errors.As(err, &c) {
		return c.FaultClass()
	}
	return ClassTransient
}

// Kind enumerates the injectable fault kinds.
type Kind int

// Fault kinds.
const (
	KindTransport Kind = iota // transport-level error (reset, refused)
	KindMalformed             // truncated/garbled response body
	KindTarpit                // response delayed by many virtual seconds
	KindHang                  // request stalls until the watchdog fires
	KindCrash                 // browser dies mid-visit
	KindStorage               // storage write dropped
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindTransport:
		return "transport"
	case KindMalformed:
		return "malformed"
	case KindTarpit:
		return "tarpit"
	case KindHang:
		return "hang"
	case KindCrash:
		return "crash"
	case KindStorage:
		return "storage"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// FaultError is an injected failure. It carries its recovery class, whether
// it kills the whole visit (crash/hang) and how much virtual time it burned
// before surfacing (a hang costs the full watchdog budget, a reset is
// near-instant).
type FaultError struct {
	Kind    Kind
	URL     string
	Seconds float64 // virtual time consumed before the error surfaced
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("injected %s fault at %s", e.Kind, e.URL)
}

// FaultClass implements Classified.
func (e *FaultError) FaultClass() Class {
	switch e.Kind {
	case KindHang:
		return ClassHang
	case KindCrash:
		return ClassCrash
	default:
		return ClassTransient
	}
}

// AbortsVisit reports whether the fault kills the in-progress visit rather
// than just failing one subresource. The browser sniffs this interface so it
// need not import this package.
func (e *FaultError) AbortsVisit() bool {
	return e.Kind == KindCrash || e.Kind == KindHang
}

// VirtualCost reports the virtual seconds the failure consumed.
func (e *FaultError) VirtualCost() float64 { return e.Seconds }

// PermanentError marks a deterministic failure that must not be retried.
type PermanentError struct{ Reason string }

func (e *PermanentError) Error() string { return e.Reason }

// FaultClass implements Classified.
func (e *PermanentError) FaultClass() Class { return ClassPermanent }

// Permanentf builds a PermanentError.
func Permanentf(format string, args ...any) error {
	return &PermanentError{Reason: fmt.Sprintf(format, args...)}
}

// Bucket is the fault mix for one rank range. Real failure rates are not
// uniform over a toplist: tail sites are flakier than the head, so profiles
// are tables keyed by rank.
type Bucket struct {
	// MaxRank is the highest (1-based) rank this bucket covers, inclusive.
	// 0 means "all remaining ranks" (the tail bucket).
	MaxRank int

	// Per-mille probabilities, evaluated per request.
	TransportPerMille int
	MalformedPerMille int
	TarpitPerMille    int
	HangPerMille      int
	CrashPerMille     int
}

// Profile is a complete fault-injection configuration.
type Profile struct {
	// Buckets in ascending MaxRank order; the first matching bucket wins.
	Buckets []Bucket

	// TarpitSeconds is the virtual delay added to tarpitted responses.
	TarpitSeconds float64
	// HangSeconds is the virtual time a hang consumes before erroring.
	HangSeconds float64

	// StoragePerMille is the probability that one storage write is dropped.
	StoragePerMille int

	// Recovery horizons: how many failed attempts a faulted (site, URL) pair
	// endures before the fault clears and the request succeeds. 0 means the
	// fault never clears (a permanently dead resource).
	TransientRecoverAfter int
	HangRecoverAfter      int
	CrashRecoverAfter     int
}

// DefaultProfile is a realistic mix: a few percent of requests fail
// transiently, a smaller share of pages hang, tarpit or crash the browser,
// and roughly one storage write in 200 is lost. Most faults clear after one
// retry, so a hardened pipeline can recover nearly everything.
func DefaultProfile() Profile {
	return Profile{
		Buckets: []Bucket{
			{MaxRank: 1000, TransportPerMille: 25, MalformedPerMille: 15, TarpitPerMille: 10, HangPerMille: 5, CrashPerMille: 10},
			{MaxRank: 10000, TransportPerMille: 35, MalformedPerMille: 20, TarpitPerMille: 14, HangPerMille: 7, CrashPerMille: 13},
			{MaxRank: 0, TransportPerMille: 50, MalformedPerMille: 25, TarpitPerMille: 18, HangPerMille: 9, CrashPerMille: 16},
		},
		TarpitSeconds:         45,
		HangSeconds:           300,
		StoragePerMille:       5,
		TransientRecoverAfter: 1,
		HangRecoverAfter:      1,
		CrashRecoverAfter:     1,
	}
}

// HeavyProfile is a stress mix: roughly 4x the default rates with slower
// recovery, for worst-case reliability experiments.
func HeavyProfile() Profile {
	return Profile{
		Buckets: []Bucket{
			{MaxRank: 1000, TransportPerMille: 100, MalformedPerMille: 60, TarpitPerMille: 40, HangPerMille: 20, CrashPerMille: 40},
			{MaxRank: 0, TransportPerMille: 160, MalformedPerMille: 90, TarpitPerMille: 60, HangPerMille: 30, CrashPerMille: 60},
		},
		TarpitSeconds:         90,
		HangSeconds:           300,
		StoragePerMille:       20,
		TransientRecoverAfter: 2,
		HangRecoverAfter:      1,
		CrashRecoverAfter:     1,
	}
}

// ProfileNamed resolves a fault profile by the name the CLIs and the daemon
// accept: "off" is nil (no injection), "default" and "heavy" are
// DefaultProfile and HeavyProfile. Any other name is an error listing the
// valid ones.
func ProfileNamed(name string) (*Profile, error) {
	var p Profile
	switch name {
	case "off":
		return nil, nil
	case "default":
		p = DefaultProfile()
	case "heavy":
		p = HeavyProfile()
	default:
		return nil, fmt.Errorf("faults: unknown profile %q (want off, default or heavy)", name)
	}
	return &p, nil
}

// bucketFor selects the fault mix for a rank (0 = unknown rank → tail).
func (p Profile) bucketFor(rank int) Bucket {
	var tail Bucket
	for _, b := range p.Buckets {
		if b.MaxRank == 0 {
			tail = b
			continue
		}
		if rank >= 1 && rank <= b.MaxRank {
			return b
		}
	}
	return tail
}
