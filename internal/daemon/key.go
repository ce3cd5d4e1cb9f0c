// Package daemon implements wpmd, the crawl-as-a-service layer: a
// long-running job server in front of the deterministic crawl substrate.
//
// The design follows from one observation the rest of the repo spent six PRs
// earning: a seeded crawl is a pure function of (site list, configuration,
// seed). That makes every job response cacheable forever — the first
// execution seals its artifact (an execution bundle or a canonical-JSON
// report) into a content-addressed cache, and every identical request
// afterwards is served from disk with bytes identical to a cold run. One box
// absorbs millions-of-users traffic because the expensive path runs once per
// distinct request, not once per request.
//
// The moving parts:
//
//   - key.go: JobSpec and its canonicalisation. Jobs are keyed by the SHA-256
//     of the canonical form — site list normalised, defaults made explicit,
//     kind-irrelevant fields zeroed — so semantically identical requests
//     collide onto one address no matter how they were spelled.
//   - cache.go: a disk-backed, byte-budgeted LRU of sealed artifacts.
//   - daemon.go: admission and the job lifecycle. Admission is a bounded
//     FIFO with per-tenant cost budgets, all under the daemon's one mutex;
//     overload is rejected loudly (HTTP 429 + Retry-After), never absorbed
//     into unbounded memory. Crawl jobs execute through internal/sched
//     with per-shard WAL backends, so a daemon killed mid-job recovers the
//     crawl from its logs on restart and finishes digest-identical to an
//     uninterrupted run. Drain checkpoints in-flight jobs and persists queued
//     ones.
//   - http.go: the HTTP surface (POST /v1/jobs, GET /v1/jobs/{id},
//     GET /v1/jobs/{id}/artifact, /healthz, /metrics) rendered straight from
//     internal/telemetry snapshots.
package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gullible/internal/faults"
	"gullible/internal/websim"
)

// Job kinds accepted by the daemon.
const (
	KindCrawl     = "crawl"     // record a scan into a sealed execution bundle
	KindReplay    = "replay"    // re-execute a cached bundle under a variant observer
	KindDiff      = "diff"      // record + variant-replay + per-visit diff report
	KindAgreement = "agreement" // static-vs-dynamic tamper agreement table
)

// Spec defaults made explicit by Canonicalize. A spec that spells one of
// these out hashes identically to a spec that omits it — defaults are part of
// the semantics, not of the wire encoding.
const (
	DefaultSeed        = 42
	DefaultMaxSubpages = 3
	DefaultFaultSeed   = 1
	DefaultFaults      = "off"
	DefaultMiss        = "synthesize-404"
	DefaultVariant     = "stealth"
)

// JobSpec is the wire form of a job request. The zero value of every field
// means "use the default"; Canonicalize resolves defaults, normalises the
// site list and zeroes fields the job kind does not consume, so the canonical
// form — and therefore the content address — is unique per meaning, not per
// spelling.
type JobSpec struct {
	// Kind selects the job type: crawl, replay, diff or agreement.
	Kind string `json:"kind"`

	// Sites is the explicit site list to crawl. When empty, the top
	// NumSites ranked sites of the seeded synthetic web are used (and
	// materialised into the canonical form, so an explicit copy of the
	// ranked list hashes identically to the NumSites shorthand).
	Sites []string `json:"sites,omitempty"`
	// NumSites sizes the synthetic world (and, when Sites is empty, the
	// ranked crawl list). Defaults to len(Sites).
	NumSites int `json:"numSites,omitempty"`
	// Seed is the world seed (default 42).
	Seed int64 `json:"seed,omitempty"`
	// MaxSubpages bounds same-site subpage visits (default 3).
	MaxSubpages int `json:"maxSubpages,omitempty"`
	// MaxVisitSeconds arms the per-visit virtual watchdog (0 = off).
	MaxVisitSeconds float64 `json:"maxVisitSeconds,omitempty"`
	// Faults selects a seeded fault profile: off, default or heavy.
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault injector (default 1; zeroed when Faults is
	// off — an unused seed must not split the cache).
	FaultSeed int64 `json:"faultSeed,omitempty"`

	// Source is the content address of a completed crawl job whose cached
	// bundle a replay job re-executes. Replay only.
	Source string `json:"source,omitempty"`
	// Miss is the replay miss policy: fail or synthesize-404 (default).
	// Replay only; passthrough is refused, as a replay job has no live web
	// to forward misses to.
	Miss string `json:"miss,omitempty"`
	// Variant is the observer change applied on the replay side: stealth
	// (default), headless, legacy, nohoney — or none for a faithful
	// re-execution. Replay and diff.
	Variant string `json:"variant,omitempty"`
}

// validMiss are the accepted replay miss policies.
var validMiss = map[string]bool{"fail": true, "synthesize-404": true}

// validVariants are the accepted replay-side observer variants; "none"
// replays the recorded configuration unchanged.
var validVariants = map[string]bool{"none": true, "stealth": true, "headless": true, "legacy": true, "nohoney": true}

// maxSites bounds a single job so one request cannot monopolise the box; the
// admission queue prices jobs in sites, and this is the largest purchase.
const maxSites = 200000

// Canonicalize validates a spec and rewrites it into its canonical form:
// site entries trimmed and empties dropped, the ranked list materialised from
// NumSites, every default made explicit, and fields the kind does not consume
// zeroed. Two specs with the same meaning canonicalise to identical structs.
func Canonicalize(s JobSpec) (JobSpec, error) {
	c := JobSpec{Kind: strings.TrimSpace(s.Kind)}
	switch c.Kind {
	case KindCrawl, KindReplay, KindDiff, KindAgreement:
	case "":
		return c, fmt.Errorf("daemon: job spec has no kind (want crawl, replay, diff or agreement)")
	default:
		return c, fmt.Errorf("daemon: unknown job kind %q (want crawl, replay, diff or agreement)", s.Kind)
	}

	if c.Kind == KindReplay {
		c.Source = strings.TrimSpace(s.Source)
		if c.Source == "" {
			return c, fmt.Errorf("daemon: replay job needs a source content address")
		}
		c.Miss = strings.TrimSpace(s.Miss)
		if c.Miss == "" {
			c.Miss = DefaultMiss
		}
		if !validMiss[c.Miss] {
			return c, fmt.Errorf("daemon: unsupported miss policy %q (want fail or synthesize-404; a replay job has no live web to pass misses through to)", c.Miss)
		}
		c.Variant = strings.TrimSpace(s.Variant)
		if c.Variant == "" {
			c.Variant = DefaultVariant
		}
		if !validVariants[c.Variant] {
			return c, fmt.Errorf("daemon: unknown variant %q (want none, stealth, headless, legacy or nohoney)", s.Variant)
		}
		return c, nil
	}

	// the three world-crawling kinds share the site/seed/fault surface
	for _, u := range s.Sites {
		u = strings.TrimSpace(u)
		if u != "" {
			c.Sites = append(c.Sites, u)
		}
	}
	c.NumSites = s.NumSites
	if c.NumSites == 0 {
		c.NumSites = len(c.Sites)
	}
	if c.NumSites <= 0 {
		return c, fmt.Errorf("daemon: %s job needs numSites or a site list", c.Kind)
	}
	if c.NumSites > maxSites || len(c.Sites) > maxSites {
		return c, fmt.Errorf("daemon: job exceeds the %d-site ceiling", maxSites)
	}
	ranked := len(c.Sites) == 0
	if ranked {
		// materialise the ranked list: the NumSites shorthand and an
		// explicit copy of the same list must collide onto one address
		c.Sites = websim.Tranco(c.NumSites)
	}
	if c.Kind != KindCrawl && !ranked {
		// diff and agreement re-run fixed experiments over the ranked
		// prefix; an explicit list is only legal when it IS that prefix
		want := websim.Tranco(c.NumSites)
		if len(c.Sites) != len(want) {
			return c, fmt.Errorf("daemon: %s jobs crawl the ranked list; pass numSites instead of sites", c.Kind)
		}
		for i := range want {
			if c.Sites[i] != want[i] {
				return c, fmt.Errorf("daemon: %s jobs crawl the ranked list; pass numSites instead of sites", c.Kind)
			}
		}
	}
	c.Seed = s.Seed
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	c.MaxSubpages = s.MaxSubpages
	if c.MaxSubpages == 0 {
		c.MaxSubpages = DefaultMaxSubpages
	}
	c.MaxVisitSeconds = s.MaxVisitSeconds
	c.Faults = strings.TrimSpace(s.Faults)
	if c.Faults == "" {
		c.Faults = DefaultFaults
	}
	if _, err := faults.ProfileNamed(c.Faults); err != nil {
		return c, fmt.Errorf("daemon: %w", err)
	}
	if c.Faults == "off" {
		c.FaultSeed = 0 // unused seed must not split the cache
	} else {
		c.FaultSeed = s.FaultSeed
		if c.FaultSeed == 0 {
			c.FaultSeed = DefaultFaultSeed
		}
	}
	if c.Kind == KindDiff {
		c.MaxVisitSeconds = 0 // the diff experiment fixes its own hardening
		c.Variant = strings.TrimSpace(s.Variant)
		if c.Variant == "" {
			c.Variant = DefaultVariant
		}
		if !validVariants[c.Variant] || c.Variant == "none" {
			return c, fmt.Errorf("daemon: unknown diff variant %q (want stealth, headless, legacy or nohoney)", s.Variant)
		}
	}
	if c.Kind == KindAgreement {
		// the agreement experiment fixes its own crawl shape
		c.MaxSubpages = 2
		c.MaxVisitSeconds = 0
		c.Faults = DefaultFaults
		c.FaultSeed = 0
	}
	return c, nil
}

// keyFormat versions the content-address computation; bump it when the
// canonical form changes meaning so stale cache entries cannot alias.
const keyFormat = 1

// ContentAddress canonicalises a spec and returns its content address: the
// hex SHA-256 of the canonical JSON encoding of (format, canonical spec).
// The address is the job ID, the cache key and the artifact name.
func ContentAddress(s JobSpec) (string, JobSpec, error) {
	c, err := Canonicalize(s)
	if err != nil {
		return "", c, err
	}
	data, err := json.Marshal(struct {
		Format int     `json:"format"`
		Spec   JobSpec `json:"spec"`
	}{keyFormat, c})
	if err != nil {
		return "", c, err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), c, nil
}

// Cost prices a canonical spec for admission control, in sites: the unit the
// queue's per-tenant budgets are denominated in. Replays are cheap (offline
// re-execution of one archive); the crawling kinds pay per site, and diff
// pays double (it crawls and then replays).
func Cost(c JobSpec) int64 {
	switch c.Kind {
	case KindReplay:
		return 1
	case KindDiff:
		return int64(2 * c.NumSites)
	default:
		return int64(c.NumSites)
	}
}
