package faults

import (
	"sync"

	"gullible/internal/httpsim"
	"gullible/internal/telemetry"
)

// Injector wraps a RoundTripper and injects faults per the profile. All
// decisions derive from hashing (seed, visited site, URL, kind), so the same
// seed over the same request sequence injects exactly the same faults —
// independently of wall-clock time or scheduling.
//
// An Injector is safe for concurrent use, but fault *sequencing* (recovery
// counters, storage drops) is deterministic only when the request order is;
// sharded crawls should use one Injector per worker.
type Injector struct {
	Seed    int64
	Profile Profile
	Next    httpsim.RoundTripper

	// RankOf maps a URL to its toplist rank for bucket selection (0 =
	// unknown). Nil sends everything to the tail bucket.
	RankOf func(url string) int

	mu           sync.Mutex
	attempts     map[string]int // failed attempts per faulted decision key
	hangAttempts map[string]int
	armed        map[string]int // top URL → requests until the crash fires
	crashes      map[string]int // top URL → crashes already fired
	counts       map[Kind]int
	storageSeq   map[string]int // table → write sequence number
	kindMeters   [numKinds]*telemetry.Counter
}

// SetTelemetry wires the injector into a telemetry registry: one counter per
// fault kind (faults_injected_total{kind=...}). Call before crawling; nil
// leaves telemetry off.
func (in *Injector) SetTelemetry(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		in.kindMeters[k] = tel.Counter("faults_injected_total", telemetry.L("kind", k.String()))
	}
}

// NewInjector wraps next with a seeded fault injector.
func NewInjector(seed int64, p Profile, next httpsim.RoundTripper) *Injector {
	return &Injector{
		Seed:         seed,
		Profile:      p,
		Next:         next,
		attempts:     map[string]int{},
		hangAttempts: map[string]int{},
		armed:        map[string]int{},
		crashes:      map[string]int{},
		counts:       map[Kind]int{},
		storageSeq:   map[string]int{},
	}
}

// key scopes fault decisions to (URL, visiting site): a flaky third-party
// resource misbehaves on some sites, not everywhere at once.
func key(req *httpsim.Request) string { return req.URL + "\x00" + req.TopURL }

// roll is the deterministic per-mille dice roll for one fault kind.
func (in *Injector) roll(k, salt string, perMille int) bool {
	if perMille <= 0 {
		return false
	}
	return fnvHash(in.Seed, salt, k)%1000 < uint64(perMille)
}

func (in *Injector) rank(req *httpsim.Request) int {
	if in.RankOf == nil {
		return 0
	}
	if r := in.RankOf(req.TopURL); r != 0 {
		return r
	}
	return in.RankOf(req.URL)
}

// RoundTrip implements httpsim.RoundTripper.
func (in *Injector) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	b := in.Profile.bucketFor(in.rank(req))
	k := key(req)

	in.mu.Lock()
	// A previously armed crash fires on the n-th subresource of the visit.
	if n, ok := in.armed[req.TopURL]; ok && req.Type != httpsim.TypeMainFrame {
		n--
		if n <= 0 {
			delete(in.armed, req.TopURL)
			in.crashes[req.TopURL]++
			in.counts[KindCrash]++
			in.mu.Unlock()
			in.kindMeters[KindCrash].Inc()
			return nil, &FaultError{Kind: KindCrash, URL: req.URL}
		}
		in.armed[req.TopURL] = n
	}

	// Hang: the request never completes; the caller's watchdog eats the
	// budget and gives up.
	if in.roll(k, "hang", b.HangPerMille) {
		in.hangAttempts[k]++
		if in.Profile.HangRecoverAfter == 0 || in.hangAttempts[k] <= in.Profile.HangRecoverAfter {
			in.counts[KindHang]++
			in.mu.Unlock()
			in.kindMeters[KindHang].Inc()
			return nil, &FaultError{Kind: KindHang, URL: req.URL, Seconds: in.Profile.HangSeconds}
		}
	}

	// Transport error: connection reset; recovers after a few attempts.
	if in.roll(k, "transport", b.TransportPerMille) {
		in.attempts[k]++
		if in.Profile.TransientRecoverAfter == 0 || in.attempts[k] <= in.Profile.TransientRecoverAfter {
			in.counts[KindTransport]++
			in.mu.Unlock()
			in.kindMeters[KindTransport].Inc()
			return nil, &FaultError{Kind: KindTransport, URL: req.URL}
		}
	}

	// Crash-prone pages arm on the main document; the crash then fires a
	// few requests into the visit, after some records were already captured
	// (which is what makes partial-result salvage worth testing).
	if req.Type == httpsim.TypeMainFrame && in.roll(k, "crash", b.CrashPerMille) {
		if in.Profile.CrashRecoverAfter == 0 || in.crashes[req.URL] < in.Profile.CrashRecoverAfter {
			in.armed[req.URL] = 1 + int(fnvHash(in.Seed, "crashat", k)%3)
		}
	}
	in.mu.Unlock()

	resp, err := in.Next.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}

	// Tarpit: the response arrives, but only after a long virtual delay.
	if in.roll(k, "tarpit", b.TarpitPerMille) {
		slowed := *resp
		slowed.DelaySeconds += in.Profile.TarpitSeconds
		resp = &slowed
		in.bump(KindTarpit)
		in.kindMeters[KindTarpit].Inc()
	}

	// Malformed body: truncate and garble successful payloads.
	if resp.Status == 200 && len(resp.Body) > 0 && in.roll(k, "malformed", b.MalformedPerMille) {
		garbled := *resp
		cut := len(resp.Body) * int(1+fnvHash(in.Seed, "cut", k)%7) / 8
		garbled.Body = resp.Body[:cut] + "\x00\x1f<truncated"
		resp = &garbled
		in.bump(KindMalformed)
		in.kindMeters[KindMalformed].Inc()
	}
	return resp, nil
}

// StorageFault decides whether the n-th write to a storage table is lost.
// Package openwpm sniffs this method off the transport to wire storage-layer
// faults without importing this package.
func (in *Injector) StorageFault(table string) bool {
	if in.Profile.StoragePerMille <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.storageSeq[table]++
	hit := fnvHash(in.Seed, "storage", table, in.storageSeq[table])%1000 < uint64(in.Profile.StoragePerMille)
	if hit {
		in.counts[KindStorage]++
		in.kindMeters[KindStorage].Inc()
	}
	return hit
}

func (in *Injector) bump(k Kind) {
	in.mu.Lock()
	in.counts[k]++
	in.mu.Unlock()
}

// Counts returns how many faults of each kind have been injected.
func (in *Injector) Counts() map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.counts))
	for k, n := range in.counts {
		out[k] = n
	}
	return out
}

// CountsByName is Counts keyed by kind name (for reports).
func (in *Injector) CountsByName() map[string]int {
	out := map[string]int{}
	for k, n := range in.Counts() {
		out[k.String()] = n
	}
	return out
}

// fnvHash hashes mixed parts with FNV-1a (same scheme as websim's seeds).
func fnvHash(parts ...any) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0x2b) * 1099511628211
	}
	for _, p := range parts {
		mix(stringify(p))
	}
	return h
}

func stringify(p any) string {
	switch v := p.(type) {
	case string:
		return v
	case int:
		return itoa(int64(v))
	case int64:
		return itoa(v)
	case uint64:
		return itoa(int64(v))
	}
	return ""
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
