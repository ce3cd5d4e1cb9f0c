// Package bundle implements execution bundles: self-contained, deterministic,
// content-addressed archives of a crawl. A bundle records the crawl
// configuration, every HTTP exchange (responses and injected faults alike,
// with bodies stored once in a content-addressed pool), the executed script
// files, the JS-call log, cookies and the outcome taxonomy of every page
// visit, plus the crawl report — serialised to canonical JSON with a SHA-256
// integrity digest.
//
// The point of the archive is re-execution: ReplayTransport serves a recorded
// crawl back byte-for-byte through the ordinary httpsim.RoundTripper
// interface, so any analysis, instrument configuration or stealth variant can
// be re-run offline against the archived web (Web Execution Bundles, Hantke
// et al.), and Diff compares two bundles per visit to surface nondeterminism,
// cloaking and instrument divergence as a structured report.
package bundle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"gullible/internal/analysis"
	"gullible/internal/httpsim"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
)

// Format is the bundle schema version.
const Format = 1

// Tool identifies the producer in manifests.
const Tool = "gullible/bundle"

// Manifest is the bundle's identity block.
type Manifest struct {
	Format int    `json:"format"`
	Tool   string `json:"tool"`
	// Meta holds caller-supplied labels (world seed, fault seed, scenario
	// name). Labels are part of the digest, so they must be deterministic;
	// never put wall-clock timestamps here.
	Meta map[string]string `json:"meta,omitempty"`
}

// Config is the serialisable snapshot of the recorded crawl's configuration —
// everything needed to re-run the crawl against the archive except live
// objects (transport, stealth instrument), which the replayer reconstructs.
type Config struct {
	OS             int     `json:"os"`
	Mode           int     `json:"mode"`
	FirefoxVersion int     `json:"firefoxVersion,omitempty"`
	ClientID       string  `json:"clientID,omitempty"`
	DwellSeconds   float64 `json:"dwellSeconds,omitempty"`

	JSInstrument            bool `json:"jsInstrument,omitempty"`
	HTTPInstrument          bool `json:"httpInstrument,omitempty"`
	CookieInstrument        bool `json:"cookieInstrument,omitempty"`
	HTTPFilterJSOnly        bool `json:"httpFilterJSOnly,omitempty"`
	LegacyInstrumentGlobals bool `json:"legacyInstrumentGlobals,omitempty"`
	HoneyProps              int  `json:"honeyProps,omitempty"`
	// Stealth records that the crawl ran the hardened instrument; replays
	// must re-attach it via openwpm.CrawlConfig.Stealth (the instrument
	// itself is code, not data).
	Stealth bool `json:"stealth,omitempty"`
	// TamperAnalysis records that the crawl statically analysed stored
	// scripts; replays re-attach analysis.TamperRecorder (same code-not-data
	// rule as Stealth) so the tamper table reproduces byte-for-byte.
	TamperAnalysis bool `json:"tamperAnalysis,omitempty"`

	MaxSubpages         int  `json:"maxSubpages,omitempty"`
	SimulateInteraction bool `json:"simulateInteraction,omitempty"`
	MaxRetries          int  `json:"maxRetries,omitempty"`

	MaxVisitSeconds    float64 `json:"maxVisitSeconds,omitempty"`
	MaxCrawlSeconds    float64 `json:"maxCrawlSeconds,omitempty"`
	BackoffBaseSeconds float64 `json:"backoffBaseSeconds,omitempty"`
	BackoffMaxSeconds  float64 `json:"backoffMaxSeconds,omitempty"`
	BreakerThreshold   int     `json:"breakerThreshold,omitempty"`
	BlindRetry         bool    `json:"blindRetry,omitempty"`
}

// ConfigOf snapshots a crawl configuration.
func ConfigOf(c openwpm.CrawlConfig) Config {
	return Config{
		OS: int(c.OS), Mode: int(c.Mode), FirefoxVersion: c.FirefoxVersion,
		ClientID: c.ClientID, DwellSeconds: c.DwellSeconds,
		JSInstrument: c.JSInstrument, HTTPInstrument: c.HTTPInstrument,
		CookieInstrument: c.CookieInstrument, HTTPFilterJSOnly: c.HTTPFilterJSOnly,
		LegacyInstrumentGlobals: c.LegacyInstrumentGlobals, HoneyProps: c.HoneyProps,
		Stealth:        c.Stealth != nil,
		TamperAnalysis: c.Tamper != nil,
		MaxSubpages:    c.MaxSubpages, SimulateInteraction: c.SimulateInteraction,
		MaxRetries:      c.MaxRetries,
		MaxVisitSeconds: c.MaxVisitSeconds, MaxCrawlSeconds: c.MaxCrawlSeconds,
		BackoffBaseSeconds: c.BackoffBaseSeconds, BackoffMaxSeconds: c.BackoffMaxSeconds,
		BreakerThreshold: c.BreakerThreshold, BlindRetry: c.BlindRetry,
	}
}

// CrawlConfig reconstructs an openwpm configuration from the snapshot. A
// recording that ran static tamper analysis gets analysis.TamperRecorder
// back: the analyser is pure, so re-attaching it reproduces the recorded
// tamper table exactly. Transport, Recorder and Stealth are left nil for the
// caller to supply.
func (c Config) CrawlConfig() openwpm.CrawlConfig {
	cfg := openwpm.CrawlConfig{
		OS: jsdom.OS(c.OS), Mode: jsdom.Mode(c.Mode), FirefoxVersion: c.FirefoxVersion,
		ClientID: c.ClientID, DwellSeconds: c.DwellSeconds,
		JSInstrument: c.JSInstrument, HTTPInstrument: c.HTTPInstrument,
		CookieInstrument: c.CookieInstrument, HTTPFilterJSOnly: c.HTTPFilterJSOnly,
		LegacyInstrumentGlobals: c.LegacyInstrumentGlobals, HoneyProps: c.HoneyProps,
		MaxSubpages: c.MaxSubpages, SimulateInteraction: c.SimulateInteraction,
		MaxRetries:      c.MaxRetries,
		MaxVisitSeconds: c.MaxVisitSeconds, MaxCrawlSeconds: c.MaxCrawlSeconds,
		BackoffBaseSeconds: c.BackoffBaseSeconds, BackoffMaxSeconds: c.BackoffMaxSeconds,
		BreakerThreshold: c.BreakerThreshold, BlindRetry: c.BlindRetry,
	}
	if c.TamperAnalysis {
		cfg.Tamper = analysis.TamperRecorder
	}
	return cfg
}

// Exchange is one archived HTTP round trip: a request and either its
// response (body by content hash) or the error the transport returned —
// injected faults included, with the metadata needed to replay them.
type Exchange struct {
	Method string `json:"method"`
	URL    string `json:"url"`
	Type   string `json:"type"`
	TopURL string `json:"topURL,omitempty"`

	Status       int               `json:"status,omitempty"`
	Headers      map[string]string `json:"headers,omitempty"`
	BodySHA      string            `json:"bodySHA,omitempty"`
	SetCookies   []httpsim.Cookie  `json:"setCookies,omitempty"`
	DelaySeconds float64           `json:"delaySeconds,omitempty"`

	Err        string  `json:"err,omitempty"`
	ErrClass   string  `json:"errClass,omitempty"`
	ErrSeconds float64 `json:"errSeconds,omitempty"`
	ErrAborts  bool    `json:"errAborts,omitempty"`
}

// ScriptRef points one stored script file (the HTTP instrument's content
// table) at its body in the content pool.
type ScriptRef struct {
	URL   string `json:"url"`
	SHA   string `json:"sha"`
	CType string `json:"ctype,omitempty"`
}

// Visit archives one page visit: its outcome record plus everything the
// transport and instruments captured while it ran.
type Visit struct {
	Record    openwpm.VisitRecord   `json:"record"`
	Exchanges []Exchange            `json:"exchanges,omitempty"`
	JSCalls   []openwpm.JSCall      `json:"jsCalls,omitempty"`
	Cookies   []openwpm.CookieEntry `json:"cookies,omitempty"`
	Scripts   []ScriptRef           `json:"scripts,omitempty"`
	// Tampers are the static tamper-analysis records stored during this
	// visit (one per first-seen script body, findings only).
	Tampers []openwpm.TamperRecord `json:"tampers,omitempty"`
	// StorageWrites counts, per table, the storage fault-filter
	// consultations this visit consumed.
	StorageWrites map[string]int `json:"storageWrites,omitempty"`
	// StorageDrops lists the writes the storage fault injector dropped
	// during this visit; replays drop the same writes.
	StorageDrops []StorageDrop `json:"storageDrops,omitempty"`
}

// StorageDrop locates one dropped storage write (faults.PageCursor): the
// N-th write to Table since the main-frame request for Page.
type StorageDrop struct {
	Page  string `json:"page"`
	Table string `json:"table"`
	N     int    `json:"n"`
}

// requested reports whether the visit made a main-frame request for page.
func (v *Visit) requested(page string) bool {
	for _, e := range v.Exchanges {
		if e.Type == string(httpsim.TypeMainFrame) && e.URL == page {
			return true
		}
	}
	return false
}

// Bundle is a complete archived crawl.
type Bundle struct {
	Manifest Manifest `json:"manifest"`
	Config   Config   `json:"config"`
	// Sites is the crawl's input URL list in visit order.
	Sites  []string `json:"sites,omitempty"`
	Visits []Visit  `json:"visits,omitempty"`
	// Crashes is the browser-restart table (crash-recovery bookkeeping).
	Crashes []openwpm.CrashRecord `json:"crashes,omitempty"`
	// Bodies is the content-addressed body pool: SHA-256 hex → content.
	Bodies map[string]string `json:"bodies,omitempty"`
	// Report is the crawl's final accounting.
	Report *openwpm.CrawlReport `json:"report,omitempty"`
	// Digest is the SHA-256 of the bundle's canonical JSON with this field
	// empty; Seal computes it and Verify checks it.
	Digest string `json:"digest,omitempty"`
}

// canonicalJSON renders the bundle deterministically with the digest field
// blanked. encoding/json sorts map keys and uses shortest-round-trip float
// formatting, so identical bundle values always produce identical bytes.
func (b *Bundle) canonicalJSON() ([]byte, error) {
	c := *b
	c.Digest = ""
	return json.MarshalIndent(&c, "", " ")
}

// ComputeDigest returns the SHA-256 hex of the canonical encoding.
func (b *Bundle) ComputeDigest() (string, error) {
	data, err := b.canonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Seal computes and stores the integrity digest.
func (b *Bundle) Seal() error {
	d, err := b.ComputeDigest()
	if err != nil {
		return err
	}
	b.Digest = d
	return nil
}

// Verify checks structural integrity: the digest matches the canonical
// encoding, every body reference resolves and hashes to its key, every
// storage drop is a write its visit accounts for (N from 1 to the visit's
// StorageWrites for the table, on a page the visit requested as a main
// frame), and the embedded crawl report accounts for every site.
func (b *Bundle) Verify() error {
	if b.Manifest.Format != Format {
		return fmt.Errorf("bundle: unsupported format %d (want %d)", b.Manifest.Format, Format)
	}
	if b.Digest == "" {
		return fmt.Errorf("bundle: unsealed (empty digest)")
	}
	d, err := b.ComputeDigest()
	if err != nil {
		return err
	}
	if d != b.Digest {
		return fmt.Errorf("bundle: digest mismatch: manifest %s, computed %s", b.Digest, d)
	}
	for sha, body := range b.Bodies {
		sum := sha256.Sum256([]byte(body))
		if hex.EncodeToString(sum[:]) != sha {
			return fmt.Errorf("bundle: body pool corrupted at %s", sha)
		}
	}
	for _, v := range b.Visits {
		for _, e := range v.Exchanges {
			if e.BodySHA != "" {
				if _, ok := b.Bodies[e.BodySHA]; !ok {
					return fmt.Errorf("bundle: exchange %s %s references missing body %s", e.Method, e.URL, e.BodySHA)
				}
			}
		}
		for _, s := range v.Scripts {
			if _, ok := b.Bodies[s.SHA]; !ok {
				return fmt.Errorf("bundle: script %s references missing body %s", s.URL, s.SHA)
			}
		}
		for _, d := range v.StorageDrops {
			if d.N < 1 || d.N > v.StorageWrites[d.Table] {
				return fmt.Errorf("bundle: visit %s drops %s write %d but makes %d", v.Record.SiteURL, d.Table, d.N, v.StorageWrites[d.Table])
			}
			if !v.requested(d.Page) {
				return fmt.Errorf("bundle: visit %s drops a write on %s, which it never requested as a main frame", v.Record.SiteURL, d.Page)
			}
		}
	}
	if b.Report != nil && !b.Report.Accounted() {
		return fmt.Errorf("bundle: crawl report does not account for every site")
	}
	return nil
}

// Marshal encodes the sealed bundle as canonical JSON (digest included).
func (b *Bundle) Marshal() ([]byte, error) {
	return json.MarshalIndent(b, "", " ")
}

// Unmarshal decodes a bundle. A byte stream that ends mid-document (the
// signature of an interrupted write) gets a truncation diagnostic rather than
// a bare syntax error, so `wpmbundle verify` can say what actually happened.
func Unmarshal(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		if len(data) == 0 {
			return nil, fmt.Errorf("bundle: file is empty — likely an interrupted write; recover the crawl from its WAL and resume it")
		}
		var syn *json.SyntaxError
		if errors.As(err, &syn) && syn.Offset >= int64(len(data)) {
			return nil, fmt.Errorf("bundle: file appears truncated after %d bytes: %w — likely an interrupted write; recover the crawl from its WAL and resume it", len(data), err)
		}
		return nil, fmt.Errorf("bundle: decode: %w", err)
	}
	return &b, nil
}

// WriteFile seals (if needed) and writes the bundle to path.
func (b *Bundle) WriteFile(path string) error {
	if b.Digest == "" {
		if err := b.Seal(); err != nil {
			return err
		}
	}
	data, err := b.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and verifies a bundle from path.
func ReadFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if err := b.Verify(); err != nil {
		return nil, err
	}
	return b, nil
}

// Stats summarises a bundle for human output.
func (b *Bundle) Stats() string {
	exchanges, calls, cookies := 0, 0, 0
	for _, v := range b.Visits {
		exchanges += len(v.Exchanges)
		calls += len(v.JSCalls)
		cookies += len(v.Cookies)
	}
	return fmt.Sprintf("bundle: %d sites, %d visits, %d exchanges, %d bodies, %d js calls, %d cookies, %d crashes",
		len(b.Sites), len(b.Visits), exchanges, len(b.Bodies), calls, cookies, len(b.Crashes))
}
