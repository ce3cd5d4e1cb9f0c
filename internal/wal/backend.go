package wal

import (
	"encoding/json"
	"errors"
	"fmt"

	"gullible/internal/bundle"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
)

// ErrNoShardMeta reports a log whose shard-metadata record did not survive:
// either the log is empty or its first record was torn. Such a shard made no
// durable progress at all (metadata is the first frame ever written), so a
// multi-shard recovery can treat it as "start this shard over" instead of
// failing the whole crawl — that is what sched.Recover does.
var ErrNoShardMeta = errors.New("wal: no shard metadata recovered")

// Record kinds. The storage kinds mirror the tables of the measurement
// database; body/bvisit carry the bundle recorder's archive stream; meta
// identifies the shard; checkpoint marks the durable site boundary.
const (
	recMeta       = "meta"
	recVisit      = "visit"
	recCrash      = "crash"
	recRequest    = "request"
	recCookie     = "cookie"
	recJSCall     = "jscall"
	recBody       = "body"   // content pool entry, written once per SHA
	recScript     = "script" // one accepted content-table write (URL -> SHA)
	recTamper     = "tamper"
	recDrop       = "drop"
	recBVisit     = "bvisit" // one bundle.Visit spooled from the recorder
	recCheckpoint = "checkpoint"
)

// ShardMeta identifies the crawl shard a log belongs to. It is the first
// record of every log, so recovery can rebuild scheduling state without any
// side channel.
type ShardMeta struct {
	Index   int               `json:"index"`
	Start   int               `json:"start"`
	Workers int               `json:"workers"`
	Sites   []string          `json:"sites"`
	Record  bool              `json:"record,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"` // bundle manifest meta
}

type bodyRec struct {
	SHA     string `json:"sha"`
	Content string `json:"content"`
}

type scriptRec struct {
	URL   string `json:"url"`
	SHA   string `json:"sha"`
	CType string `json:"ctype,omitempty"`
}

type dropRec struct {
	Table string `json:"table"`
	Site  string `json:"site,omitempty"`
}

type checkRec struct {
	Outcome openwpm.SiteOutcome `json:"outcome"`
	// Trace is the flight-recorder delta since the previous checkpoint (a
	// telemetry.FlightCheckpoint), so recovery can rebuild the span stream
	// alongside the storage tables.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Backend is the WAL-backed openwpm.Backend (and bundle.Spool) for one crawl
// shard: every accepted storage record and every spooled bundle record is
// appended to the shard's log. A Backend serves one shard on one goroutine,
// like the storage it backs.
type Backend struct {
	w      *Writer
	bodies map[string]bool // content-pool SHAs already logged
}

// Open starts a fresh shard log: a new writer whose first record is the
// shard's metadata.
func Open(fs FS, meta ShardMeta, opts Options) (*Backend, error) {
	w, err := NewWriter(fs, opts)
	if err != nil {
		return nil, err
	}
	b := &Backend{w: w, bodies: map[string]bool{}}
	if err := w.Append(recMeta, meta); err != nil {
		return nil, err
	}
	return b, nil
}

// Stats exposes the underlying writer's durability accounting.
func (b *Backend) Stats() WriterStats { return b.w.Stats() }

func (b *Backend) AppendVisit(v openwpm.VisitRecord) error {
	return b.w.Append(recVisit, v)
}

func (b *Backend) AppendCrash(c openwpm.CrashRecord) error {
	return b.w.Append(recCrash, c)
}

func (b *Backend) AppendRequest(r openwpm.RequestRecord) error {
	return b.w.Append(recRequest, r)
}

func (b *Backend) AppendCookie(c openwpm.CookieEntry) error {
	return b.w.Append(recCookie, c)
}

func (b *Backend) AppendJSCall(c openwpm.JSCall) error {
	return b.w.Append(recJSCall, c)
}

// AppendScriptFile logs an accepted content write: the body goes to the
// shared content pool once per SHA, the URL→SHA association every time.
func (b *Backend) AppendScriptFile(url, sha, content, ctype string) error {
	var err error
	if !b.bodies[sha] {
		b.bodies[sha] = true
		err = b.w.Append(recBody, bodyRec{SHA: sha, Content: content})
	}
	if e := b.w.Append(recScript, scriptRec{URL: url, SHA: sha, CType: ctype}); err == nil {
		err = e
	}
	return err
}

func (b *Backend) AppendTamper(t openwpm.TamperRecord) error {
	return b.w.Append(recTamper, t)
}

func (b *Backend) AppendDrop(table, site string) error {
	return b.w.Append(recDrop, dropRec{Table: table, Site: site})
}

// AppendCheckpoint writes the durable site boundary and commits it per the
// sync policy — under the default SyncCheckpoint policy this is where fsync
// happens. The recorder blob is not logged: a recording resumes from its
// spooled visits alone.
func (b *Backend) AppendCheckpoint(outcome openwpm.SiteOutcome, _, trace []byte) error {
	if err := b.w.Append(recCheckpoint, checkRec{Outcome: outcome, Trace: trace}); err != nil {
		return err
	}
	return b.w.Commit()
}

// SpoolBody implements bundle.Spool over the shared content pool: script
// bodies and HTTP response bodies dedup against each other, exactly like the
// recorder's own pool.
func (b *Backend) SpoolBody(sha, content string) error {
	if b.bodies[sha] {
		return nil
	}
	b.bodies[sha] = true
	return b.w.Append(recBody, bodyRec{SHA: sha, Content: content})
}

// SpoolVisit implements bundle.Spool: one closed bundle visit with all its
// per-visit buffers.
func (b *Backend) SpoolVisit(v bundle.Visit) error {
	return b.w.Append(recBVisit, v)
}

// Flush commits buffered appends per the sync policy.
func (b *Backend) Flush() error { return b.w.Commit() }

// Close commits and closes the shard log.
func (b *Backend) Close() error { return b.w.Close() }

// RecoverStats describes a shard recovery.
type RecoverStats struct {
	Scan RecoverScan `json:"scan"`
	// Applied is how many recovered records were replayed into state.
	Applied int `json:"applied"`
	// Discarded is how many intact records after the last checkpoint were
	// thrown away (they belong to the in-flight site, which is re-crawled).
	Discarded int `json:"discarded"`
	// Unresolved counts script references whose pooled body was lost to a
	// disk fault; the reference is dropped and counted rather than trusted.
	Unresolved int `json:"unresolved,omitempty"`
}

// RecoverScan is the scan-level accounting embedded in RecoverStats.
type RecoverScan struct {
	Segments       int      `json:"segments"`
	Records        int      `json:"records"`
	TruncatedBytes int64    `json:"truncatedBytes,omitempty"`
	TornSegments   []string `json:"tornSegments,omitempty"`
}

// ShardRecovery is the rebuilt durable state of one crawl shard: everything
// committed up to the last checkpoint, plus a continuation Backend that
// appends after them.
type ShardRecovery struct {
	Meta    ShardMeta
	Storage *openwpm.Storage
	// MetaLost marks a shard whose log lost even its metadata record
	// (ErrNoShardMeta): no durable progress survived, the log was reset, and
	// the shard restarts from site zero. Only multi-shard recovery
	// (sched.Recover) synthesises these — everything below Meta is zero and
	// Backend is nil; the resumed crawl's backend factory opens a fresh log.
	MetaLost bool
	// Outcomes are the per-site outcomes in crawl order; len(Outcomes) is
	// the shard's resume position.
	Outcomes []openwpm.SiteOutcome
	// RecorderVisits / Bodies rebuild the bundle recorder when the crawl was
	// recorded.
	RecorderVisits []bundle.Visit
	Bodies         map[string]string
	// TraceEvents / TraceNextID rebuild the shard's flight recorder when the
	// crawl ran with telemetry: the concatenated checkpoint deltas and the
	// span-id cursor at the last checkpoint (0 when telemetry was off — a
	// real id sequence starts at 1).
	TraceEvents []telemetry.SpanEvent
	TraceNextID int64
	Stats       RecoverStats
	// Backend continues the log at a fresh segment.
	Backend *Backend
}

// Done is the number of sites the recovered shard has completed.
func (r *ShardRecovery) Done() int { return len(r.Outcomes) }

// RecoverShard rebuilds a shard from its log: scan the committed record
// stream, truncate back to the last checkpoint (physically — the discarded
// tail belongs to the site that was in flight when the process died), replay
// the surviving records into storage and recorder state, and open a
// continuation writer on a fresh segment. The in-flight site is simply
// re-crawled by the resumed scheduler; determinism makes the merged result
// byte-identical to an uninterrupted run.
func RecoverShard(fs FS, opts Options) (*ShardRecovery, error) {
	recs, sstats, err := Scan(fs)
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	tel.Gauge("wal_recovery_truncated_bytes").Add(sstats.TruncatedBytes)

	if len(recs) == 0 || recs[0].Kind != recMeta {
		return nil, fmt.Errorf("%w (%s)", ErrNoShardMeta, sstats)
	}
	var meta ShardMeta
	if err := json.Unmarshal(recs[0].Data, &meta); err != nil {
		return nil, fmt.Errorf("wal: shard metadata: %w", err)
	}

	// keep everything up to and including the last checkpoint; with no
	// checkpoint yet, only the meta record survives
	keep := 0
	for i, r := range recs {
		if r.Kind == recCheckpoint {
			keep = i
		}
	}
	nextSeg, err := truncateAfter(fs, recs[keep])
	if err != nil {
		return nil, err
	}

	out := &ShardRecovery{
		Meta:    meta,
		Storage: openwpm.NewStorage(),
		Bodies:  map[string]string{},
		Stats: RecoverStats{
			Scan: RecoverScan{
				Segments:       sstats.Segments,
				Records:        sstats.Records,
				TruncatedBytes: sstats.TruncatedBytes,
				TornSegments:   sstats.TornSegments,
			},
			Discarded: len(recs) - keep - 1,
		},
	}
	w, err := newWriterAt(fs, opts, nextSeg)
	if err != nil {
		return nil, err
	}
	out.Backend = &Backend{w: w, bodies: map[string]bool{}}

	for _, r := range recs[1 : keep+1] {
		if err := out.apply(r); err != nil {
			return nil, err
		}
		out.Stats.Applied++
	}
	for sha := range out.Bodies {
		out.Backend.bodies[sha] = true
	}
	return out, nil
}

// apply replays one committed record into the recovered state. Records were
// sanitised and fault-filtered before they were appended, so replay writes
// tables directly — re-running Storage's Add methods would sanitise twice.
func (out *ShardRecovery) apply(r Rec) error {
	s := out.Storage
	switch r.Kind {
	case recVisit:
		var v openwpm.VisitRecord
		if err := json.Unmarshal(r.Data, &v); err != nil {
			return fmt.Errorf("wal: replay visit: %w", err)
		}
		s.Visits = append(s.Visits, v)
	case recCrash:
		var c openwpm.CrashRecord
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return fmt.Errorf("wal: replay crash: %w", err)
		}
		s.Crashes = append(s.Crashes, c)
	case recRequest:
		var q openwpm.RequestRecord
		if err := json.Unmarshal(r.Data, &q); err != nil {
			return fmt.Errorf("wal: replay request: %w", err)
		}
		s.Requests = append(s.Requests, q)
	case recCookie:
		var c openwpm.CookieEntry
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return fmt.Errorf("wal: replay cookie: %w", err)
		}
		s.Cookies = append(s.Cookies, c)
	case recJSCall:
		var c openwpm.JSCall
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return fmt.Errorf("wal: replay jscall: %w", err)
		}
		s.JSCalls = append(s.JSCalls, c)
	case recBody:
		var b bodyRec
		if err := json.Unmarshal(r.Data, &b); err != nil {
			return fmt.Errorf("wal: replay body: %w", err)
		}
		out.Bodies[b.SHA] = b.Content
	case recScript:
		var sc scriptRec
		if err := json.Unmarshal(r.Data, &sc); err != nil {
			return fmt.Errorf("wal: replay script: %w", err)
		}
		f, ok := s.ScriptFiles[sc.SHA]
		if !ok {
			content, have := out.Bodies[sc.SHA]
			if !have {
				// the pooled body was lost to a disk fault before this
				// reference committed; count it rather than invent content
				out.Stats.Unresolved++
				return nil
			}
			s.ScriptFiles[sc.SHA] = openwpm.ScriptFile{
				URL: sc.URL, SHA256: sc.SHA, Content: content,
				CType: sc.CType, URLs: []string{sc.URL},
			}
			return nil
		}
		for _, u := range f.URLs {
			if u == sc.URL {
				return nil
			}
		}
		f.URLs = append(f.URLs, sc.URL)
		s.ScriptFiles[sc.SHA] = f
	case recTamper:
		var t openwpm.TamperRecord
		if err := json.Unmarshal(r.Data, &t); err != nil {
			return fmt.Errorf("wal: replay tamper: %w", err)
		}
		s.Tampers = append(s.Tampers, t)
	case recDrop:
		var dr dropRec
		if err := json.Unmarshal(r.Data, &dr); err != nil {
			return fmt.Errorf("wal: replay drop: %w", err)
		}
		s.Dropped[dr.Table]++
	case recBVisit:
		var v bundle.Visit
		if err := json.Unmarshal(r.Data, &v); err != nil {
			return fmt.Errorf("wal: replay bundle visit: %w", err)
		}
		out.RecorderVisits = append(out.RecorderVisits, v)
	case recCheckpoint:
		var c checkRec
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return fmt.Errorf("wal: replay checkpoint: %w", err)
		}
		out.Outcomes = append(out.Outcomes, c.Outcome)
		if len(c.Trace) > 0 {
			var fc telemetry.FlightCheckpoint
			if err := json.Unmarshal(c.Trace, &fc); err != nil {
				return fmt.Errorf("wal: replay trace checkpoint: %w", err)
			}
			out.TraceEvents = append(out.TraceEvents, fc.Events...)
			out.TraceNextID = fc.NextID
		}
	default:
		return fmt.Errorf("wal: unknown record kind %q", r.Kind)
	}
	return nil
}
