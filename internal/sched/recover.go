package sched

import (
	"errors"
	"fmt"
	"sort"

	"gullible/internal/bundle"
	"gullible/internal/openwpm"
	"gullible/internal/telemetry"
	"gullible/internal/wal"
)

// ShardRecoveries is the per-shard recovery detail Recover returns alongside
// the rebuilt checkpoint, for operators who want the damage report.
type ShardRecoveries []*wal.ShardRecovery

// Recover rebuilds a scheduled crawl's checkpoint from the per-shard WALs of
// a killed process: each shard log is scanned, truncated back to its last
// checkpoint and replayed into storage, outcome and recorder state, and the
// resulting Checkpoint plugs straight into Crawl.Resume. The site that was in
// flight when the process died is re-crawled; determinism makes the merged
// result byte-identical to an uninterrupted run.
//
// fss holds one FS per shard, in any order — shard identity comes from each
// log's metadata record, and the rebuilt checkpoint is sorted by shard index.
//
// A log so damaged that not even its metadata record survived
// (wal.ErrNoShardMeta — an empty log, or a kill that tore the very first
// frame) does not fail the recovery: that shard made no durable progress, so
// it is reset and restarted from site zero. Its index is inferred by
// elimination from the recovered siblings, its Start/Sites are recomputed by
// the resumed Run from the crawl's deterministic partition, and the damage
// report carries a MetaLost entry for it. Only when no log at all yields
// metadata — there is nothing to even identify the crawl — does Recover fail.
func Recover(fss []wal.FS, opts wal.Options) (*Checkpoint, ShardRecoveries, error) {
	if len(fss) == 0 {
		return nil, nil, fmt.Errorf("sched: recover: no shard logs")
	}
	recoveries := make(ShardRecoveries, 0, len(fss))
	cp := &Checkpoint{}
	var lost ShardRecoveries // MetaLost placeholders, indices assigned below
	for _, fs := range fss {
		r, err := wal.RecoverShard(fs, opts)
		if err != nil {
			if !errors.Is(err, wal.ErrNoShardMeta) {
				return nil, nil, err
			}
			// no durable progress survived on this shard; rescan purely for
			// the damage report (Scan never fails on damage), then reset the
			// log so the restarted shard opens a clean one
			_, sstats, _ := wal.Scan(fs)
			if rerr := wal.Reset(fs); rerr != nil {
				return nil, nil, fmt.Errorf("sched: recover: resetting unrecoverable shard log: %w", rerr)
			}
			lost = append(lost, &wal.ShardRecovery{
				MetaLost: true,
				Storage:  openwpm.NewStorage(),
				Stats: wal.RecoverStats{Scan: wal.RecoverScan{
					Segments:       sstats.Segments,
					Records:        sstats.Records,
					TruncatedBytes: sstats.TruncatedBytes,
					TornSegments:   sstats.TornSegments,
				}},
			})
			continue
		}
		recoveries = append(recoveries, r)

		report := openwpm.NewCrawlReport()
		for _, o := range r.Outcomes {
			report.AbsorbOutcome(o)
		}
		report.DroppedWrites = r.Storage.DroppedTotal()

		st := &ShardState{
			Shard:      Shard{Index: r.Meta.Index, Start: r.Meta.Start, Sites: r.Meta.Sites},
			Checkpoint: &openwpm.Checkpoint{Done: len(r.Outcomes), Report: report},
			Outcomes:   r.Outcomes,
			Storage:    r.Storage,
			Backend:    r.Backend,
		}
		if r.TraceNextID > 0 {
			// the crawl ran with telemetry: rebuild the shard's flight
			// recorder from the checkpointed span deltas so the resumed
			// trace continues the same event stream and id sequence
			st.flight = telemetry.RestoreFlight(telemetry.DefaultFlightCapacity, r.TraceEvents, r.TraceNextID)
			st.traceCursor = st.flight.Cursor()
		}
		if r.Meta.Record {
			rec := bundle.RestoreRecorder(r.Meta.Meta, r.Bodies, r.RecorderVisits)
			rec.Spool = r.Backend
			st.Recorder = rec
		}
		cp.Workers = r.Meta.Workers
		cp.Shards = append(cp.Shards, st)
	}
	if len(cp.Shards) == 0 {
		return nil, nil, fmt.Errorf("sched: recover: no shard log yielded metadata (%d logs, all unrecoverable)", len(fss))
	}
	if len(lost) > 0 {
		// assign the unrecoverable logs the shard indices the recovered
		// siblings do not claim, in ascending order; Run recomputes their
		// Start/Sites from the crawl's partition (metaLost)
		seen := map[int]bool{}
		for _, st := range cp.Shards {
			seen[st.Shard.Index] = true
		}
		var missing []int
		for i := 0; i < cp.Workers; i++ {
			if !seen[i] {
				missing = append(missing, i)
			}
		}
		if len(missing) != len(lost) {
			return nil, nil, fmt.Errorf("sched: recover: %d unrecoverable shard logs but %d unclaimed shard indices", len(lost), len(missing))
		}
		for i, r := range lost {
			r.Meta.Index = missing[i]
			r.Meta.Workers = cp.Workers
			recoveries = append(recoveries, r)
			cp.Shards = append(cp.Shards, &ShardState{
				Shard:      Shard{Index: missing[i]},
				Checkpoint: &openwpm.Checkpoint{},
				metaLost:   true,
			})
		}
	}
	sort.Slice(cp.Shards, func(i, j int) bool {
		return cp.Shards[i].Shard.Index < cp.Shards[j].Shard.Index
	})
	for i, st := range cp.Shards {
		if st.Shard.Index != i {
			return nil, nil, fmt.Errorf("sched: recover: shard indices not contiguous (have %d at position %d)", st.Shard.Index, i)
		}
	}
	if len(cp.Shards) != cp.Workers {
		return nil, nil, fmt.Errorf("sched: recover: %d shard logs for a %d-worker crawl", len(cp.Shards), cp.Workers)
	}
	sort.Slice(recoveries, func(i, j int) bool { return recoveries[i].Meta.Index < recoveries[j].Meta.Index })
	return cp, recoveries, nil
}

// WALBackend adapts wal.Open into a Crawl.Backend factory: each shard gets
// its own log (via fss, indexed by shard) stamped with the shard's identity.
func WALBackend(fss func(Shard) wal.FS, workers int, record bool, meta map[string]string, opts wal.Options) func(Shard) openwpm.Backend {
	return func(sh Shard) openwpm.Backend {
		be, err := wal.Open(fss(sh), wal.ShardMeta{
			Index:   sh.Index,
			Start:   sh.Start,
			Workers: workers,
			Sites:   sh.Sites,
			Record:  record,
			Meta:    meta,
		}, opts)
		if err != nil {
			// a backend that cannot open degrades to memory-only: the crawl
			// proceeds and durability is lost. A nil backend never reaches
			// the storage layer's backend-error accounting, so the failure
			// is counted here; the series exists only once a log failed
			opts.Telemetry.Counter("wal_open_failures_total").Inc()
			return nil
		}
		return be
	}
}
