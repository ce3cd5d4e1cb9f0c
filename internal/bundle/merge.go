package bundle

import (
	"fmt"
	"maps"

	"gullible/internal/openwpm"
)

// Finalize assembles and seals the bundle of a finished crawl from its shard
// recorders. Recorders must be given in shard order (the order their site
// slices partition sites) so concatenating their visits reconstructs the
// serial crawl stream exactly. cfg is the effective (defaulted) configuration
// the crawl ran with, crashes its browser-restart table (the merged storage's
// Crashes) and report its final accounting: the sharded scheduler passes the
// report it re-folded in global site order, so the sealed bytes are
// identical no matter how many workers recorded the crawl.
//
// StorageDrops sequence numbers are bundle-global, so each recorder's drops
// move past the writes its predecessors' visits account for (their per-visit
// StorageWrites counts, as StorageWritesFor sums them); the archive then
// replays its losses correctly both serially and resharded
// (ReplayTransport.OffsetStorage).
func Finalize(recs []*Recorder, cfg openwpm.CrawlConfig, sites []string, crashes []openwpm.CrashRecord, report *openwpm.CrawlReport) (*Bundle, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("bundle: finalize of zero recorders")
	}
	b := &Bundle{
		Manifest: Manifest{Format: Format, Tool: Tool, Meta: recs[0].meta},
		Config:   ConfigOf(cfg),
		Sites:    append([]string(nil), sites...),
		Crashes:  crashes,
		Report:   report,
	}
	offsets := map[string]int{} // per-table global write position so far
	for i, r := range recs {
		if !maps.Equal(r.meta, recs[0].meta) {
			return nil, fmt.Errorf("bundle: recorder %d manifest meta differs from recorder 0", i)
		}
		b.Visits = append(b.Visits, r.visits...)
		for sha, body := range r.bodies {
			if b.Bodies == nil {
				b.Bodies = map[string]string{}
			}
			b.Bodies[sha] = body
		}
		for table, seqs := range r.drops {
			for _, seq := range seqs {
				if b.StorageDrops == nil {
					b.StorageDrops = map[string][]int{}
				}
				b.StorageDrops[table] = append(b.StorageDrops[table], seq+offsets[table])
			}
		}
		for _, v := range r.visits {
			for table, n := range v.StorageWrites {
				offsets[table] += n
			}
		}
	}
	dedupeTampers(b.Visits)
	if err := b.Seal(); err != nil {
		return nil, err
	}
	return b, nil
}

// dedupeTampers keeps each script body's static-analysis record only on the
// first visit (in shard order) that served the body. The storage layer
// analyses content once per store, so every shard's recorder attaches a row
// at its own shard-local first sighting; a serial recording attaches it at
// the global first sighting — which is exactly the earliest surviving row
// here, so the filtered visit stream is byte-identical to a serial one.
func dedupeTampers(visits []Visit) {
	seen := map[string]bool{}
	for i := range visits {
		if len(visits[i].Tampers) == 0 {
			continue
		}
		var kept []openwpm.TamperRecord // fresh slice: recorders stay unmutated
		for _, tr := range visits[i].Tampers {
			if !seen[tr.SHA256] {
				seen[tr.SHA256] = true
				kept = append(kept, tr)
			}
		}
		visits[i].Tampers = kept
	}
}

// StorageWritesFor sums the per-visit storage write counts of the given
// sites — typically a contiguous shard prefix of the bundle's site list, to
// compute the global write offset at which the next shard starts.
func (b *Bundle) StorageWritesFor(sites []string) map[string]int {
	in := map[string]bool{}
	for _, s := range sites {
		in[s] = true
	}
	out := map[string]int{}
	for _, v := range b.Visits {
		if !in[v.Record.Site] {
			continue
		}
		for table, n := range v.StorageWrites {
			out[table] += n
		}
	}
	return out
}
