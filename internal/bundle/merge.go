package bundle

import (
	"fmt"
	"maps"

	"gullible/internal/openwpm"
)

// Finalize assembles and seals the bundle of a finished crawl from its shard
// recorders and its merged storage. Recorders must be given in shard order
// (the order their site slices partition sites), the order sched.Run merges
// the shard storages in, so recorder visit i and storage visit i are the same
// page: the bundle takes its exchanges, writes and drops from the first and
// its visit record, JS calls, cookies, script references and tamper rows
// from the second (cut at storage.VisitEnds). A count mismatch — a spooled
// visit lost to a disk fault, say — fails rather than archive a shifted
// crawl. cfg is the effective (defaulted) configuration the crawl ran with
// and report its final accounting: the sharded scheduler passes the report
// it re-folded in global site order, so the sealed bytes are identical no
// matter how many workers recorded the crawl.
func Finalize(recs []*Recorder, cfg openwpm.CrawlConfig, sites []string, storage *openwpm.Storage, report *openwpm.CrawlReport) (*Bundle, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("bundle: finalize of zero recorders")
	}
	b := &Bundle{
		Manifest: Manifest{Format: Format, Tool: Tool, Meta: recs[0].meta},
		Config:   ConfigOf(cfg),
		Sites:    append([]string(nil), sites...),
		Crashes:  storage.Crashes,
		Report:   report,
	}
	bodies := map[string]string{}
	for i, r := range recs {
		if !maps.Equal(r.meta, recs[0].meta) {
			return nil, fmt.Errorf("bundle: recorder %d manifest meta differs from recorder 0", i)
		}
		b.Visits = append(b.Visits, r.visits...)
		maps.Copy(bodies, r.bodies)
	}
	if len(b.Visits) != len(storage.Visits) || len(storage.VisitEnds) != len(storage.Visits) {
		return nil, fmt.Errorf("bundle: recorders archived %d visits, storage holds %d (%d marked)", len(b.Visits), len(storage.Visits), len(storage.VisitEnds))
	}
	var from openwpm.VisitRows
	for i, to := range storage.VisitEnds {
		v := &b.Visits[i] // a copy of the recorder's visit: recorders stay unmutated
		v.Record = storage.Visits[i]
		// capped slices: appending to a visit's rows never overwrites the next
		// visit's in the shared storage table
		v.JSCalls = storage.JSCalls[from.JSCalls:to.JSCalls:to.JSCalls]
		v.Cookies = storage.Cookies[from.Cookies:to.Cookies:to.Cookies]
		v.Scripts = storage.ContentWrites[from.ContentWrites:to.ContentWrites:to.ContentWrites]
		v.Tampers = storage.Tampers[from.Tampers:to.Tampers:to.Tampers]
		from = to
	}
	for sha, f := range storage.ScriptFiles {
		bodies[sha] = f.Content
	}
	if len(bodies) > 0 {
		b.Bodies = bodies
	}
	if err := b.Seal(); err != nil {
		return nil, err
	}
	return b, nil
}

// StorageWritesFor sums the per-visit storage write counts of the given
// sites. The benchmark harness (cmd/wpmbench) sizes its replay offsets with
// it.
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
