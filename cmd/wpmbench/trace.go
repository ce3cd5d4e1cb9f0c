package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. Site-level layers are recorded by the wrappers in wrap.go;
// pass-level spans by the workload code around the public calls it makes.
const (
	spanPass       = "pass"
	spanSite       = "site"
	spanShard      = "shard"
	spanHTTP       = "httpsim.roundtrip"
	spanInstrument = "openwpm.instrument"
	spanStealth    = "stealth.instrument"
	spanTamper     = "analysis.tamper"
	spanAppend     = "storage.append"
	spanPrep       = "sched.checkpoint_prep"
	spanCheckpoint = "storage.checkpoint"
	spanFlush      = "storage.flush"
	spanSchedRun   = "sched.run"
	spanAnalyze    = "experiments.analyze"
	spanDigest     = "storage.digest"
	spanMarshal    = "bundle.marshal"
	spanUnmarshal  = "bundle.unmarshal"
	spanVerify     = "bundle.verify"
	spanCloseWAL   = "wal.close"
	spanJob        = "job"
)

// rowOther is the layer-table row for a site span's self time: everything a
// page visit does between the wrapped boundaries — realm builds, HTML
// parsing, script compilation and execution, the event loop, deferred
// subframe instrumentation and the recorder.
const rowOther = "browser.other"

// rowIdle is a shard's time inside sched.Run but outside its own work:
// goroutine start-up, waiting for slower shards, and the merge.
const rowIdle = "sched.idle"

// span is one timed interval. Times are nanoseconds since the tracer's epoch
// (monotonic clock). Parent indexes the span's lane; -1 is the lane root.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    string
}

// lane is one goroutine's span buffer: the pass's main goroutine, or one
// scheduler shard. A lane is written by exactly one goroutine and read only
// after that goroutine is done, so it needs no lock.
type lane struct {
	tracing bool
	epoch   time.Time

	spans   []span
	open    []int32
	pending int // first top-level span not yet adopted by a site span

	// site boundaries (kept with tracing off too: they give per-site
	// latency)
	start     int64
	siteStart int64
	visitEnd  int64
	marks     []int64
	done      int64 // when the shard's worker flushed its backend

	// parent is the main-lane span (sched.run) a shard lane runs under.
	parent int32
	// failed marks a shard whose backend could not be opened.
	failed bool
}

func (l *lane) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span nested in the innermost open one; -1 with tracing off.
func (l *lane) begin(name string) int32 {
	if !l.tracing {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: l.now(), End: -1, Parent: parent})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

// end closes the span begin returned.
func (l *lane) end(i int32) {
	if i < 0 {
		return
	}
	l.spans[i].End = l.now()
	l.open = l.open[:len(l.open)-1]
}

// beginReq is begin with a request id (site URL or job id).
func (l *lane) beginReq(name, req string) int32 {
	i := l.begin(name)
	if i >= 0 {
		l.spans[i].Req = req
	}
	return i
}

// closeSite records a finished site whose start was only known as the
// previous boundary: the site span is created after the fact and adopts
// every top-level span recorded since the previous site.
func (l *lane) closeSite(url string, start, end int64) {
	if !l.tracing {
		return
	}
	l.spans = append(l.spans, span{Name: spanSite, Start: start, End: end, Parent: -1, Req: url})
	site := int32(len(l.spans) - 1)
	for i := l.pending; i < int(site); i++ {
		if l.spans[i].Parent == -1 {
			l.spans[i].Parent = site
		}
	}
	l.pending = len(l.spans)
}

// restart moves the lane's start to now: a shard lane is allocated before
// sched.Run and starts when its worker asks for its backend.
func (l *lane) restart() {
	l.start = l.now()
	l.siteStart = l.start
}

// mark records a site boundary for the latency samples.
func (l *lane) mark(t int64) {
	l.marks = append(l.marks, t)
	l.siteStart = t
}

// latencies are the per-site wall times between consecutive boundaries,
// in milliseconds.
func (l *lane) latencies() []float64 {
	var out []float64
	prev := l.start
	for _, m := range l.marks {
		out = append(out, float64(m-prev)/1e6)
		prev = m
	}
	return out
}

// tracer owns every lane of one pass: the main lane plus one lane per shard
// of every scheduled crawl the pass ran.
type tracer struct {
	tracing bool
	epoch   time.Time
	main    *lane
	shards  [][]*lane // per sched.Run, per shard
}

func newTracer(tracing bool) *tracer {
	t := &tracer{tracing: tracing, epoch: time.Now()}
	t.main = t.newLane()
	return t
}

func (t *tracer) newLane() *lane {
	l := &lane{tracing: t.tracing, epoch: t.epoch, parent: -1}
	l.restart()
	return l
}

// shardLanes allocates the lanes of one scheduled crawl before it starts
// (workers run concurrently; each touches only its own lane).
func (t *tracer) shardLanes(workers int, parent int32) []*lane {
	ls := make([]*lane, workers)
	for i := range ls {
		ls[i] = t.newLane()
		ls[i].parent = parent
	}
	t.shards = append(t.shards, ls)
	return ls
}

// siteLatencies gathers per-site latencies from every shard lane, plus the
// main lane (sequential crawls mark there).
func (t *tracer) siteLatencies() []float64 {
	out := t.main.latencies()
	for _, run := range t.shards {
		for _, l := range run {
			out = append(out, l.latencies()...)
		}
	}
	return out
}

// layerRow is one layer's share of a traced pass.
type layerRow struct {
	Layer string `json:"layer"`
	// TotalMS is the layer's self time summed over every lane (work done);
	// WallMS divides shard-lane time by the crawl's shard count, so the
	// WallMS column sums to the pass's wall time.
	TotalMS   float64 `json:"total_ms"`
	WallMS    float64 `json:"wall_ms"`
	Count     int     `json:"count"`
	PerSiteMS float64 `json:"per_site_ms"`
}

// layerTable attributes a traced pass's wall time to layers by self time: a
// span's duration minus the part of it its child spans cover.
type layerTable struct {
	WallMS         float64    `json:"wall_ms"`
	Sites          int        `json:"sites"`
	AccountedPct   float64    `json:"accounted_pct"`
	SchedMergeMS   float64    `json:"sched_merge_ms"`
	ShardImbalance float64    `json:"sched_shard_imbalance"`
	Rows           []layerRow `json:"rows"`
}

// row returns the named row (zero when absent).
func (lt *layerTable) row(name string) layerRow {
	for _, r := range lt.Rows {
		if r.Layer == name {
			return r
		}
	}
	return layerRow{Layer: name}
}

// table computes the layer table of a finished pass. The main lane's root
// span must be the pass span.
func (t *tracer) table() *layerTable {
	rows := map[string]*layerRow{}
	add := func(name string, ms, wallShare float64, count int) {
		r := rows[name]
		if r == nil {
			r = &layerRow{Layer: name}
			rows[name] = r
		}
		r.TotalMS += ms
		r.WallMS += ms * wallShare
		r.Count += count
	}
	sites := 0
	// shard lanes, weighted 1/workers on the wall column
	schedRun := map[int32]bool{}
	var merge float64
	imbalance := 0.0
	for _, run := range t.shards {
		if len(run) == 0 {
			continue
		}
		share := 1 / float64(len(run))
		p := run[0].parent
		schedRun[p] = true
		ps := t.main.spans[p]
		dur := float64(ps.End-ps.Start) / 1e6
		var busyMax, busySum, lastEnd float64
		for _, l := range run {
			self := selfTimes(l.spans)
			busy := 0.0
			for i, sp := range l.spans {
				name := sp.Name
				if name == spanSite {
					name = rowOther
					sites++
				}
				add(name, self[i], share, 1)
				if sp.Parent == -1 {
					busy += float64(sp.End-sp.Start) / 1e6
				}
			}
			add(rowIdle, dur-busy, share, 0)
			busyMax = max(busyMax, busy)
			busySum += busy
			lastEnd = max(lastEnd, float64(l.done-ps.Start)/1e6)
		}
		merge += dur - lastEnd
		if busySum > 0 {
			imbalance = max(imbalance, busyMax/(busySum/float64(len(run))))
		}
	}
	// main lane: sched.run spans are accounted through their shard lanes
	self := selfTimes(t.main.spans)
	wall := 0.0
	for i, sp := range t.main.spans {
		if sp.Name == spanPass && sp.Parent == -1 {
			wall = float64(sp.End-sp.Start) / 1e6
		}
		if schedRun[int32(i)] {
			continue
		}
		name := sp.Name
		if name == spanSite {
			name = rowOther
			sites++
		}
		if name == spanPass {
			name = "pass.other"
		}
		add(name, self[i], 1, 1)
	}
	lt := &layerTable{WallMS: wall, Sites: sites, SchedMergeMS: merge, ShardImbalance: imbalance}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	accounted := 0.0
	for _, n := range names {
		r := rows[n]
		if sites > 0 {
			r.PerSiteMS = r.TotalMS / float64(sites)
		}
		accounted += r.WallMS
		lt.Rows = append(lt.Rows, *r)
	}
	if wall > 0 {
		lt.AccountedPct = 100 * accounted / wall
	}
	return lt
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, in milliseconds.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, sp := range spans {
		covered := int64(0)
		var ivs [][2]int64
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		curS, curE := int64(-1), int64(-1)
		for _, iv := range ivs {
			s, e := max(iv[0], sp.Start), min(iv[1], sp.End)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				curS, curE = s, e
				continue
			}
			curE = max(curE, e)
		}
		covered += curE - curS
		out[i] = float64(sp.End-sp.Start-covered) / 1e6
	}
	return out
}

// spanRecord is one line of <workload>.spans.jsonl.
type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Req     string  `json:"req,omitempty"`
	Shard   int     `json:"shard"`
}

// writeSpans writes every span of the pass as JSON lines. Ids are 1-based
// and global; each shard lane gets a synthetic "shard" root under its
// sched.run span. Shard -1 is the main goroutine.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	next := 1
	emit := func(l *lane, shard, root int) (int, error) {
		base := next
		next += len(l.spans)
		for i, sp := range l.spans {
			rec := spanRecord{ID: base + i, Name: sp.Name, StartUS: float64(sp.Start) / 1e3,
				EndUS: float64(sp.End) / 1e3, Req: sp.Req, Shard: shard, Parent: root}
			if sp.Parent >= 0 {
				rec.Parent = base + int(sp.Parent)
			}
			if err := enc.Encode(rec); err != nil {
				return 0, err
			}
		}
		return base, nil
	}
	mainBase, err := emit(t.main, -1, 0)
	if err == nil {
		for _, run := range t.shards {
			for i, l := range run {
				root := next
				next++
				rec := spanRecord{ID: root, Parent: mainBase + int(l.parent), Name: spanShard,
					StartUS: float64(l.start) / 1e3, EndUS: float64(l.done) / 1e3, Shard: i}
				if err = enc.Encode(rec); err != nil {
					break
				}
				if _, err = emit(l, i, root); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
