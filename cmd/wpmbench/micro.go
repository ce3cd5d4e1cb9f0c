package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gullible/internal/analysis"
	"gullible/internal/browser"
	"gullible/internal/bundle"
	"gullible/internal/experiments"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/openwpm"
	"gullible/internal/wal"
	"gullible/internal/websim"
)

// The microbenchmarks replay a small recorded scan of the seeded web through
// the layers' public functions, one layer at a time: what the crawl spends
// per unit of work inside a layer that the traced run can only see as part
// of browser.other. Each reports the median over repeated rounds.

// microCorpus is the input every microbenchmark draws from.
type microCorpus struct {
	world   *websim.World
	sites   []string
	last    int
	storage *openwpm.Storage
	bundle  *bundle.Bundle
	scripts []openwpm.ScriptFile // unique content, in digest order
	kb      float64              // total script size
}

func newMicroCorpus(spec passSpec) (*microCorpus, error) {
	c := &microCorpus{world: websim.New(websim.Options{Seed: scanWorld})}
	c.sites, c.last = topSites(spec.Seed, spec.Size.MicroSites), spec.Size.MicroSites
	res, err := experiments.RunScanObserved(c.world, c.last, experiments.ScanOptions{
		Sites: c.sites, MaxSubpages: spec.Size.Subpages, Workers: 1, RecordBundle: true,
	}, nil)
	if err != nil {
		return nil, err
	}
	c.storage, c.bundle = res.Storage, res.Bundle
	for _, f := range res.Storage.ScriptFiles {
		c.scripts = append(c.scripts, f)
		c.kb += float64(len(f.Content)) / 1024
	}
	sort.Slice(c.scripts, func(i, j int) bool { return c.scripts[i].SHA256 < c.scripts[j].SHA256 })
	if len(c.scripts) == 0 {
		return nil, fmt.Errorf("micro corpus stored no scripts")
	}
	return c, nil
}

// records is the number of rows the corpus storage holds.
func (c *microCorpus) records() int {
	st := c.storage
	return len(st.Visits) + len(st.Crashes) + len(st.Requests) + len(st.Cookies) +
		len(st.JSCalls) + len(st.ScriptFiles) + len(st.Tampers)
}

// bench repeats round until the budget is spent (at least three rounds) and
// returns the median of the per-round values round reports.
func bench(budget time.Duration, round func() (float64, error)) (float64, error) {
	var vals []float64
	start := time.Now()
	for len(vals) < 3 || time.Since(start) < budget {
		v, err := round()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// elapsedUS times f in microseconds.
func elapsedUS(f func()) float64 {
	t := time.Now()
	f()
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// freshRealm builds a top-level realm the way the browser does for a page.
func freshRealm(url string) *jsdom.DOM {
	d := jsdom.Build(jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0), &jsdom.NopHost{}, url)
	d.It.StepLimit = 2_000_000
	return d
}

// runMicro runs every microbenchmark.
func runMicro(spec passSpec, execNS int64) (*passResult, error) {
	c, err := newMicroCorpus(spec)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(spec.Size.MicroBudgetMS) * time.Millisecond
	r := &passResult{Micro: map[string]float64{}}
	r.ready(spec, execNS)
	m := startMeter()
	type micro struct {
		name  string
		round func() (float64, error)
	}
	micros := []micro{
		{"minjs.parse_us_per_kb", func() (float64, error) {
			us := 0.0
			for _, f := range c.scripts {
				us += elapsedUS(func() { _, _ = minjs.Parse(f.Content, f.URL) }) // unparsable scripts cost their parse too
			}
			return us / c.kb, nil
		}},
		{"minjs.compile_us_per_kb", func() (float64, error) {
			us, kb := 0.0, 0.0
			for _, f := range c.scripts {
				prog, err := minjs.Parse(f.Content, f.URL)
				if err != nil {
					continue
				}
				us += elapsedUS(func() { minjs.Compile(prog) })
				kb += float64(len(f.Content)) / 1024
			}
			return us / kb, nil
		}},
		{"minjs.exec_us_per_script", func() (float64, error) {
			us, n := 0.0, 0
			for _, f := range c.scripts {
				prog, err := minjs.Parse(f.Content, f.URL)
				if err != nil {
					continue
				}
				minjs.Compile(prog)
				d := freshRealm(f.URL)
				us += elapsedUS(func() { _, _ = d.It.RunProgram(prog) }) // page errors are part of the page
				n++
			}
			return us / float64(n), nil
		}},
		{"jsdom.build_us", func() (float64, error) {
			us := 0.0
			for i := 0; i < 20; i++ {
				us += elapsedUS(func() { freshRealm(c.sites[i%len(c.sites)]) })
			}
			return us / 20, nil
		}},
		{"openwpm.instrument_inject_us", func() (float64, error) {
			b := browser.New(browser.Options{Config: jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0),
				Transport: c.world, ClientID: "scan-client"})
			ji := &openwpm.JSInstrument{HoneyProps: openwpm.HoneyNames("scan-client", 4)}
			st := openwpm.NewStorage()
			us := 0.0
			for i := 0; i < 20; i++ {
				d := freshRealm(c.sites[i%len(c.sites)])
				us += elapsedUS(func() { ji.OnWindow(b, st, d, true) })
				if err := ji.TopInstallError(); err != nil {
					return 0, err
				}
			}
			return us / 20, nil
		}},
		{"analysis.tamper_us_per_kb", func() (float64, error) {
			us := 0.0
			for _, f := range c.scripts {
				us += elapsedUS(func() { analysis.Analyze(f.Content) })
			}
			return us / c.kb, nil
		}},
		{"wal.append_us_per_record", func() (float64, error) {
			us, _, err := c.walRound()
			return us, err
		}},
		{"wal.checkpoint_us", func() (float64, error) {
			_, us, err := c.walRound()
			return us, err
		}},
		{"bundle.seal_us_per_kb", c.bundleRound(func(b *bundle.Bundle, _ []byte) error {
			_, err := b.ComputeDigest()
			return err
		})},
		{"bundle.marshal_us_per_kb", c.bundleRound(func(b *bundle.Bundle, _ []byte) error {
			_, err := b.Marshal()
			return err
		})},
		{"bundle.unmarshal_us_per_kb", c.bundleRound(func(_ *bundle.Bundle, data []byte) error {
			_, err := bundle.Unmarshal(data)
			return err
		})},
		{"bundle.verify_us_per_kb", c.bundleRound(func(b *bundle.Bundle, _ []byte) error {
			return b.Verify()
		})},
		{"openwpm.digest_us_per_record", func() (float64, error) {
			return elapsedUS(func() { c.storage.Digest() }) / float64(c.records()), nil
		}},
		{"openwpm.merge_us_per_record", func() (float64, error) {
			dst := openwpm.NewStorage()
			return elapsedUS(func() { dst.Merge(c.storage) }) / float64(c.records()), nil
		}},
		{"experiments.analyze_us_per_site", func() (float64, error) {
			tm := openwpm.NewTaskManager(scanConfig(c.world, spec.Size.Subpages))
			tm.Storage = c.storage
			return elapsedUS(func() { experiments.Analyze(c.world, tm, c.last) }) / float64(len(c.sites)), nil
		}},
	}
	for _, mb := range micros {
		v, err := bench(budget, mb.round)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mb.name, err)
		}
		r.Micro[mb.name] = v
	}
	m.stop(r)
	return r, nil
}

// bundleRound times op over the corpus bundle, per KB of its encoding.
func (c *microCorpus) bundleRound(op func(*bundle.Bundle, []byte) error) func() (float64, error) {
	return func() (float64, error) {
		data, err := c.bundle.Marshal()
		if err != nil {
			return 0, err
		}
		t := time.Now()
		err = op(c.bundle, data)
		return float64(time.Since(t).Nanoseconds()) / 1e3 / (float64(len(data)) / 1024), err
	}
}

// walRound appends the corpus storage's rows to a fresh write-ahead log,
// checkpointing once per site as a crawl does (fsync at checkpoints), and
// returns the mean append and checkpoint times in microseconds.
func (c *microCorpus) walRound() (appendUS, checkpointUS float64, err error) {
	dir, err := os.MkdirTemp("", "wpmbench-micro-wal-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	be, err := wal.Open(wal.DirFS{Dir: dir}, wal.ShardMeta{Workers: 1, Sites: c.sites}, wal.Options{Sync: wal.SyncCheckpoint})
	if err != nil {
		return 0, 0, err
	}
	st := c.storage
	var appends []func() error
	for _, v := range st.Visits {
		appends = append(appends, func() error { return be.AppendVisit(v) })
	}
	for _, q := range st.Requests {
		appends = append(appends, func() error { return be.AppendRequest(q) })
	}
	for _, k := range st.Cookies {
		appends = append(appends, func() error { return be.AppendCookie(k) })
	}
	for _, j := range st.JSCalls {
		appends = append(appends, func() error { return be.AppendJSCall(j) })
	}
	for _, f := range c.scripts {
		appends = append(appends, func() error { return be.AppendScriptFile(f.URL, f.SHA256, f.Content, f.CType) })
	}
	for _, t := range st.Tampers {
		appends = append(appends, func() error { return be.AppendTamper(t) })
	}
	per := (len(appends) + len(c.sites) - 1) / len(c.sites)
	var aUS, cUS float64
	for i, site := range c.sites {
		for _, a := range appends[min(i*per, len(appends)):min((i+1)*per, len(appends))] {
			t := time.Now()
			if err = a(); err != nil {
				break
			}
			aUS += float64(time.Since(t).Nanoseconds()) / 1e3
		}
		if err == nil {
			cUS += elapsedUS(func() { err = be.AppendCheckpoint(openwpm.SiteOutcome{Site: site}, nil, nil) })
		}
		if err != nil {
			break
		}
	}
	if cerr := be.Close(); err == nil {
		err = cerr
	}
	return aUS / float64(len(appends)), cUS / float64(len(c.sites)), err
}
