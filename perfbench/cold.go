package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opaquebench/internal/adapt"
	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/runner"
	"opaquebench/internal/store"
	"opaquebench/internal/suite"
)

// coldBench is a closed loop of cold suite runs: every job runs the same
// generated spec against a fresh, empty store-backed cache, so every
// campaign misses and executes.
type coldBench struct {
	cfg  *config
	spec suiteSpec
	data []byte
	// ref holds the set-up job's output digests, which every timed job
	// must reproduce; refStore is its store log size.
	ref      digestSet
	refStore int64
}

func setupCold(ctx context.Context, cfg *config, spec suiteSpec, rep int) (*coldBench, error) {
	b := &coldBench{cfg: cfg, spec: spec, data: spec.bytes()}
	// The set-up job warms the process (heap, page cache, the module
	// identity the cache keys hash) and produces the reference outputs.
	o := b.run(ctx, fmt.Sprintf("setup-%d", rep), -1, nil)
	if o.err != nil {
		return nil, o.err
	}
	b.ref, b.refStore = o.digests, o.storeBytes
	return b, nil
}

func (b *coldBench) clients() int         { return 1 }
func (b *coldBench) reference() digestSet { return b.ref }
func (b *coldBench) close() error         { return nil }
func (b *coldBench) job(ctx context.Context, seq int, tr *tracer) jobOutcome {
	o := b.run(ctx, fmt.Sprintf("job-%d", seq), seq, tr)
	if o.err == nil {
		o.err = b.ref.mismatch(o.digests)
	}
	if o.err == nil && tr != nil && relDiff(o.storeBytes, b.refStore) > 0.01 {
		// The traced path re-assembles what suite.Run stores; its log
		// must come out the size of the real one.
		o.err = fmt.Errorf("traced store log %d bytes, untraced %d", o.storeBytes, b.refStore)
	}
	return o
}

func relDiff(a, b int64) float64 {
	if b == 0 {
		return 1
	}
	d := float64(a-b) / float64(b)
	if d < 0 {
		return -d
	}
	return d
}

// run executes one job in a fresh directory, digests its outputs and
// removes the directory.
func (b *coldBench) run(ctx context.Context, name string, seq int, tr *tracer) jobOutcome {
	dir := filepath.Join(b.cfg.work, name)
	defer os.RemoveAll(dir)
	start := time.Now()
	var o jobOutcome
	if o.err = os.MkdirAll(dir, 0o777); o.err != nil {
		return o
	}
	if tr == nil {
		o = b.suiteRun(ctx, dir)
	} else {
		o = b.tracedRun(ctx, dir, seq, tr)
	}
	o.latency = time.Since(start)
	if o.err != nil {
		return o
	}
	o.digests, o.err = fileDigests(dir, b.spec, b.cfg.faults.corrupt(seq))
	return o
}

// suiteRun is the job as a user runs it: one suite.Run.
func (b *coldBench) suiteRun(ctx context.Context, dir string) jobOutcome {
	var o jobOutcome
	st, err := store.Open(filepath.Join(dir, "cache.log"), store.Options{})
	if err != nil {
		o.err = err
		return o
	}
	cache := suite.NewStoreCache(st)
	spec, err := suite.Parse(b.data, "spec.json")
	if err == nil {
		var res *suite.Result
		res, err = suite.Run(ctx, spec, suite.Options{Cache: cache, Workers: b.cfg.workers, BaseDir: dir})
		if err == nil {
			for _, cr := range res.Campaigns {
				o.records += cr.Records
				if cr.Hit || cr.Trials != cr.Records {
					err = errors.Join(err, fmt.Errorf("campaign %s: cache hit on a cold run", cr.Name))
				}
			}
		}
	}
	o.storeBytes = st.LogSize()
	o.err = errors.Join(err, cache.Close())
	return o
}

// tracedRun is the same job decomposed into the layers' entry points, in
// the order and with the concurrency suite.Run uses: parse, plan, then
// every campaign at once under one worker budget — lookup, runner (engine
// and sinks), cache store (entry encode and store put); adaptive campaigns
// run the adapt loop with one lookup, runner run and store per round.
func (b *coldBench) tracedRun(ctx context.Context, dir string, seq int, tr *tracer) (o jobOutcome) {
	job := tr.root(seq, "job")
	defer tr.end(job)
	sp := tr.begin(job, "store.open")
	st, err := store.Open(filepath.Join(dir, "cache.log"), store.Options{})
	tr.end(sp)
	if err != nil {
		o.err = err
		return o
	}
	cache := suite.NewStoreCache(st)
	defer func() {
		o.storeBytes = st.LogSize()
		tr.count(job, "store.log_bytes", float64(o.storeBytes))
		sp := tr.begin(job, "store.close")
		o.err = errors.Join(o.err, cache.Close())
		tr.end(sp)
	}()

	sp = tr.begin(job, "suite.parse")
	spec, err := suite.Parse(b.data, "spec.json")
	tr.end(sp)
	if err != nil {
		o.err = err
		return o
	}
	sp = tr.begin(job, "suite.plan")
	plans, err := suite.BuildPlans(spec)
	tr.end(sp)
	if err != nil {
		o.err = err
		return o
	}
	budget := suite.NewBudget(b.cfg.workers)
	records := make([]int, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := tracedCampaign{ctx: ctx, tr: tr, job: job, dir: dir, suite: spec.Name, p: plans[i], budget: budget, st: st, cache: cache}
			records[i], errs[i] = c.run()
		}(i)
	}
	wg.Wait()
	for _, n := range records {
		o.records += n
	}
	o.err = errors.Join(errs...)
	return o
}

// tracedCampaign is one campaign of a traced cold job.
type tracedCampaign struct {
	ctx    context.Context
	tr     *tracer
	job    int
	dir    string
	suite  string
	p      suite.Plan
	budget *suite.Budget
	st     *store.Store
	cache  *suite.Cache
}

func (c tracedCampaign) workers() int {
	return min(max(c.p.Campaign.Workers, 1), c.budget.Cap())
}

func (c tracedCampaign) run() (int, error) {
	sinks, closers, err := openSinks(c.dir, c.p.Campaign)
	if err != nil {
		return 0, err
	}
	if c.p.Adaptive != nil {
		n, err := c.adaptive(sinks)
		if err = errors.Join(err, closeAll(closers)); err == nil {
			c.tr.count(c.job, "runner.sink_bytes", float64(outputBytes(c.dir, c.p.Campaign)))
		}
		return n, err
	}
	if err := c.lookup(c.job, c.p.Key); err != nil {
		closeAll(closers)
		return 0, err
	}
	if err := c.acquire(c.job); err != nil {
		closeAll(closers)
		return 0, err
	}
	defer c.budget.Release(c.workers())
	res, err := c.execute(c.job, c.p.Design, sinks, closers)
	if err != nil {
		return 0, err
	}
	c.tr.count(c.job, "runner.sink_bytes", float64(outputBytes(c.dir, c.p.Campaign)))
	return len(res.Records), c.store(c.job, c.p.Key, 0, "", res)
}

// lookup is the cache probe suite.Run makes before executing; on a cold
// job it must miss.
func (c tracedCampaign) lookup(parent int, key string) error {
	sp := c.tr.begin(parent, "suite.lookup")
	hit := c.cache.Lookup(key)
	c.tr.end(sp)
	c.tr.count(sp, "suite.lookups", 1)
	if hit {
		c.tr.count(sp, "suite.hits", 1)
		return fmt.Errorf("campaign %s: cache hit on a cold run", c.p.Campaign.Name)
	}
	return nil
}

// acquire takes the campaign's workers from the shared budget; the wait
// for campaigns ahead of it is the suite's scheduling, not its caller's.
func (c tracedCampaign) acquire(parent int) error {
	sp := c.tr.begin(parent, "suite.wait")
	defer c.tr.end(sp)
	return c.budget.Acquire(c.ctx, c.workers())
}

// execute is one runner.Run with timed engines and sinks; closers, when
// given, are closed inside the span, as the suite closes its files.
func (c tracedCampaign) execute(parent int, d *doe.Design, sinks []runner.RecordSink, closers []io.Closer) (*core.Results, error) {
	var tally engineTally
	var sinkNanos int64
	w := c.workers()
	sp := c.tr.begin(parent, "runner.run")
	res, err := runner.Run(c.ctx, d, timedFactory(c.p.Factory, c.p.Campaign.Engine, &tally),
		runner.Config{Workers: w, Sinks: timeSinks(sinks, &sinkNanos)})
	err = errors.Join(err, closeAll(closers))
	c.tr.end(sp)
	eng := "engine." + c.p.Campaign.Engine
	c.tr.busy(sp, eng+".execute", time.Duration(tally.nanos.Load()).Seconds(), w)
	c.tr.busy(sp, "runner.sink", time.Duration(sinkNanos).Seconds(), 1)
	c.tr.count(sp, eng+".trials", float64(tally.trials.Load()))
	c.tr.count(sp, "memsim.accesses", float64(tally.accesses.Load()))
	return res, err
}

// store is Cache.Store split at its layer boundary: the entry's JSON
// encode (the suite's codec) and the store's Put.
func (c tracedCampaign) store(parent int, key string, round int, prev string, res *core.Results) error {
	e, err := entryFor(res.Records)
	if err != nil {
		return err
	}
	e.Suite, e.Campaign, e.Engine = c.suite, c.p.Campaign.Name, c.p.Campaign.Engine
	e.Round, e.Parent, e.Seed, e.Env = round, prev, c.p.Campaign.Seed, res.Env
	sp := c.tr.begin(parent, "suite.store")
	defer c.tr.end(sp)
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	put := c.tr.begin(sp, "store.put")
	err = c.st.Put(key, data, entryMeta(e))
	c.tr.end(put)
	return err
}

// adaptive runs the adapt loop the way the suite does: each round is
// looked up, executed through the runner into one RoundSink over the
// campaign's files, and stored with its parent round's key.
func (c tracedCampaign) adaptive(sinks []runner.RecordSink) (int, error) {
	sp := c.tr.begin(c.job, "adapt.run")
	defer c.tr.end(sp)
	rs := runner.NewRoundSink(sinks...)
	acquired, prev, records := false, "", 0
	defer func() {
		if acquired {
			c.budget.Release(c.workers())
		}
	}()
	exec := func(round int, d *doe.Design) ([]core.RawRecord, error) {
		if round > rs.Round() {
			rs.NextRound()
		}
		key, err := roundKey(c.p.Campaign, d)
		if err != nil {
			return nil, err
		}
		if round == 1 && key != c.p.Key {
			return nil, fmt.Errorf("campaign %s: round key %.12s differs from the plan's %.12s", c.p.Campaign.Name, key, c.p.Key)
		}
		if err := c.lookup(sp, key); err != nil {
			return nil, err
		}
		if !acquired {
			if err := c.acquire(sp); err != nil {
				return nil, err
			}
			acquired = true
		}
		res, err := c.execute(sp, d, []runner.RecordSink{rs}, nil)
		if err != nil {
			return nil, err
		}
		if err := c.store(sp, key, round, prev, res); err != nil {
			return nil, err
		}
		prev = key
		records += len(res.Records)
		return res.Records, nil
	}
	out, err := adapt.Run(*c.p.Adaptive, c.p.Refiner, c.p.Design, exec)
	if err != nil {
		return records, err
	}
	c.tr.count(sp, "adapt.rounds", float64(len(out.Rounds)))
	c.tr.count(sp, "adapt.trials", float64(out.TotalTrials))
	return records, nil
}

func outputBytes(dir string, c suite.Campaign) int64 {
	var n int64
	for _, p := range []string{c.Out, c.JSONL} {
		if fi, err := os.Stat(filepath.Join(dir, p)); err == nil {
			n += fi.Size()
		}
	}
	return n
}
