package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"opaquebench/internal/serve"
	"opaquebench/internal/store"
	"opaquebench/internal/suite"
)

// warmBench is an in-process campaign service on a loopback listener with
// a store-backed cache that set-up fills with one cold run of light-cold's
// campaign pool. Its jobs submit seeded subsets of the pool under fresh
// suite names, poll until done and fetch every result: no trial executes,
// every campaign replays from the cache.
type warmBench struct {
	cfg     *config
	pool    suiteSpec
	dataDir string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	// ref holds the set-up run's fetched digests; keys lists each
	// campaign's cache keys (one per adaptive round) and payload its
	// stored entry bytes.
	ref     digestSet
	keys    map[string][]string
	payload map[string]int64
	// ro is a read-only view of the service's store for the traced run's
	// layer probes; the store takes no writes once set-up is done.
	ro *suite.Cache
}

func setupWarm(ctx context.Context, cfg *config, pool suiteSpec, rep int) (*warmBench, error) {
	dataDir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d", rep))
	w := &warmBench{
		cfg: cfg, pool: pool, dataDir: dataDir,
		srv: serve.New(serve.Config{Workers: cfg.workers, Slots: cfg.workers, DataDir: dataDir,
			CacheStore: filepath.Join(dataDir, "cache.log")}),
		served:  make(chan error, 1),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.workers}},
		keys:    map[string][]string{},
		payload: map[string]int64{},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()

	// The pre-fill: one cold run of the whole pool, whose fetched bytes
	// are the reference every warm fetch must equal.
	o := w.submitAndFetch(ctx, pool, false, -1, nil)
	if o.err != nil {
		return nil, errors.Join(fmt.Errorf("pre-fill: %w", o.err), w.close())
	}
	w.ref = o.digests
	if w.ro, err = suite.ReadCacheStore(filepath.Join(dataDir, "cache.log")); err != nil {
		return nil, errors.Join(err, w.close())
	}
	st := w.ro.Backing()
	for _, key := range st.Keys() {
		m, _ := st.Stat(key)
		w.keys[m.Campaign] = append(w.keys[m.Campaign], key)
		w.payload[m.Campaign] += m.Size
	}
	return w, nil
}

func (w *warmBench) clients() int         { return w.cfg.workers }
func (w *warmBench) reference() digestSet { return w.ref }

func (w *warmBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, w.srv.Drain(ctx), w.srv.Close())
	if w.ro != nil {
		err = errors.Join(err, w.ro.Close())
	}
	w.client.CloseIdleConnections()
	return err
}

func (w *warmBench) job(ctx context.Context, seq int, tr *tracer) jobOutcome {
	spec := warmSpec(w.pool, w.cfg.seed, seq)
	if w.cfg.faults.miss(seq) {
		// A campaign the cache has never seen: its key misses.
		spec.Campaigns[0].Seed++
	}
	o := w.submitAndFetch(ctx, spec, true, seq, tr)
	if o.err == nil {
		o.err = w.ref.mismatch(o.digests)
	}
	for _, c := range spec.Campaigns {
		o.storeBytes += w.payload[c.Name]
	}
	if tr != nil && o.err == nil {
		o.err = w.probe(spec, seq, tr)
	}
	return o
}

// submitAndFetch is one served job: POST the spec, poll its status until
// it is done, check every campaign's cache verdict, fetch every campaign's
// CSV and JSONL, then remove the job's output directory.
func (w *warmBench) submitAndFetch(ctx context.Context, spec suiteSpec, warm bool, seq int, tr *tracer) (o jobOutcome) {
	start := time.Now()
	job := tr.root(seq, "job")
	defer func() {
		tr.end(job)
		o.latency = time.Since(start)
	}()

	sp := tr.begin(job, "serve.submit")
	var sub serve.SubmitResponse
	code, err := w.call(ctx, http.MethodPost, "/v1/suites", spec.bytes(), &sub)
	tr.end(sp)
	if err == nil && (code != http.StatusAccepted || sub.Duplicate) {
		err = fmt.Errorf("submit: status %d, duplicate %v", code, sub.Duplicate)
	}
	if err != nil {
		o.err = err
		return o
	}
	defer os.RemoveAll(filepath.Join(w.dataDir, "jobs", sub.Job))

	sp = tr.begin(job, "serve.wait")
	var st serve.JobStatus
	for {
		tr.count(sp, "serve.polls", 1)
		st = serve.JobStatus{} // decoding into a used value keeps fields the reply omits
		code, err = w.call(ctx, http.MethodGet, "/v1/jobs/"+sub.Job, nil, &st)
		if err != nil || code != http.StatusOK || st.State != string(serve.JobQueued) && st.State != string(serve.JobRunning) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tr.end(sp)
	if err == nil && (code != http.StatusOK || st.State != string(serve.JobDone)) {
		err = fmt.Errorf("job %s: status %d, state %s %s", sub.Job, code, st.State, st.Error)
	}
	if err != nil {
		o.err = err
		return o
	}
	for _, c := range st.Campaigns {
		o.records += c.Records
		lookups := float64(max(c.Rounds, 1))
		tr.count(job, "suite.lookups", lookups)
		if c.Verdict == "hit" {
			tr.count(job, "suite.hits", lookups)
		}
		if hit := c.Verdict == "hit" && c.Trials == 0; hit != warm {
			o.err = errors.Join(o.err, fmt.Errorf("campaign %s: cache %s with %d trials (warm job: %v)",
				c.Name, c.Verdict, c.Trials, warm))
		}
	}
	if o.err != nil {
		return o
	}

	o.digests = digestSet{}
	for i, c := range spec.Campaigns {
		var d digest
		for _, format := range []string{"csv", "jsonl"} {
			sp := tr.begin(job, "serve.fetch")
			body, code, err := w.fetch(ctx, "/v1/jobs/"+sub.Job+"/results/"+c.Name+"?format="+format)
			tr.end(sp)
			tr.count(sp, "serve.fetch_bytes", float64(len(body)))
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("fetch %s %s: status %d", c.Name, format, code)
			}
			if err != nil {
				o.err = err
				return o
			}
			if format == "csv" {
				if i == 0 && w.cfg.faults.corrupt(seq) {
					flipByte(body)
				}
				d.CSV = sha(body)
			} else {
				d.JSONL = sha(body)
			}
		}
		o.digests[c.Name] = d
	}
	return o
}

// call sends one JSON request and decodes the JSON reply into out.
func (w *warmBench) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

func (w *warmBench) fetch(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// probe replays, on the job's inputs, the layer calls the service made
// inside the job and cannot show from outside: planning the spec, and for
// every cache key of every campaign the store read, the entry load (read
// and decode) and the replay into CSV and JSONL sinks.
func (w *warmBench) probe(spec suiteSpec, seq int, tr *tracer) error {
	root := tr.root(seq, "probe")
	defer tr.end(root)
	sp := tr.begin(root, "suite.plan")
	parsed, err := suite.Parse(spec.bytes(), "spec.json")
	if err == nil {
		_, err = suite.BuildPlans(parsed)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	dir := filepath.Join(w.cfg.work, fmt.Sprintf("probe-%d", seq))
	defer os.RemoveAll(dir)
	st := w.ro.Backing()
	for _, c := range parsed.Campaigns {
		for _, key := range w.keys[c.Name] {
			if err := w.probeKey(st, c, key, dir, root, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *warmBench) probeKey(st *store.Store, c suite.Campaign, key, dir string, root int, tr *tracer) error {
	sp := tr.begin(root, "store.get")
	_, err := st.Get(key)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(root, "suite.load")
	e, err := w.ro.Load(key)
	tr.end(sp)
	if err != nil {
		return err
	}
	sinks, closers, err := openSinks(dir, c)
	if err != nil {
		return err
	}
	var nanos int64
	sp = tr.begin(root, "suite.replay")
	err = errors.Join(e.Replay(timeSinks(sinks, &nanos)...), closeAll(closers))
	tr.end(sp)
	tr.busy(sp, "runner.sink", time.Duration(nanos).Seconds(), 1)
	return err
}
