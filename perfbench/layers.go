package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"opaquebench/internal/core"
	"opaquebench/internal/doe"
	"opaquebench/internal/engine"
	"opaquebench/internal/membench"
	"opaquebench/internal/runner"
	"opaquebench/internal/store"
	"opaquebench/internal/suite"
)

// The traced path calls the layers' public entry points one by one, in the
// order a cold suite.Run calls them, and times each call. These helpers
// wrap what the layers hand each other: engine factories and record sinks.

// engineTally accumulates one runner.Run's engine time, summed over its
// workers, plus the trial count and, for membench, the modelled memsim
// accesses.
type engineTally struct {
	nanos, trials, accesses atomic.Int64
}

type timedEngine struct {
	core.Engine
	tally    *engineTally
	membench bool
}

func (e timedEngine) Execute(t doe.Trial) (core.RawRecord, error) {
	start := time.Now()
	rec, err := e.Engine.Execute(t)
	e.tally.nanos.Add(int64(time.Since(start)))
	e.tally.trials.Add(1)
	if e.membench {
		// memsim's access count for the trial: the kernel's modelled
		// accesses times the buffers it streams.
		kp, kerr := membench.ParseParams(t.Point)
		kind, derr := membench.ParseKind(t.Point)
		if kerr == nil && derr == nil {
			e.tally.accesses.Add(int64(kp.Accesses()) * int64(kind.Buffers()))
		}
	}
	return rec, err
}

func timedFactory(f core.EngineFactory, engineName string, tally *engineTally) core.EngineFactory {
	return core.EngineFactoryFunc(func() (core.Engine, error) {
		e, err := f.NewEngine()
		if err != nil {
			return nil, err
		}
		return timedEngine{Engine: e, tally: tally, membench: engineName == "membench"}, nil
	})
}

// timedSink times every Write and Flush of the sink it wraps. The runner
// and Entry.Replay drive sinks from one goroutine, so a plain counter
// suffices.
type timedSink struct {
	runner.RecordSink
	nanos *int64
}

func (s timedSink) Write(rec core.RawRecord) error {
	start := time.Now()
	err := s.RecordSink.Write(rec)
	*s.nanos += int64(time.Since(start))
	return err
}

func (s timedSink) Flush() error {
	start := time.Now()
	err := s.RecordSink.Flush()
	*s.nanos += int64(time.Since(start))
	return err
}

func timeSinks(sinks []runner.RecordSink, nanos *int64) []runner.RecordSink {
	out := make([]runner.RecordSink, len(sinks))
	for i, s := range sinks {
		out[i] = timedSink{RecordSink: s, nanos: nanos}
	}
	return out
}

// openSinks opens a campaign's CSV and JSONL files under dir, as the suite
// does for its own runs.
func openSinks(dir string, c suite.Campaign) ([]runner.RecordSink, []io.Closer, error) {
	out, jsonl := filepath.Join(dir, c.Out), filepath.Join(dir, c.JSONL)
	if err := os.MkdirAll(filepath.Dir(out), 0o777); err != nil {
		return nil, nil, err
	}
	return runner.FileSinks(io.Discard, out, jsonl)
}

func closeAll(closers []io.Closer) error {
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// entryFor builds the cache entry a cold run stores for recs. Entry's
// record slice has an unexported element type with exported fields, so the
// benchmark fills it through reflection; that glue is the benchmark's own
// time. A renamed or removed field is an error, and the traced job's store
// size check catches any other drift from the suite's own entries.
func entryFor(recs []core.RawRecord) (*suite.Entry, error) {
	var e suite.Entry
	field := reflect.ValueOf(&e).Elem().FieldByName("Records")
	if !field.IsValid() || field.Kind() != reflect.Slice {
		return nil, fmt.Errorf("suite.Entry has no Records slice")
	}
	elem := field.Type().Elem()
	idx := map[string]int{}
	for _, name := range []string{"Seq", "Rep", "Value", "Seconds", "At", "Point", "Extra"} {
		f, ok := elem.FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("suite entry records have no field %s", name)
		}
		idx[name] = f.Index[0]
	}
	out := reflect.MakeSlice(field.Type(), len(recs), len(recs))
	for i, r := range recs {
		el := out.Index(i)
		el.Field(idx["Seq"]).SetInt(int64(r.Seq))
		el.Field(idx["Rep"]).SetInt(int64(r.Rep))
		el.Field(idx["Value"]).SetFloat(r.Value)
		el.Field(idx["Seconds"]).SetFloat(r.Seconds)
		el.Field(idx["At"]).SetFloat(r.At)
		if len(r.Point) > 0 {
			point := make(map[string]string, len(r.Point))
			for k, v := range r.Point {
				point[k] = string(v)
			}
			el.Field(idx["Point"]).Set(reflect.ValueOf(point))
		}
		if r.Extra != nil {
			el.Field(idx["Extra"]).Set(reflect.ValueOf(r.Extra))
		}
	}
	field.Set(out)
	return &e, nil
}

// entryMeta is the store metadata the suite derives from a cache entry.
func entryMeta(e *suite.Entry) store.Meta {
	m := store.Meta{Suite: e.Suite, Campaign: e.Campaign, Engine: e.Engine, Round: e.Round, Seed: e.Seed, Parent: e.Parent}
	if e.Env != nil {
		m.RanAt = e.Env.CapturedAt
		m.Env = make(map[string]string, len(e.Env.Fields))
		for k, v := range e.Env.Fields {
			m.Env[k] = v
		}
	}
	return m
}

// roundKey is the suite's content address for one round of a campaign:
// sha256 over length-prefixed engine name, canonical config, design CSV,
// seed and module version. The traced path checks it against the plan's
// own key for round 1, so a drift from the suite's definition fails loudly.
func roundKey(c suite.Campaign, d *doe.Design) (string, error) {
	def, _ := engine.Lookup(c.Engine) // BuildPlans vouched for the name
	decoded, err := def.Decode(c.Config)
	if err != nil {
		return "", err
	}
	canon, err := engine.Canonical(decoded)
	if err != nil {
		return "", err
	}
	var csv bytes.Buffer
	if err := d.WriteCSV(&csv); err != nil {
		return "", err
	}
	h := sha256.New()
	for _, part := range [][]byte{[]byte(c.Engine), canon, csv.Bytes(),
		[]byte(strconv.FormatUint(c.Seed, 10)), []byte(suite.ModuleVersion())} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
