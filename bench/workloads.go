package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	shasta "repro"
	"repro/internal/apps"
	"repro/internal/obsv"
)

// sizing scales the benchmark: the real sizes, or a tiny configuration the
// smoke test runs in seconds.
type sizing struct {
	procs16, procs8 int // processor counts of the 16- and 8-processor workloads
	procs64         int
	lu, ocean       string // SPLASH-2 kernels of the LU and Ocean workloads
	synthPhases     int
	synthOps        int           // operations per thread and phase
	setups          int           // set-up repetitions; setup_s is their median
	fixedReps       int           // when > 0, overrides every workload's rep count
	probeDur        time.Duration // how long one probe loop must last
	fixtureOps      int           // operations of a fixed-size cluster fixture
}

var fullSize = sizing{
	procs16: 16, procs8: 8, procs64: 64, lu: "LU", ocean: "Ocean",
	synthPhases: 24, synthOps: 800,
	setups: 3, probeDur: 30 * time.Millisecond, fixtureOps: 2048,
}

// tinySize keeps every code path but swaps the long kernels for Water-Nsq on
// 4 processors, which runs in a fraction of a second.
var tinySize = sizing{
	procs16: 4, procs8: 4, procs64: 8, lu: "Water-Nsq", ocean: "Water-Nsq",
	synthPhases: 3, synthOps: 200,
	setups: 1, fixedReps: 1, probeDur: time.Millisecond, fixtureOps: 16,
}

// flat is the paper's cluster at a processor count: 4-processor SMP nodes
// on a flat network, SMP-Shasta with sharing groups of 4, and the scale
// experiment's 4 MiB heap (every sharing group holds its own heap image).
func (sz sizing) flat(procs int) shasta.Config {
	return shasta.Config{Procs: procs, Clustering: 4, HeapBytes: 4 << 20}
}

// hier64 is the 64-processor cell of ROADMAP item 5: 4 nodes per uplink
// group and the hierarchical FastSync barrier, on the serial engine.
func (sz sizing) hier64() shasta.Config {
	cfg := sz.flat(sz.procs64)
	cfg.NodesPerGroup, cfg.FastSync = 4, true
	return cfg
}

// workloadProcs is the GOMAXPROCS of every workload. The serial engine runs
// one goroutine at a time, so a second P only adds cross-thread wake-ups; and
// on a 2-core host the parallel engine too is faster on one P (Water-Nsq p64:
// 1.48 s against 1.69 s on two) and no longer at the mercy of whoever else
// wants the second core. sim.parallel_gain_x is where two Ps are measured.
const workloadProcs = 1

// workload is one named set of inputs. The names are the contract.
type workload struct {
	name string
	why  string
	// reps is the number of timed reps of a full run; -seconds overrides it.
	reps int
	// prepare builds the inputs from seed and returns the rep function:
	// one whole user-visible operation, spanned when rec is non-nil.
	prepare func(seed uint64) (repFunc, error)
}

type repFunc func(rec *recorder, parent int) (repResult, error)

// repResult is what one rep produced and what it must be checked against.
type repResult struct {
	cycles   int64   // virtual time of the measured phase
	checksum float64 // the program's result
	// reference is the checksum the sequential Procs:1, Hardware:true run
	// gives (for trace-analyze: the event count the generator emitted).
	reference float64
	metrics   *shasta.Metrics // set by observed and spanned reps; nil when the rep ran no cluster
	events    int64           // trace events written or analysed
	bytes     int64           // trace bytes written or analysed
	analysis  *analysis       // trace-analyze only
	phases    map[string]time.Duration
}

// catalogue returns the six workloads at the given size.
func catalogue(sz sizing) []workload {
	flat16, lu8, water64 := sz.flat(sz.procs16), sz.flat(sz.procs8), sz.hier64()
	water64.Parallel = true
	ws := []workload{
		{name: "lu16-serial", reps: 7,
			why:     "miss- and message-heavy: protocol handlers, memchan.Send, stats block shards and blocked sim receives all work",
			prepare: appWorkload(sz.lu, flat16, false)},
		{name: "ocean16-serial", reps: 11,
			why:     "hit- and batch-dominated: host time is sim yield/resume under Batch.Compute; bypasses protocol and network changes",
			prepare: appWorkload(sz.ocean, flat16, false)},
		{name: "synth16-mix", reps: 7,
			why: "seeded scalar load/store checks, table reads, lock-protected records and barrier exchanges; the only inputs that move with the seed",
			prepare: func(seed uint64) (repFunc, error) {
				prog := generateSynth(seed, sz.synthPhases, sz.synthOps)
				return clusterRep(func() apps.Workload { return &synthWorkload{prog: prog} }, flat16, false)
			}},
		{name: "water64-fastsync-par", reps: 9,
			why:     "the only run through the parallel engine's windows, the hierarchical uplink and the FastSync barrier and lock hand-off",
			prepare: appWorkload("Water-Nsq", water64, false)},
		{name: "lu8-traced", reps: 5,
			why:     "the trace-emission path at its densest: Proc.trace formatting, sim.Emit merge and JSONL encoding into a discarding writer",
			prepare: appWorkload(sz.lu, lu8, true)},
		{name: "trace-analyze", reps: 9,
			why:     "the read side of the trace: ReadTrace and the six analysers do all the work, the simulator none",
			prepare: func(uint64) (repFunc, error) { return analyzeWorkload(flat16) }},
	}
	if sz.fixedReps > 0 {
		for i := range ws {
			ws[i].reps = sz.fixedReps
		}
	}
	return ws
}

// appWorkload prepares a SPLASH-2 kernel. The kernels are the paper's fixed
// inputs and ignore the seed.
func appWorkload(app string, cfg shasta.Config, traced bool) func(uint64) (repFunc, error) {
	return func(uint64) (repFunc, error) {
		f, ok := apps.Registry[app]
		if !ok {
			return nil, fmt.Errorf("unknown application %q", app)
		}
		return clusterRep(func() apps.Workload { return f(1) }, cfg, traced)
	}
}

// countingWriter discards a trace and counts its bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// jsonlTracer streams events through a JSONL sink and counts them.
type jsonlTracer struct {
	sink *obsv.JSONLSink
	n    int64
}

func newJSONLTracer(w io.Writer) *jsonlTracer {
	return &jsonlTracer{sink: obsv.NewJSONLWriterSink(w)}
}

func (t *jsonlTracer) Event(e shasta.TraceEvent) {
	t.n++
	t.sink.Event(e)
}

// clusterRep runs the sequential reference once and returns the rep: a
// fresh workload on a fresh cluster, checksummed. A traced rep streams its
// events through a JSONL sink into a byte-counting discard writer.
func clusterRep(mk func() apps.Workload, cfg shasta.Config, traced bool) (repFunc, error) {
	start := time.Now()
	ref, err := execute(nil, 0, mk(), shasta.Config{Procs: 1, Hardware: true}, nil)
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	refWall := time.Since(start)
	return func(rec *recorder, parent int) (r repResult, err error) {
		if traced {
			var out countingWriter
			tr := newJSONLTracer(&out)
			if r, err = execute(rec, parent, mk(), cfg, tr); err == nil {
				err = tr.sink.Close()
			}
			r.events, r.bytes = tr.n, out.n
		} else {
			r, err = execute(rec, parent, mk(), cfg, nil)
		}
		r.reference = ref.checksum
		r.phases["apps.hardware"] = refWall
		return r, err
	}, nil
}

// execute is one whole user-visible operation, the steps of apps.Execute:
// build the cluster, set the workload up, run it, take its checksum — and,
// when the run is observed, the metrics snapshot. With a recorder each step
// is a span.
func execute(rec *recorder, parent int, w apps.Workload, cfg shasta.Config, tr shasta.Tracer) (repResult, error) {
	r := repResult{phases: map[string]time.Duration{}}
	step := func(name string, f func()) {
		id := rec.start(parent, name)
		t0 := time.Now()
		f()
		r.phases[name] = time.Since(t0)
		rec.end(id)
	}
	var c *shasta.Cluster
	var err error
	step("apps.new_cluster", func() { c, err = shasta.NewCluster(cfg) })
	if err != nil {
		return r, err
	}
	if tr != nil {
		c.SetTracer(tr)
	}
	step("apps.setup", func() { w.Setup(c, false) })
	step("protocol.run", func() {
		r.cycles = c.Run(w.Body).ParallelCycles
	})
	step("apps.checksum", func() { r.checksum = w.Checksum() })
	if tr != nil || rec != nil {
		step("obsv.snap", func() {
			r.metrics = c.Metrics()
			err = r.metrics.WriteJSON(io.Discard)
		})
	}
	return r, err
}

// generateTrace runs Water-Nsq (it has locks and barriers) with a JSONL
// sink and returns the trace bytes and the number of events emitted.
func generateTrace(cfg shasta.Config) ([]byte, int64, error) {
	var buf bytes.Buffer
	tr := newJSONLTracer(&buf)
	if _, err := execute(nil, 0, apps.NewWaterNsq(1), cfg, tr); err != nil {
		return nil, 0, err
	}
	if err := tr.sink.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), tr.n, nil
}

// analyzeWorkload generates the trace once; a rep reads and analyses it.
func analyzeWorkload(cfg shasta.Config) (repFunc, error) {
	data, emitted, err := generateTrace(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating the trace: %w", err)
	}
	return func(rec *recorder, parent int) (repResult, error) {
		a, err := analyzeTrace(rec, parent, data)
		return repResult{
			cycles: a.cycles, checksum: float64(a.events), reference: float64(emitted),
			events: a.events, bytes: int64(len(data)), analysis: a,
			phases: map[string]time.Duration{},
		}, err
	}, nil
}

// analysis is one pass of the reader and the six analysers over a trace,
// with each call's host time.
type analysis struct {
	events int64
	cycles int64 // virtual time the trace spans
	// ns maps the per-layer metric name of each call to its duration.
	ns              map[string]time.Duration
	readTraceAllocs uint64
}

// analyzeTrace runs ReadTrace and the analysers over data. On the clean
// trace the benchmark generates, any violation, race, analyser error or
// dropped span is a failure.
func analyzeTrace(rec *recorder, parent int, data []byte) (*analysis, error) {
	a := &analysis{ns: map[string]time.Duration{}}
	var firstErr error
	call := func(name string, f func() error) {
		id := rec.start(parent, name)
		t0 := time.Now()
		err := f()
		a.ns[name] = time.Since(t0)
		rec.end(id)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
	}
	var events []shasta.TraceEvent
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	call("obsv.read_trace_ns", func() (err error) {
		_, events, err = obsv.ReadTrace(bytes.NewReader(data))
		return err
	})
	runtime.ReadMemStats(&ms1)
	a.readTraceAllocs = ms1.Mallocs - ms0.Mallocs
	if firstErr != nil || len(events) == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("trace holds no events")
		}
		return a, firstErr
	}
	a.events = int64(len(events))
	call("obsv.summarize_ns", func() error {
		s := obsv.Summarize(events)
		a.cycles = s.LastTime - s.FirstTime
		if int64(s.Events) != a.events {
			return fmt.Errorf("summary counts %d events of %d", s.Events, a.events)
		}
		return nil
	})
	call("obsv.build_causal_ns", func() error {
		obsv.BuildCausal(events)
		return nil
	})
	call("obsv.check_trace_ns", func() error {
		if v := obsv.CheckTrace(events).Violations(); len(v) > 0 {
			return fmt.Errorf("%d invariant violations, first: %v", len(v), v[0])
		}
		return nil
	})
	call("obsv.build_spans_ns", func() error {
		if n := obsv.BuildSpans(events).DroppedTotal(); n != 0 {
			return fmt.Errorf("%d spans dropped", n)
		}
		return nil
	})
	call("obsv.build_sync_ns", func() error {
		if n := obsv.BuildSync(events).DroppedTotal(); n != 0 {
			return fmt.Errorf("%d sync records dropped", n)
		}
		return nil
	})
	call("obsv.detect_races_ns", func() error {
		rep, err := obsv.DetectRaces(events)
		if err != nil {
			return err
		}
		if len(rep.Races) > 0 {
			return fmt.Errorf("%d races on a clean trace", len(rep.Races))
		}
		return nil
	})
	return a, firstErr
}
