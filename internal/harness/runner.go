package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/apps"
)

// cell is one simulator run: a workload named as in apps.Registry or
// fixtures, its size, the machine it runs on and whether the Table 2
// granularity hints apply. shasta.Config is comparable, so a cell is a map
// key as it stands: two cells alias only when every setting agrees.
type cell struct {
	app     string
	scale   int
	cfg     shasta.Config
	varGran bool
}

// fixtures are the workloads that exist for one experiment here, beside the
// applications of apps.Registry, so that a cell names its workload by
// string in every case: the migrate experiment's pair (see migFixtures) and
// one Racy workload per injection mode.
var fixtures = func() map[string]apps.Factory {
	m := map[string]apps.Factory{
		"hot3hop": func(s int) apps.Workload { return newHot3hop(s) },
		"LU256":   func(s int) apps.Workload { return apps.NewLUIterated(s, 4, false) },
	}
	for _, mode := range apps.RacyInjectModes {
		m["Racy-"+mode] = func(s int) apps.Workload { return apps.NewRacy(s, mode) }
	}
	return m
}()

// name renders the cell for error messages, snapshot scenarios and -obsv
// file names. Every setting an experiment varies has a tag, so distinct
// cells get distinct files; the engine's worker count has none because it
// changes no result.
func (c cell) name() string {
	cfg := c.cfg
	name := fmt.Sprintf("%s_s%d_p%d_c%d", c.app, c.scale, cfg.Procs, cfg.Clustering)
	tag := func(on bool, format string, v ...any) {
		if on {
			name += fmt.Sprintf(format, v...)
		}
	}
	tag(cfg.Hardware, "_hw")
	tag(cfg.ForceSMPChecks, "_smpchk")
	tag(c.varGran, "_vg")
	tag(cfg.Migrate, "_mig")
	tag(cfg.MigrateInterval != 0, "_mi%d", cfg.MigrateInterval)
	tag(cfg.ProcsPerNode != 0, "_n%d", cfg.ProcsPerNode)
	tag(cfg.NodesPerGroup != 0, "_g%d", cfg.NodesPerGroup)
	tag(cfg.LineSize != 0, "_l%d", cfg.LineSize)
	tag(cfg.ShareDirectory, "_sharedir")
	tag(cfg.FastSync, "_fastsync")
	tag(cfg.BroadcastDowngrades, "_bcast")
	return name
}

// want is what an experiment asks of a cell's run beyond its cycles,
// statistics and checksum.
type want struct {
	// name is the experiment's own name for the run
	// ("migrate/hot3hop/off"): its scenario in a snapshot and, with '_'
	// for '/', its METRICS file under -obsv. Empty means the cell's name,
	// and under -obsv a TRACE file streamed beside the METRICS one.
	name string
	// metrics asks for the metrics snapshot (result.Metrics).
	metrics bool
	// tracer receives the run's trace; such a run always executes.
	tracer shasta.Tracer
	// timed makes wall-clock time the measurement: the run is never
	// cached, streams no trace, and is the faster of two executions, which
	// must agree.
	timed bool
}

// result is what a cell's run produced; the cache keeps a failure as it
// keeps a success, so a cell fails once per session.
type result struct {
	apps.RunResult
	// wall is the host time the execution took.
	wall time.Duration
	err  error
}

// Runner executes cells for the experiments of one session and is the one
// place in this package where a simulator runs. It applies -parallel and
// -migrate to every cell, caches what it ran (several experiments share
// configurations), emits the -obsv files, records every execution as a
// snapshot scenario when -snapshot asks for one, and turns a simulated
// processor's panic into that cell's error, so one failing cell costs a
// report its row and not the rows after it.
type Runner struct {
	o Options
	// cache holds every untimed run by its cell and the name the
	// experiment gave it: a named run is an observatory's own and does not
	// stand in for the paper's run of the same cell, which under -obsv
	// leaves different files.
	cache map[cacheKey]result
	// snap is the snapshot Options.SnapshotPath asks for, nil without one.
	snap *BenchSnapshot
	// failed names the cells that failed, once each, in order.
	failed []string
}

type cacheKey struct {
	cell
	as string
}

// NewRunner starts a session under o.
func NewRunner(o Options) *Runner {
	r := &Runner{o: o.WithDefaults(), cache: map[cacheKey]result{}}
	if o.SnapshotPath != "" {
		label := o.BenchLabel
		if label == "" {
			label = "local"
		}
		r.snap = newBenchSnapshot(label)
	}
	return r
}

// Finish ends the session: it writes the snapshot, reporting it on w, and
// returns an error naming every cell that failed.
func (r *Runner) Finish(w io.Writer) error {
	if r.snap != nil {
		if err := r.snap.WriteFile(r.o.SnapshotPath); err != nil {
			return fmt.Errorf("harness: snapshot: %w", err)
		}
		fmt.Fprintf(w, "snapshot written: %s (label %s, %d scenarios)\n",
			r.o.SnapshotPath, r.snap.Label, len(r.snap.Scenarios))
	}
	if len(r.failed) > 0 {
		return fmt.Errorf("%d cell(s) failed:\n  %s", len(r.failed), strings.Join(r.failed, "\n  "))
	}
	return nil
}

// apply returns c as -parallel and -migrate make it. Migration is
// incompatible with hardware coherence and with ShareDirectory, so those
// cells stay static. The two experiments whose subject is one of these
// settings (scale's worker count, migrate's off/on pair) set it on the
// applied cell and call exec themselves.
func (r *Runner) apply(c cell) cell {
	c.cfg.Parallel = r.o.Parallel
	if r.o.Migrate && !c.cfg.Hardware && !c.cfg.ShareDirectory {
		c.cfg.Migrate = true
	}
	return c
}

// run executes (or recalls) c under the session's options.
func (r *Runner) run(c cell, w want) (result, error) {
	return r.exec(r.apply(c), w)
}

// cycles runs the cells in order and returns each one's measured parallel
// cycles — 0 for a cell that failed — and the first failure.
func (r *Runner) cycles(cells ...cell) ([]int64, error) {
	out := make([]int64, len(cells))
	var first error
	for i, c := range cells {
		res, err := r.run(c, want{})
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out[i] = res.Result.ParallelCycles
	}
	return out, first
}

// exec executes c exactly as given, or recalls it: an untimed run without a
// tracer is served from the cache when the cache holds what w asks for.
//
// Under -obsv a run that takes the metrics snapshot leaves it as
// METRICS_<name>.json. A run the experiment neither names nor traces is the
// paper's own: it also streams its whole trace to TRACE_<name>.jsonl.
func (r *Runner) exec(c cell, w want) (result, error) {
	key := cacheKey{c, w.name}
	if !w.timed && w.tracer == nil {
		if out, ok := r.cache[key]; ok && (out.err != nil || !w.metrics || out.Metrics != nil) {
			return out, out.err
		}
	}
	var out result
	var sink *shasta.JSONLSink
	if w.name == "" {
		w.name = c.name()
		if r.o.ObsvDir != "" && w.tracer == nil && !w.timed {
			sink, out.err = shasta.NewTraceSink(filepath.Join(r.o.ObsvDir, "TRACE_"+w.name+".jsonl"), shasta.SinkOptions{})
			w.tracer, w.metrics = sink, true
		}
	}
	// A timed run is the faster of two executions: the minimum is the
	// least noise-inflated estimate, and host noise is what benchgate's
	// tolerance must see through. Both executions must agree.
	reps := 1
	if w.timed {
		reps = 2
	}
	for rep := 0; rep < reps && out.err == nil; rep++ {
		start := time.Now()
		res, err := simulate(c, w.tracer, w.metrics)
		wall := time.Since(start)
		if d := diverged(out.RunResult, res); err == nil && rep > 0 && d != "" {
			err = errors.New("two executions diverged: " + d)
		}
		if rep == 0 || wall < out.wall {
			out.wall = wall
		}
		out.RunResult, out.err = res, err
	}
	if sink != nil {
		if err := sink.Close(); err != nil && out.err == nil {
			out.err = fmt.Errorf("trace sink: %w", err)
		}
	}
	if out.err == nil && w.metrics && r.o.ObsvDir != "" {
		var buf bytes.Buffer
		if out.err = out.Metrics.WriteJSON(&buf); out.err == nil {
			out.err = r.writeArtifact("METRICS_"+strings.ReplaceAll(w.name, "/", "_")+".json", buf.Bytes())
		}
	}
	if out.err != nil {
		out.err = fmt.Errorf("harness: %s: %w", c.name(), out.err)
		if !slices.Contains(r.failed, c.name()) {
			r.failed = append(r.failed, c.name())
		}
	} else {
		r.record(w.name, c, out)
	}
	if !w.timed {
		r.cache[key] = out
	}
	return out, out.err
}

// simulate runs the cell's workload once. A panic out of Cluster.Run that
// the simulator raised itself — a processor body's panic re-raised by the
// engine, a protocol invariant, a deadlock — comes back as an error holding
// the panic's first line; any other panic is a bug here and keeps unwinding.
func simulate(c cell, tracer shasta.Tracer, metrics bool) (res apps.RunResult, err error) {
	f, ok := apps.Registry[c.app]
	if !ok {
		if f, ok = fixtures[c.app]; !ok {
			return res, fmt.Errorf("unknown application %q", c.app)
		}
	}
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		line, _, _ := strings.Cut(fmt.Sprint(p), "\n")
		for _, prefix := range []string{"sim:", "protocol:", "shasta:"} {
			if strings.HasPrefix(line, prefix) {
				err = errors.New(line)
				return
			}
		}
		panic(p)
	}()
	if tracer == nil && !metrics {
		return apps.Execute(f(c.scale), c.cfg, c.varGran)
	}
	return apps.ExecuteObserved(f(c.scale), c.cfg, c.varGran, tracer)
}

// writeArtifact writes a file into the -obsv directory.
func (r *Runner) writeArtifact(name string, data []byte) error {
	return os.WriteFile(filepath.Join(r.o.ObsvDir, name), data, 0o644)
}

// diverged describes how two runs of one cell differ in their virtual
// results; it is empty when they agree (the bit-identity contract, see
// DESIGN.md).
func diverged(a, b apps.RunResult) string {
	if a.Result.FinishCycles == b.Result.FinishCycles &&
		a.Result.ParallelCycles == b.Result.ParallelCycles && a.Checksum == b.Checksum {
		return ""
	}
	return fmt.Sprintf("finish %d vs %d, cycles %d vs %d, checksum %v vs %v",
		a.Result.FinishCycles, b.Result.FinishCycles,
		a.Result.ParallelCycles, b.Result.ParallelCycles, a.Checksum, b.Checksum)
}
