package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
)

// options select what one invocation runs.
type options struct {
	sz        sizing
	workloads []string // empty selects all six
	seed      uint64
	// seconds, when positive, replaces the rep table: timed reps run back to
	// back until that many seconds have passed (and at least minReps ran).
	seconds float64
	// traced adds, after the timed pass, the traced pass and the probes.
	traced     bool
	cpuProfile string
	memProfile string
	spansPath  string
	log        io.Writer
}

// minReps is the fewest timed reps a -seconds run takes: a median of fewer
// than three is one rep's noise.
const minReps = 3

// sample summarises the measurements of one end-to-end metric. Value is the
// number reported and compared: the median, or for a metric marked Best the
// fastest sample. With fewer than twenty samples no percentile beyond the
// median qualifies, so the quartiles are kept only as the spread `compare`
// uses.
type sample struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// workloadReport is everything one workload printed.
type workloadReport struct {
	Name       string `json:"name"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Reps       int    `json:"reps"`
	// Attempted counts every rep run (warm-up, timed and traced); Failed
	// those that errored, panicked, or gave a wrong or unrepeatable result.
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
	Checksum  float64            `json:"checksum"`
	EndToEnd  map[string]sample  `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// report is the -out document and the input of `compare`.
type report struct {
	Schema       string           `json:"schema"`
	GoVersion    string           `json:"go_version"`
	NumCPU       int              `json:"nproc"`
	Seed         uint64           `json:"seed"`
	Seconds      float64          `json:"seconds"`
	TotalSeconds float64          `json:"total_seconds"`
	Workloads    []workloadReport `json:"workloads"`
	Notes        []string         `json:"notes"`
}

const reportSchema = "shasta-ledger/v1"

// notes are the sizing observations a later issue should pick up; this
// benchmark only records them.
var notes = []string{
	"protocol.traceState formats its detail string with fmt.Sprintf on every handler dispatch even when no tracer is attached (about 5% of lu16-serial host samples in the profile taken while sizing ISSUE 11); lu16-serial wall_s and alloc_mb are where removing it must show.",
	"the parallel engine does not use a second core well on a 2-core host: the water64-fastsync-par configuration takes 1.48 s per rep at GOMAXPROCS 1 and 1.69 s at GOMAXPROCS 2 (ten reps each, three rounds), so that workload pins 1 and measures window overhead; sim.parallel_gain_x (serial-engine wall at GOMAXPROCS 1 over parallel wall at GOMAXPROCS 2) is the number a fix must raise.",
	accuracyNote,
}

// accuracyNote is printed with every result.
const accuracyNote = "virtual numbers are validated only against the three latencies the repository holds from the paper (protocol.virt_*); application cycles have no hardware reference and no error figure is given."

// session is one workload being measured.
type session struct {
	w   workload
	o   options
	rep repFunc
	// first is the first verified result; every later rep must repeat its
	// virtual cycles and checksum exactly.
	first  *repResult
	walls  []float64 // timed reps, seconds
	report workloadReport
}

// attempt runs one rep, recovering a panic, and checks its result. A failed
// rep is counted, not fatal: the benchmark reports the share that failed.
func (s *session) attempt(rec *recorder, parent int) (r repResult, wall time.Duration, ok bool) {
	s.report.Attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		t0 := time.Now()
		r, err = s.rep(rec, parent)
		wall = time.Since(t0)
		return err
	}()
	if err == nil {
		err = s.verify(r)
	}
	if err != nil {
		s.report.Failed++
		if len(s.report.Failures) < 5 {
			s.report.Failures = append(s.report.Failures, err.Error())
		}
		return r, wall, false
	}
	return r, wall, true
}

func (s *session) verify(r repResult) error {
	if !apps.CloseEnough(r.checksum, r.reference, 1e-6) {
		return fmt.Errorf("checksum %.12g differs from the sequential reference %.12g", r.checksum, r.reference)
	}
	if s.first == nil {
		s.first = &r
		return nil
	}
	if r.cycles != s.first.cycles || r.checksum != s.first.checksum {
		return fmt.Errorf("rep not repeatable: cycles %d checksum %v, first rep %d and %v",
			r.cycles, r.checksum, s.first.cycles, s.first.checksum)
	}
	return nil
}

// setUp builds the inputs, runs the sequential reference and one warm-up
// rep — everything between choosing a workload and its first timed rep. It
// is repeated, so one slow start does not decide setup_s.
func (s *session) setUp() error {
	runtime.GOMAXPROCS(workloadProcs)
	var times []float64
	for i := 0; i < s.o.sz.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		rep, err := s.w.prepare(s.o.seed)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", s.w.name, err)
		}
		s.rep = rep
		s.attempt(nil, 0)
		times = append(times, time.Since(t0).Seconds())
	}
	s.report.EndToEnd = map[string]sample{"setup_s": summarize(endToEndMetric("setup_s"), times)}
	return nil
}

// timedPass runs the timed reps back to back with nothing recorded.
func (s *session) timedPass() {
	runtime.GOMAXPROCS(workloadProcs)
	runtime.GC()
	var allocs []float64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for n := 0; ; n++ {
		if s.o.seconds > 0 {
			if n >= minReps && time.Since(start).Seconds() >= s.o.seconds {
				break
			}
		} else if n >= s.w.reps {
			break
		}
		runtime.ReadMemStats(&ms0)
		_, wall, _ := s.attempt(nil, 0)
		runtime.ReadMemStats(&ms1)
		s.walls = append(s.walls, wall.Seconds())
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	}
	s.report.Reps = len(s.walls)
	s.report.EndToEnd["wall_s"] = summarize(endToEndMetric("wall_s"), s.walls)
	s.report.EndToEnd["alloc_mb"] = summarize(endToEndMetric("alloc_mb"), allocs)
	if s.first != nil {
		cycles := make([]float64, len(s.walls)) // verify holds every rep to the first one's
		for i := range cycles {
			cycles[i] = float64(s.first.cycles)
		}
		s.report.EndToEnd["virtual_cycles"] = summarize(endToEndMetric("virtual_cycles"), cycles)
		s.report.Checksum = s.first.checksum
	}
}

// tracedPass runs one more rep with spans on and derives the workload's own
// per-layer numbers from it; probes holds the workload-independent ones.
func (s *session) tracedPass(rec *recorder, probes map[string]float64) {
	runtime.GOMAXPROCS(workloadProcs)
	runtime.GC()
	rec.workload = s.w.name
	root := rec.start(0, "rep")
	r, wall, _ := s.attempt(rec, root)
	rec.end(root)

	pl := map[string]float64{}
	for k, v := range probes {
		pl[k] = v
	}
	for _, m := range perLayer {
		if _, ok := pl[m.Name]; !ok {
			pl[m.Name] = 0 // a layer that did no work on this workload
		}
	}
	timed := s.report.EndToEnd["wall_s"].Value // seconds of one timed rep
	if timed > 0 {
		pl["bench.trace_overhead_x"] = wall.Seconds() / timed
	}
	pl["obsv.trace_events"], pl["obsv.trace_bytes"] = float64(r.events), float64(r.bytes)
	pl["apps.hardware_wall_s"] = r.phases["apps.hardware"].Seconds()
	pl["apps.new_cluster_ms"] = r.phases["apps.new_cluster"].Seconds() * 1e3
	pl["apps.setup_ms"] = r.phases["apps.setup"].Seconds() * 1e3
	pl["obsv.snap_ms"] = r.phases["obsv.snap"].Seconds() * 1e3

	explained := 0.0 // host ns the probes account for
	if m := r.metrics; m != nil {
		t := m.Totals
		pl["protocol.checks"] = float64(t.Checks)
		pl["protocol.misses"] = float64(t.TotalMisses)
		pl["protocol.messages"] = float64(t.TotalMessages)
		pl["protocol.stall_events"] = float64(t.StallEvents)
		pl["memchan.remote_msgs"] = float64(m.Network.RemoteSends)
		pl["memchan.local_msgs"] = float64(m.Network.LocalSends)
		pl["memchan.downgrade_msgs"] = float64(t.Messages["downgrade"])
		pl["memchan.link_wait_cycles"] = float64(m.Network.LinkWaitCycles)
		var total int64
		for _, c := range t.TimeBy {
			total += c
		}
		for cat, c := range t.TimeBy {
			if total > 0 {
				pl["protocol.share_"+cat] = float64(c) / float64(total)
			}
		}
		if t.Checks > 0 {
			pl["protocol.host_ns_per_check"] = timed * 1e9 / float64(t.Checks)
		}
		if t.TotalMessages > 0 {
			pl["protocol.host_ns_per_msg"] = timed * 1e9 / float64(t.TotalMessages)
		}
		// A check costs a hit; a 2-hop read miss is two messages, each
		// sent, received and handled, so half of it prices one message;
		// a traced event costs its emission and its encoding.
		explained = float64(t.Checks)*(pl["protocol.load_hit_ns"]+pl["protocol.store_hit_ns"])/2 +
			float64(t.TotalMessages)*pl["protocol.read_miss_2hop_ns"]/2 +
			float64(r.events)*(pl["protocol.trace_collector_ns"]+pl["obsv.sink_ns"])
	} else if r.analysis != nil {
		for name := range r.analysis.ns {
			explained += float64(r.events) * pl[name]
		}
	}
	if timed > 0 {
		pl["ledger.explained_share"] = explained / (timed * 1e9)
	}
	s.report.PerLayer = pl
}

// endToEndMetric returns the catalogue entry of an end-to-end metric.
func endToEndMetric(name string) metric {
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// summarize reduces the measurements of m to the reported value, the median,
// the range and the quartiles.
func summarize(m metric, v []float64) sample {
	if len(v) == 0 {
		return sample{Unit: m.Unit}
	}
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	s := sample{Unit: m.Unit, Median: quantile(x, 0.5), Min: x[0], Max: x[len(x)-1],
		Q1: quantile(x, 0.25), Q3: quantile(x, 0.75), N: len(x)}
	s.Value = s.Median
	if m.Best {
		s.Value = s.Min
	}
	return s
}

// quantile interpolates the sorted sample at rank q·(n+1), the rule of
// Python's statistics.quantiles, clamped to the sample's range.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(len(sorted)-1) {
		return sorted[len(sorted)-1]
	}
	lo := math.Floor(pos)
	return sorted[int(lo)] + (pos-lo)*(sorted[int(lo)+1]-sorted[int(lo)])
}

// selectWorkloads returns the named workloads in catalogue order.
func selectWorkloads(all []workload, names []string) ([]workload, error) {
	if len(names) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []workload
	for _, w := range all {
		if want[w.name] {
			out = append(out, w)
			delete(want, w.name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("unknown workload %q (see -list)", n)
	}
	return out, nil
}

// benchmark runs the selected workloads: every set-up, then the timed passes
// (the only part the profiles cover), then the traced passes and the probes.
func benchmark(o options) (*report, error) {
	start := time.Now()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ws, err := selectWorkloads(catalogue(o.sz), o.workloads)
	if err != nil {
		return nil, err
	}
	sessions := make([]*session, len(ws))
	for i, w := range ws {
		fmt.Fprintf(o.log, "# %s: set-up x%d\n", w.name, o.sz.setups)
		sessions[i] = &session{w: w, o: o, report: workloadReport{Name: w.name, GOMAXPROCS: workloadProcs}}
		if err := sessions[i].setUp(); err != nil {
			return nil, err
		}
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	for _, s := range sessions {
		fmt.Fprintf(o.log, "# %s: timed pass\n", s.w.name)
		s.timedPass()
	}
	pprof.StopCPUProfile()
	if o.memProfile != "" {
		if err := writeAllocProfile(o.memProfile); err != nil {
			return nil, err
		}
	}

	if o.traced {
		rec := newRecorder()
		fmt.Fprintf(o.log, "# probes\n")
		probes, err := runProbes(o.sz, o.seed, rec)
		if err != nil {
			return nil, err
		}
		for _, s := range sessions {
			fmt.Fprintf(o.log, "# %s: traced pass\n", s.w.name)
			s.tracedPass(rec, probes)
		}
		if o.spansPath != "" {
			if err := rec.write(o.spansPath); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}

	rep := &report{Schema: reportSchema, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Notes: notes}
	for _, s := range sessions {
		rep.Workloads = append(rep.Workloads, s.report)
	}
	rep.TotalSeconds = time.Since(start).Seconds()
	return rep, nil
}

// writeAllocProfile writes the allocation profile. It is cumulative from
// process start, so besides the timed pass it holds the set-up reps (the
// same code, run once per set-up).
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes every metric of the report by name, with its unit and kind.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "host: %s, %d cpus; seed %d (moves synth16-mix and the probe fixtures; the SPLASH-2 kernels are the paper's fixed inputs and ignore it)\n",
		rep.GoVersion, rep.NumCPU, rep.Seed)
	fmt.Fprintf(w, "closed loop, one client; n < 20 reps, so no percentile beyond the median is given; wall_s and setup_s are the fastest sample (shared host)\n")
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s  (GOMAXPROCS %d, %d timed reps)\n", wr.Name, wr.GOMAXPROCS, wr.Reps)
		fmt.Fprintf(w, "  %-34s %d\n  %-34s %d\n", "ops_attempted", wr.Attempted, "ops_failed", wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		for _, m := range endToEnd {
			s, ok := wr.EndToEnd[m.Name]
			if !ok {
				continue
			}
			switch {
			case m.Exact:
				fmt.Fprintf(w, "  %-34s %.0f %s (%s, identical on all %d reps)\n", m.Name, s.Value, m.Unit, m.Kind, s.N)
			case m.Best:
				fmt.Fprintf(w, "  %-34s %.4f %s (%s, fastest of %d; median %.4f max %.4f)\n",
					m.Name, s.Value, m.Unit, m.Kind, s.N, s.Median, s.Max)
			default:
				fmt.Fprintf(w, "  %-34s %.4f %s (%s, median of %d; min %.4f max %.4f)\n",
					m.Name, s.Value, m.Unit, m.Kind, s.N, s.Min, s.Max)
			}
		}
		if wr.PerLayer == nil {
			continue
		}
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %s %s (%s)\n", m.Name, formatValue(wr.PerLayer[m.Name]), m.Unit, m.Kind)
		}
	}
	fmt.Fprintf(w, "\naccuracy: %s\n", accuracyNote)
}

// formatValue prints counts whole and measurements with four significant
// decimals.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

// failed reports whether any operation of the report failed.
func (rep *report) failed() bool {
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return true
		}
	}
	return false
}
