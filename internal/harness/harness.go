// Package harness regenerates the tables and figures of the paper's
// evaluation (Section 4): the checking-overhead table (Table 1), the
// variable-granularity table (Table 2), the larger-problem table (Table 3),
// the speedup curves (Figure 3), the execution-time breakdowns (Figures 4
// and 5), the miss and message statistics (Figures 6 and 7), the downgrade
// distribution (Figure 8), the downgrade-latency microbenchmark, and the
// hardware-coherent ANL comparison.
//
// Absolute numbers differ from the paper's (the substrate is a calibrated
// simulator and the problem sizes are scaled down), but each experiment
// reports the same rows and series the paper does, so the shapes — who
// wins, by what factor, where crossovers fall — can be compared directly.
// EXPERIMENTS.md records that comparison.
package harness

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"repro"
	"repro/internal/apps"
)

// Options parameterize a session of experiment runs; shastabench fills them
// from its flags.
type Options struct {
	// Scale multiplies problem sizes (1 = default experiment inputs).
	Scale int
	// Apps restricts the applications run (nil = the experiment's own
	// set).
	Apps []string
	// InjectRace restricts the races experiment to one injection mode
	// (one of apps.RacyInjectModes; empty runs all modes).
	InjectRace string
	// Procs restricts the scale, tail and contention experiments to one
	// processor count (0 = each one's own sweep).
	Procs int
	// Topology overrides the scale experiment's node arrangement, as
	// "NxG" (N processors per SMP node, G nodes per uplink group) or
	// "N" for a flat interconnect; see parseTopology.
	Topology string
	// SnapshotPath, when set, makes every executed run a scenario of a
	// shasta-bench/v1 snapshot written there (see PERFORMANCE.md).
	SnapshotPath string
	// BenchLabel names the snapshot ("pr22" for BENCH_pr22.json);
	// defaults to "local".
	BenchLabel string
	// Parallel runs every cell with more than one engine worker
	// (Config.Parallel). By contract the results — cycles, statistics,
	// traces, metrics, checksums — are bit-identical to one-worker runs
	// (the scale experiment verifies this); only host wall-clock changes.
	Parallel bool
	// Migrate enables online home migration (Config.Migrate) in every
	// cell that supports it, so any experiment can be regenerated under
	// migration. Hardware and ShareDirectory cells stay static.
	Migrate bool
	// ObsvDir, when set, receives each executed run's TRACE_<run>.jsonl
	// protocol trace and METRICS_<run>.json metrics snapshot, and the
	// observatory experiments' reports; see Runner.exec and
	// OBSERVABILITY.md for the file formats.
	ObsvDir string
}

// WithDefaults fills unset options.
func (o Options) WithDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	return o
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI name: "table1" .. "table3", "fig3" .. "fig8",
	// "micro", "anl".
	ID string
	// Title describes what the paper shows there.
	Title string
	// Run executes the experiment's cells on r, writing its report to w.
	Run func(r *Runner, w io.Writer) error
}

// Experiments lists every experiment in paper order.
var Experiments = []Experiment{
	{"table1", "Sequential times and checking overheads (Table 1)", Table1},
	{"table2", "Effects of variable block size in Base-Shasta (Table 2)", Table2},
	{"table3", "Execution on larger problem sizes (Table 3)", Table3},
	{"fig3", "Speedups, Base-Shasta vs SMP-Shasta, 1-16 processors (Figure 3)", Fig3},
	{"fig4", "Execution time breakdowns at 8 and 16 processors (Figure 4)", Fig4},
	{"fig5", "Breakdowns with variable granularity (Figure 5)", Fig5},
	{"fig6", "Misses by type and hops vs clustering (Figure 6)", Fig6},
	{"fig7", "Messages by class vs clustering (Figure 7)", Fig7},
	{"fig8", "Downgrade message distribution (Figure 8)", Fig8},
	{"micro", "Read latency vs number of downgrades (Section 4.4)", Micro},
	{"anl", "SMP-Shasta vs hardware-coherent execution on one SMP (Section 4.3)", ANL},
	{"ablate", "Design-choice ablations: line size, shared directory, fast sync, broadcast downgrades", Ablate},
	{"profile", "Per-processor execution-time profile, measured breakdown at 8 processors", Profile},
	{"sharing", "Sharing-pattern observatory: block classification and placement advice vs measured line-size delta", Sharing},
	{"races", "Race-detector injection: clean and mis-synchronized runs, detector verdict vs ground truth", Races},
	{"scale", "16-256 processor sweep: hierarchical topologies, 1 worker vs N workers wall-clock, bit-identity at scale", Scale},
	{"tail", "Tail-latency observatory: flat vs hierarchical topology, span-derived p99 and stage attribution", Tail},
	{"migrate", "Online home migration: misplaced blocks re-home to their traffic, off vs on", Migrate},
	{"contention", "Synchronization contention observatory: per-lock/barrier telemetry, flat vs hierarchical barrier", Contention},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// seqConfig is the original sequential program: one processor, no checks.
func seqConfig() shasta.Config {
	return shasta.Config{Procs: 1, Hardware: true}
}

// baseConfig is a Base-Shasta configuration at the given processor count.
func baseConfig(procs int) shasta.Config {
	return shasta.Config{Procs: procs, Clustering: 1}
}

// smpConfig is an SMP-Shasta configuration: clustering 2 at 2 processors,
// 4 at 4 and above (the paper's choice for Figure 3 and beyond).
func smpConfig(procs int) shasta.Config {
	cl := 4
	if procs < 4 {
		cl = procs
	}
	return shasta.Config{Procs: procs, Clustering: cl}
}

// selected reports whether -apps admits app.
func selected(o Options, app string) bool {
	return len(o.Apps) == 0 || slices.Contains(o.Apps, app)
}

// appList resolves the option's application set against a default.
func appList(o Options, def []string) []string {
	var out []string
	for _, a := range def {
		if selected(o, a) {
			out = append(out, a)
		}
	}
	return out
}

// appsOr is appList for experiments too costly to default to every
// application: -apps selects from the whole registry, and without it def
// runs.
func appsOr(o Options, def ...string) []string {
	if len(o.Apps) == 0 {
		return def
	}
	return appList(o, apps.Names)
}

// speedup computes sequential/parallel.
func speedup(seq, par int64) float64 {
	if par == 0 {
		return 0
	}
	return float64(seq) / float64(par)
}

// pct formats a ratio-1 as a percentage string.
func pct(over float64) string { return fmt.Sprintf("%.1f%%", over*100) }

// secs formats cycles as virtual seconds at 300 MHz.
func secs(cycles int64) string { return fmt.Sprintf("%.4fs", float64(cycles)/300e6) }

// newTab builds a tabwriter for aligned report columns.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
