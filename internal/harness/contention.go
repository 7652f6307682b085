package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
)

// contentionFixtures are the contention experiment's workloads: Water-Nsq
// (per-molecule locks plus barriers — the lock-heaviest application) and LU
// (barrier-only, so its synchronization cost is pure barrier skew). Both
// run at 8 and at 64 processors; 64 is where the flat barrier's serialized
// release fan-out hurts.
var contentionFixtures = []struct {
	app   string
	procs []int
}{
	{"Water-Nsq", []int{8, 64}},
	{"LU", []int{8, 64}},
}

// contentionRun is one measured cell of the experiment.
type contentionRun struct {
	cycles     int64 // end-to-end measured parallel cycles
	barMsgs    int64 // BarArrive + BarGo sends in the trace
	departSkew int64 // total barrier departure skew over generations
	arriveSkew int64 // total barrier arrival skew over generations
	gens       int   // barrier generations observed
	ss         *obsv.SyncSet
	result     apps.RunResult
	wall       time.Duration
}

// contentionConfig builds the cell's configuration: SMP nodes of 4, and at
// 64 processors the hierarchical uplink topology (matching the scale
// experiment's arrangement).
func contentionConfig(procs int, fastSync bool) shasta.Config {
	cfg := shasta.Config{Procs: procs, Clustering: 4, FastSync: fastSync}
	if procs > 16 {
		cfg.NodesPerGroup = 4
	}
	return cfg
}

// execContention runs one cell with a trace collector and derives the sync
// observatory's measurements from the trace.
func execContention(o Options, app string, procs int, fastSync bool) (contentionRun, error) {
	cfg := contentionConfig(procs, fastSync)
	cfg.Parallel = parallel
	col := &shasta.CollectorTracer{}
	start := time.Now()
	r, err := apps.ExecuteObserved(apps.Registry[app](o.Scale), cfg, false, col)
	if err != nil {
		return contentionRun{}, fmt.Errorf("harness: contention: %s p%d: %w", app, procs, err)
	}
	c := contentionRun{result: r, wall: time.Since(start), cycles: r.Result.ParallelCycles}
	for _, e := range col.Events {
		if e.Op == "send" && (e.Msg == "BarArrive" || e.Msg == "BarGo") {
			c.barMsgs++
		}
	}
	c.ss = obsv.BuildSync(col.Events)
	if c.ss.Gapped || c.ss.DroppedTotal() != 0 {
		return contentionRun{}, fmt.Errorf("harness: contention: %s p%d: complete trace degraded (gapped=%v dropped=%v)",
			app, procs, c.ss.Gapped, c.ss.Dropped)
	}
	c.gens = len(c.ss.Gens)
	for i := range c.ss.Gens {
		g := &c.ss.Gens[i]
		c.departSkew += g.DepartSkew()
		c.arriveSkew += g.ArriveSkew()
	}
	return c, nil
}

// writeContentionFiles emits the cell's observability artifacts: the full
// metrics snapshot as METRICS_contention_<cell>.json plus the sync and skew
// reports as SYNC_<cell>.txt and SKEW_<cell>.txt.
func writeContentionFiles(name string, c contentionRun) error {
	if err := writeMetrics("contention_"+name, c.result.Metrics); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(obsvDir, "SYNC_"+name+".txt"),
		[]byte(obsv.FormatSync(c.ss, 5)), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(obsvDir, "SKEW_"+name+".txt"),
		[]byte(obsv.FormatSkew(c.ss)), 0o644)
}

// Contention is the synchronization contention observatory's experiment:
// Water-Nsq and LU at 8 and 64 processors, each under the flat centralized
// barrier and the hierarchical FastSync barrier. Every cell's trace feeds
// the sync analyzer; the report gives measured cycles, barrier message
// traffic, and total arrival and departure skew per cell. The experiment
// fails unless the hierarchical barrier wins where it must: fewer barrier
// messages at every processor count, and a smaller total departure skew at
// 64 processors, where the flat barrier serializes 63 release sends through
// the manager (the hierarchical one sends one per group and releases group
// members through shared memory).
//
// With Options.SnapshotPath set, every cell is written as a shasta-bench/v1
// scenario ("contention/<app>/p<procs>/<flat|hier>") for benchgate
// comparison across commits. With observability emission enabled
// (shastabench -obsv), each cell also writes its metrics snapshot as
// METRICS_contention_<app>_p<procs>_<flat|hier>.json and its sync and skew
// reports as SYNC_*.txt and SKEW_*.txt.
func Contention(o Options, w io.Writer) error {
	o = o.WithDefaults()

	rec := newSnapshotRecorder(o)

	tw := newTab(w)
	fmt.Fprintln(tw, "app\tprocs\tbarrier\tcycles\tΔcycles\tbar msgs\tgens\tarrive-skew\tdepart-skew")
	for _, fx := range contentionFixtures {
		if len(appList(o, []string{fx.app})) == 0 {
			continue
		}
		for _, procs := range fx.procs {
			if o.Procs != 0 && o.Procs != procs {
				continue
			}
			var cells [2]contentionRun
			for i, fast := range []bool{false, true} {
				c, err := execContention(o, fx.app, procs, fast)
				if err != nil {
					return err
				}
				cells[i] = c
				mode := "flat"
				if fast {
					mode = "hier"
				}
				delta := ""
				if fast {
					delta = fmt.Sprintf("%+.1f%%", 100*float64(c.cycles-cells[0].cycles)/float64(cells[0].cycles))
				}
				fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%d\n",
					fx.app, procs, mode, c.cycles, delta, c.barMsgs, c.gens,
					c.arriveSkew, c.departSkew)
				name := fmt.Sprintf("%s_p%d_%s", fx.app, procs, mode)
				rec.add(fmt.Sprintf("contention/%s/p%d/%s", fx.app, procs, mode), fx.app, "",
					contentionConfig(procs, fast), c.wall, c.result)
				if obsvDir != "" {
					if err := writeContentionFiles(name, c); err != nil {
						return err
					}
				}
			}
			flat, hier := &cells[0], &cells[1]
			if flat.gens == 0 || flat.gens != hier.gens {
				return fmt.Errorf("harness: contention: %s p%d: generation counts differ (flat %d, hier %d)",
					fx.app, procs, flat.gens, hier.gens)
			}
			// The hierarchical barrier's win, asserted in-experiment: one
			// arrival and one release message per group instead of per
			// processor, at every scale.
			if hier.barMsgs >= flat.barMsgs {
				return fmt.Errorf("harness: contention: %s p%d: hierarchical barrier did not reduce barrier messages (%d flat, %d hier)",
					fx.app, procs, flat.barMsgs, hier.barMsgs)
			}
			// And at 64 processors the flat manager's serialized release
			// fan-out must show up as departure skew the hierarchy removes.
			if procs >= 64 && hier.departSkew >= flat.departSkew {
				return fmt.Errorf("harness: contention: %s p%d: hierarchical barrier did not reduce departure skew (%d flat, %d hier)",
					fx.app, procs, flat.departSkew, hier.departSkew)
			}
			fmt.Fprintf(tw, "%s\t%d\tsaved\t\t\t%d\t\t\t%d\n", fx.app, procs,
				flat.barMsgs-hier.barMsgs, flat.departSkew-hier.departSkew)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return rec.write("contention", w)
}
