package harness

import (
	"fmt"
	"io"

	"repro"
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
}

// execContention runs one cell — on the scale experiment's arrangement for
// its processor count: SMP nodes of 4, and at 64 processors the
// hierarchical uplink topology — with a trace collector, derives the sync
// observatory's measurements from the trace, and leaves the sync and skew
// reports under -obsv as SYNC_<cell>.txt and SKEW_<cell>.txt beside the
// runner's METRICS_contention_<cell>.json.
func execContention(r *Runner, app string, procs int, mode string) (contentionRun, error) {
	col := &shasta.CollectorTracer{}
	file := fmt.Sprintf("%s_p%d_%s", app, procs, mode)
	cfg := scaleConfig(procs, 0, 0)
	cfg.FastSync = mode == "hier"
	run, err := r.run(cell{app, r.o.Scale, cfg, false},
		want{name: fmt.Sprintf("contention/%s/p%d/%s", app, procs, mode), metrics: true, tracer: col})
	if err != nil {
		return contentionRun{}, err
	}
	c := contentionRun{cycles: run.Result.ParallelCycles}
	for _, e := range col.Events {
		if e.Op == "send" && (e.Msg == "BarArrive" || e.Msg == "BarGo") {
			c.barMsgs++
		}
	}
	ss := obsv.BuildSync(col.Events)
	if ss.Gapped || ss.DroppedTotal() != 0 {
		return contentionRun{}, fmt.Errorf("harness: contention: %s p%d: complete trace degraded (gapped=%v dropped=%v)",
			app, procs, ss.Gapped, ss.Dropped)
	}
	c.gens = len(ss.Gens)
	for i := range ss.Gens {
		g := &ss.Gens[i]
		c.departSkew += g.DepartSkew()
		c.arriveSkew += g.ArriveSkew()
	}
	if r.o.ObsvDir == "" {
		return c, nil
	}
	if err := r.writeArtifact("SYNC_"+file+".txt", []byte(obsv.FormatSync(ss, 5))); err != nil {
		return contentionRun{}, err
	}
	return c, r.writeArtifact("SKEW_"+file+".txt", []byte(obsv.FormatSkew(ss)))
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
// The runs are named "contention/<app>/p<procs>/<flat|hier>": with
// -snapshot those are the scenarios benchgate compares across commits, and
// with -obsv each cell writes METRICS_contention_<app>_p<procs>_<flat|hier>.json
// and its sync and skew reports as SYNC_*.txt and SKEW_*.txt.
func Contention(r *Runner, w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tprocs\tbarrier\tcycles\tΔcycles\tbar msgs\tgens\tarrive-skew\tdepart-skew")
	for _, fx := range contentionFixtures {
		if !selected(r.o, fx.app) {
			continue
		}
		for _, procs := range fx.procs {
			if r.o.Procs != 0 && r.o.Procs != procs {
				continue
			}
			var cells [2]contentionRun
			for i, mode := range []string{"flat", "hier"} {
				c, err := execContention(r, fx.app, procs, mode)
				if err != nil {
					return err
				}
				cells[i] = c
				delta := ""
				if mode == "hier" {
					delta = fmt.Sprintf("%+.1f%%", 100*float64(c.cycles-cells[0].cycles)/float64(cells[0].cycles))
				}
				fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%d\n",
					fx.app, procs, mode, c.cycles, delta, c.barMsgs, c.gens,
					c.arriveSkew, c.departSkew)
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
	return tw.Flush()
}
