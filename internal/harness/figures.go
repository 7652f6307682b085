package harness

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/apps"
	"repro/internal/stats"
)

// fig3Procs are the processor counts of the speedup curves.
var fig3Procs = []int{1, 2, 4, 8, 16}

// Fig3 reproduces Figure 3: speedup curves over 1-16 processors for
// Base-Shasta and SMP-Shasta (clustering 2 at 2 processors, 4 at 4 and
// above), relative to the original sequential code without miss checks.
func Fig3(r *Runner, w io.Writer) error {
	names := appList(r.o, apps.Names)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tprotocol\tP=1\tP=2\tP=4\tP=8\tP=16")
	for _, name := range names {
		seq, err := r.run(cell{name, r.o.Scale, seqConfig(), false}, want{})
		if err != nil {
			return err
		}
		for _, proto := range []string{"Base", "SMP"} {
			fmt.Fprintf(tw, "%s\t%s", name, proto)
			for _, procs := range fig3Procs {
				cfg := baseConfig(procs)
				if proto == "SMP" {
					cfg = smpConfig(procs)
				}
				run, err := r.run(cell{name, r.o.Scale, cfg, false}, want{})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%.2f", speedup(seq.Result.ParallelCycles, run.Result.ParallelCycles))
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// clusteringFigure is the frame Figures 4 to 7 share: for each application
// at 8 and 16 processors, a Base-Shasta row and one SMP-Shasta row per
// clustering, each rendered by row against the Base run. Clustering 1 under
// the SMP protocol's costs is modelled by Base with SMP checks. A run that
// fails prints "failed" in its row — "no base" in the rows it would have
// normalized — and is the error returned once the whole figure is out.
func clusteringFigure(r *Runner, w io.Writer, defApps []string, varGran bool, columns string,
	clusterings []int, row func(tw io.Writer, run, base apps.RunResult)) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "app/procs\trun\t"+columns)
	var failed error
	for _, name := range appList(r.o, defApps) {
		for _, procs := range []int{8, 16} {
			fmt.Fprintf(tw, "%s @%dp\n", name, procs)
			base, baseErr := r.run(cell{name, r.o.Scale, baseConfig(procs), varGran}, want{})
			emit := func(label string, cfg shasta.Config) {
				run, err := r.run(cell{name, r.o.Scale, cfg, varGran}, want{})
				switch {
				case err != nil:
					fmt.Fprintf(tw, "\t%s\tfailed\n", label)
					if failed == nil {
						failed = err
					}
				case baseErr != nil:
					fmt.Fprintf(tw, "\t%s\tno base\n", label)
				default:
					fmt.Fprintf(tw, "\t%s", label)
					row(tw, run.RunResult, base.RunResult)
				}
			}
			emit("Base", baseConfig(procs))
			for _, cl := range clusterings {
				cfg := baseConfig(procs)
				cfg.Clustering, cfg.ForceSMPChecks = cl, cl == 1
				emit(fmt.Sprintf("SMP C%d", cl), cfg)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return failed
}

// figBreakdown renders Figures 4 and 5: the execution time of Base-Shasta
// and SMP-Shasta at clusterings 1, 2 and 4, normalized to Base-Shasta and
// split into task/read/write/sync/message/other components.
func figBreakdown(r *Runner, w io.Writer, defApps []string, varGran bool) error {
	return clusteringFigure(r, w, defApps, varGran, "total\ttask\tread\twrite\tsync\tmsg\tother", []int{1, 2, 4},
		func(tw io.Writer, run, base apps.RunResult) {
			norm := float64(run.Result.ParallelCycles) / float64(base.Result.ParallelCycles)
			fr := run.Result.Stats.BreakdownFractions()
			fmt.Fprintf(tw, "\t%.2f", norm)
			for c := stats.TimeCategory(0); c < stats.NumTimeCategories; c++ {
				fmt.Fprintf(tw, "\t%.2f", norm*fr[c])
			}
			fmt.Fprintln(tw)
		})
}

// Fig4 reproduces Figure 4 (default 64-byte granularity).
func Fig4(r *Runner, w io.Writer) error {
	return figBreakdown(r, w, apps.Names, false)
}

// Fig5 reproduces Figure 5 (the Table 2 variable-granularity hints).
func Fig5(r *Runner, w io.Writer) error {
	return figBreakdown(r, w, table2Apps(), true)
}

// normPct is 100*n/base, 0 without a base.
func normPct(n, base int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(n) / float64(base)
}

// Fig6 reproduces Figure 6: the number of misses, classified by request
// type (read/write/upgrade) and hop count (2/3), for SMP-Shasta clusterings
// of 2 and 4, normalized to Base-Shasta (=100).
func Fig6(r *Runner, w io.Writer) error {
	return clusteringFigure(r, w, apps.Names, false, "total%\trd2\trd3\twr2\twr3\tup2\tup3", []int{2, 4},
		func(tw io.Writer, run, base apps.RunResult) {
			st := run.Result.Stats
			fmt.Fprintf(tw, "\t%.0f", normPct(st.TotalMisses(), base.Result.Stats.TotalMisses()))
			for _, k := range []stats.MissKind{stats.ReadMiss, stats.WriteMiss, stats.UpgradeMiss} {
				for _, h := range []int{2, 3} {
					fmt.Fprintf(tw, "\t%d", st.MissesBy(k, h))
				}
			}
			fmt.Fprintln(tw)
		})
}

// Fig7 reproduces Figure 7: protocol messages classified as remote (between
// nodes), local (within a node, excluding downgrades) and downgrade
// messages, for clusterings 2 and 4, normalized to Base-Shasta.
func Fig7(r *Runner, w io.Writer) error {
	return clusteringFigure(r, w, apps.Names, false, "total%\tremote\tlocal\tdowngrade", []int{2, 4},
		func(tw io.Writer, run, base apps.RunResult) {
			st := run.Result.Stats
			fmt.Fprintf(tw, "\t%.0f\t%d\t%d\t%d\n", normPct(st.TotalMessages(), base.Result.Stats.TotalMessages()),
				st.MessagesBy(stats.RemoteMsg), st.MessagesBy(stats.LocalMsg), st.MessagesBy(stats.DowngradeMsg))
		})
}

// Fig8 reproduces Figure 8: for 8- and 16-processor SMP-Shasta runs with
// clustering 4, the percentage of block downgrades that required 0, 1, 2
// and 3 downgrade messages. Most applications should need 0 or 1 for the
// large majority of downgrades; the Waters are the paper's exceptions
// (migratory molecule records touched by every processor of a node).
func Fig8(r *Runner, w io.Writer) error {
	names := appList(r.o, apps.Names)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tprocs\tdowngrades\t0 msgs\t1 msg\t2 msgs\t3 msgs")
	for _, name := range names {
		for _, procs := range []int{8, 16} {
			run, err := r.run(cell{name, r.o.Scale, smpConfig(procs), false}, want{})
			if err != nil {
				return err
			}
			frac, total := run.Result.Stats.DowngradeDistribution()
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\n",
				name, procs, total,
				frac[0]*100, frac[1]*100, frac[2]*100, frac[3]*100)
		}
	}
	return tw.Flush()
}
