package harness

import (
	"fmt"
	"io"

	"repro/internal/apps"
)

// Profile renders the virtual-time profiler's per-processor execution-time
// breakdown for each application under SMP-Shasta at 8 processors: the
// paper's Figure 4 bars, but resolved to individual processors and to exact
// cycles instead of run-wide fractions. Each row's six categories plus idle
// sum exactly to the measured parallel time; the dgrade* column is an
// overlapping memo isolating the SMP-Shasta downgrade machinery (cycles
// already counted under message or the stalled category).
func Profile(r *Runner, w io.Writer) error {
	names := appList(r.o, apps.Names)
	tw := newTab(w)
	fmt.Fprintln(tw, "app/proc\ttask%\tread%\twrite%\tsync%\tmsg%\tother%\tidle%\tdgrade*%\tcycles")
	for _, name := range names {
		run, err := r.run(cell{name, r.o.Scale, smpConfig(8), false}, want{metrics: true})
		if err != nil {
			return err
		}
		m := run.Metrics
		fmt.Fprintf(tw, "%s @8p C4\n", name)
		for _, e := range m.Breakdown {
			pc := func(v int64) string {
				return fmt.Sprintf("%.1f", 100*float64(v)/float64(e.Total))
			}
			fmt.Fprintf(tw, "\tp%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\n",
				e.Proc, pc(e.Task), pc(e.Read), pc(e.Write), pc(e.Sync),
				pc(e.Message), pc(e.Other), pc(e.Idle), pc(e.Downgrade), e.Total)
		}
	}
	return tw.Flush()
}
