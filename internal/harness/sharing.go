package harness

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/obsv"
	"repro/internal/stats"
)

// sharingLineSizes are the two coherence granularities the sharing
// experiment contrasts: the paper's default 64-byte line against 256-byte
// lines, the size at which it reports false sharing hurting LU, Ocean and
// Volrend.
var sharingLineSizes = [2]int{64, 256}

// Sharing runs each selected application at two line sizes under SMP-Shasta
// at 8 processors and prints the sharing observatory's diagnosis of the
// coarse-grained run next to the measured execution-time delta: the pattern
// census, the falsely-shared block evidence, and the placement advisor's
// recommendations. A correct diagnosis attributes the coarse-line slowdown
// to blocks the observatory flags, without re-running the application.
//
// When observability emission is enabled (shastabench -obsv), each run's
// metrics snapshot is written as METRICS_sharing_<app>_l<linesize>.json.
func Sharing(r *Runner, w io.Writer) error {
	for _, name := range appsOr(r.o, "LU") {
		var cycles [2]int64
		var coarse *shasta.Metrics
		for i, ls := range sharingLineSizes {
			cfg := smpConfig(8)
			cfg.LineSize = ls
			run, err := r.run(cell{name, r.o.Scale, cfg, false},
				want{name: fmt.Sprintf("sharing/%s/l%d", name, ls), metrics: true})
			if err != nil {
				return err
			}
			cycles[i] = run.Metrics.Cycles
			coarse = run.Metrics
		}
		delta := 0.0
		if cycles[0] > 0 {
			delta = 100 * float64(cycles[1]-cycles[0]) / float64(cycles[0])
		}
		fmt.Fprintf(w, "%s @8p C4: %dB lines %d cycles, %dB lines %d cycles (measured delta %+.1f%%)\n",
			name, sharingLineSizes[0], cycles[0], sharingLineSizes[1], cycles[1], delta)

		census := map[string]int64{}
		falselyShared := 0
		for i := range coarse.Blocks {
			census[coarse.Blocks[i].Pattern]++
			if coarse.Blocks[i].Pattern == obsv.PatternFalselyShared {
				falselyShared++
			}
		}
		fmt.Fprintf(w, "observatory @%dB: %d active blocks (%d recorded)", sharingLineSizes[1],
			coarse.BlocksTotal, len(coarse.Blocks))
		for _, p := range stats.SortedKeys(census) {
			fmt.Fprintf(w, "; %s %d", p, census[p])
		}
		fmt.Fprintln(w)
		// Reports show the hottest few blocks; shastatrace falseshare and
		// advise on the emitted METRICS_sharing_*.json files give the rest.
		trimmed := *coarse
		if len(trimmed.Blocks) > 12 {
			trimmed.Blocks = trimmed.Blocks[:12]
			fmt.Fprintf(w, "(reports below cover the 12 hottest of %d recorded blocks)\n", len(coarse.Blocks))
		}
		if falselyShared > 0 {
			fmt.Fprint(w, obsv.FormatFalseShare(&trimmed))
		}
		fmt.Fprint(w, obsv.FormatAdvice(&trimmed))
	}
	return nil
}
