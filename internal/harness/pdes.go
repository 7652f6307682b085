package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/apps"
)

// Pdes compares the simulation engine with one worker against the same
// engine with one worker per active SMP node (Config.Parallel) on the same
// workloads. Each application runs at 8 processors with clustering 4 — two
// SMP nodes, so two conflict domains can genuinely execute concurrently —
// once per setting, bypassing the run cache so both runs are actually
// executed and timed. The report shows host wall-clock time for each and
// the host speedup; virtual results never change with the worker count,
// and the experiment fails if cycles, finish time or checksum differ at
// all (the bit-identity contract, see DESIGN.md).
//
// The host speedup depends on the machine: on a single-core host both runs
// are the same run, while multi-core hosts overlap the domains and pay a
// goroutine hand-off per window for it.
func Pdes(o Options, w io.Writer) error {
	o = o.WithDefaults()
	names := appList(o, []string{"LU", "Ocean"})
	fmt.Fprintf(w, "host cores (GOMAXPROCS): %d\n", runtime.GOMAXPROCS(0))
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tcycles\t1 worker wall\tN workers wall\thost speedup\tbit-identical")
	for _, name := range names {
		f, ok := apps.Registry[name]
		if !ok {
			return fmt.Errorf("harness: unknown application %q", name)
		}
		cfg := smpConfig(8)

		start := time.Now()
		ser, err := apps.Execute(f(o.Scale), cfg, false)
		if err != nil {
			return err
		}
		serWall := time.Since(start)

		cfg.Parallel = true
		start = time.Now()
		par, err := apps.Execute(f(o.Scale), cfg, false)
		if err != nil {
			return err
		}
		parWall := time.Since(start)

		if ser.Result.FinishCycles != par.Result.FinishCycles ||
			ser.Result.ParallelCycles != par.Result.ParallelCycles ||
			ser.Checksum != par.Checksum {
			return fmt.Errorf("harness: pdes: %s diverged between 1 and N workers: "+
				"finish %d vs %d, cycles %d vs %d, checksum %v vs %v",
				name, ser.Result.FinishCycles, par.Result.FinishCycles,
				ser.Result.ParallelCycles, par.Result.ParallelCycles,
				ser.Checksum, par.Checksum)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3fs\t%.3fs\t%.2fx\tyes\n",
			name, ser.Result.ParallelCycles,
			serWall.Seconds(), parWall.Seconds(),
			serWall.Seconds()/parWall.Seconds())
	}
	return tw.Flush()
}
