package harness

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/apps"
)

// scaleSweep is the default processor sweep of the scale experiment. The
// paper stops at 16 processors (4 AlphaServer nodes); the sweep continues
// to 256 to exercise the hierarchical interconnect and the host-side
// scaling of the simulator itself.
var scaleSweep = []int{16, 64, 128, 256}

// scaleSchedulers returns the engine configurations the experiment times,
// in report order: "serial" is one worker (the name predates the single
// engine and is kept so snapshots stay comparable cell for cell), "workers"
// is Config.Parallel, timed only when the process has a second core to put
// a worker on — without one it is the same run. Both must produce
// bit-identical virtual results.
func scaleSchedulers() []string {
	if runtime.GOMAXPROCS(0) > 1 {
		return []string{"serial", "workers"}
	}
	return []string{"serial"}
}

// scaleConfig builds the cluster configuration for one processor count.
// ppn/npg override processors-per-node and nodes-per-group when non-zero
// (npg < 0 forces a flat topology). By default nodes are the paper's
// 4-processor SMPs, clustering is the paper's SMP-Shasta choice, and at 64
// processors and above the interconnect becomes hierarchical with 4 nodes
// per uplink group.
func scaleConfig(procs, ppn, npg int) shasta.Config {
	cfg := shasta.Config{Procs: procs, Clustering: 4}
	if procs < 4 {
		cfg.Clustering = procs
	}
	if ppn > 0 {
		cfg.ProcsPerNode = ppn
		if ppn < cfg.Clustering {
			// Sharing groups cannot span nodes; a topology override
			// with small nodes caps the clustering with it.
			cfg.Clustering = ppn
		}
	}
	switch {
	case npg > 0:
		cfg.NodesPerGroup = npg
	case npg == 0 && procs >= 64:
		cfg.NodesPerGroup = 4
	}
	return cfg
}

// parseTopology parses a "NxG" topology spec: N processors per SMP node,
// G nodes per uplink group ("4x4"); the "xG" part is optional and omitting
// it ("8") selects a flat interconnect of N-processor nodes. Empty input
// selects the experiment's per-processor-count defaults (npg 0); "Nx1" is
// an explicit flat topology (npg -1, overriding the defaults).
func parseTopology(spec string) (ppn, npg int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	parts := strings.Split(spec, "x")
	if len(parts) > 2 {
		return 0, 0, fmt.Errorf("harness: topology %q: want \"N\" or \"NxG\"", spec)
	}
	if ppn, err = strconv.Atoi(parts[0]); err != nil || ppn < 1 {
		return 0, 0, fmt.Errorf("harness: topology %q: bad processors-per-node", spec)
	}
	npg = -1
	if len(parts) == 2 {
		g, err := strconv.Atoi(parts[1])
		if err != nil || g < 1 {
			return 0, 0, fmt.Errorf("harness: topology %q: bad nodes-per-group", spec)
		}
		if g > 1 {
			npg = g
		}
	}
	return ppn, npg, nil
}

// topologyName renders a configuration's node arrangement for the report.
func topologyName(cfg shasta.Config) string {
	ppn := cfg.ProcsPerNode
	if ppn == 0 {
		ppn = 4
	}
	nodes := (cfg.Procs + ppn - 1) / ppn
	if cfg.NodesPerGroup > 1 && nodes > cfg.NodesPerGroup {
		return fmt.Sprintf("%dn x %dg", cfg.NodesPerGroup, nodes/cfg.NodesPerGroup)
	}
	return fmt.Sprintf("%dn flat", nodes)
}

// Scale sweeps the simulator from 16 to 256 processors and times each run
// with one engine worker and, on a multi-core host, with one worker per
// active SMP node. At 64 processors and above the interconnect is
// hierarchical (4-processor nodes, 4 nodes per uplink group) unless
// -topology overrides it. Every run bypasses the harness cache — wall-clock
// time is the measurement — and the experiment fails if any run's cycles,
// finish time or checksum deviate (the bit-identity contract at scale).
//
// With Options.SnapshotPath set, the measurements are also written as a
// shasta-bench/v1 snapshot for benchgate comparison; see PERFORMANCE.md.
func Scale(o Options, w io.Writer) error {
	o = o.WithDefaults()
	names := appList(o, []string{"LU"})
	counts := scaleSweep
	if o.Procs > 0 {
		counts = []int{o.Procs}
	}
	ppn, npg, err := parseTopology(o.Topology)
	if err != nil {
		return err
	}

	rec := newSnapshotRecorder(o)
	if rec != nil {
		fmt.Fprintf(w, "calibration: %.1fms\n", float64(rec.snap.CalibrationNs)/1e6)
	}
	fmt.Fprintf(w, "host cores (GOMAXPROCS): %d\n", runtime.GOMAXPROCS(0))

	scheds := scaleSchedulers()
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tprocs\ttopology\tcycles\t1 worker\tN workers\tspeedup\tbit-identical")
	for _, name := range names {
		f, ok := apps.Registry[name]
		if !ok {
			return fmt.Errorf("harness: unknown application %q", name)
		}
		for _, procs := range counts {
			cfg := scaleConfig(procs, ppn, npg)
			walls := map[string]time.Duration{}
			var ref apps.RunResult
			for i, sched := range scheds {
				runCfg := cfg
				runCfg.Parallel = sched == "workers"
				// Best of two executions: the minimum wall time is the
				// least noise-inflated estimate, and host noise is what
				// the 10% regression gate must see through. Identity is
				// checked on every execution, not just the fast one.
				var r apps.RunResult
				for rep := 0; rep < 2; rep++ {
					start := time.Now()
					rr, err := apps.Execute(f(o.Scale), runCfg, false)
					if err != nil {
						return fmt.Errorf("harness: scale: %s p%d %s: %w", name, procs, sched, err)
					}
					wall := time.Since(start)
					if rep == 0 || wall < walls[sched] {
						walls[sched] = wall
					}
					r = rr
					if i == 0 && rep == 0 {
						ref = rr
					} else if rr.Result.FinishCycles != ref.Result.FinishCycles ||
						rr.Result.ParallelCycles != ref.Result.ParallelCycles ||
						rr.Checksum != ref.Checksum {
						return fmt.Errorf("harness: scale: %s p%d: %s run diverged from the first %s run: "+
							"finish %d vs %d, cycles %d vs %d, checksum %v vs %v",
							name, procs, sched, scheds[0],
							rr.Result.FinishCycles, ref.Result.FinishCycles,
							rr.Result.ParallelCycles, ref.Result.ParallelCycles,
							rr.Checksum, ref.Checksum)
					}
				}
				rec.add(fmt.Sprintf("scale/%s/p%d/%s", name, procs, sched), name, sched, runCfg, walls[sched], r)
			}
			workers, speedup := "-", "-"
			if wall, ok := walls["workers"]; ok {
				workers = fmt.Sprintf("%.2fs", wall.Seconds())
				speedup = fmt.Sprintf("%.2fx", walls["serial"].Seconds()/wall.Seconds())
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.2fs\t%s\t%s\tyes\n",
				name, procs, topologyName(cfg), ref.Result.ParallelCycles,
				walls["serial"].Seconds(), workers, speedup)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return rec.write("scale", w)
}
