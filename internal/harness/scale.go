package harness

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"repro"
)

// scaleSweep is the default processor sweep of the scale experiment. The
// paper stops at 16 processors (4 AlphaServer nodes); the sweep continues
// to 256 to exercise the hierarchical interconnect and the host-side
// scaling of the simulator itself.
var scaleSweep = []int{16, 64, 128, 256}

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
// -topology overrides it. The cells are timed — wall-clock time is the
// measurement, see want.timed — and the experiment fails if the two worker
// counts disagree on cycles, finish time or checksum (the bit-identity
// contract at scale). -apps selects applications from the whole registry;
// LU runs without it.
//
// With -snapshot the measurements are the scenarios benchgate compares
// across commits ("scale/<app>/p<procs>/<serial|workers>"; "serial" is one
// worker, a name that predates the single engine and is kept so snapshots
// stay comparable cell for cell); see PERFORMANCE.md.
func Scale(r *Runner, w io.Writer) error {
	counts := scaleSweep
	if r.o.Procs > 0 {
		counts = []int{r.o.Procs}
	}
	ppn, npg, err := parseTopology(r.o.Topology)
	if err != nil {
		return err
	}
	if r.snap != nil {
		fmt.Fprintf(w, "calibration: %.1fms\n", float64(r.snap.CalibrationNs)/1e6)
	}
	fmt.Fprintf(w, "host cores (GOMAXPROCS): %d\n", runtime.GOMAXPROCS(0))

	tw := newTab(w)
	fmt.Fprintln(tw, "app\tprocs\ttopology\tcycles\t1 worker\tN workers\tspeedup\tbit-identical")
	for _, name := range appsOr(r.o, "LU") {
		for _, procs := range counts {
			// The worker count is this experiment's subject, so it is set
			// on the applied cell, whatever -parallel says.
			c := r.apply(cell{name, r.o.Scale, scaleConfig(procs, ppn, npg), false})
			c.cfg.Parallel = false
			serial, err := r.exec(c, want{name: fmt.Sprintf("scale/%s/p%d/serial", name, procs), timed: true})
			if err != nil {
				return err
			}
			workers, speedup := "-", "-"
			// Workers are timed only when the process has a second core
			// to put one on — without one it is the same run.
			if runtime.GOMAXPROCS(0) > 1 {
				c.cfg.Parallel = true
				par, err := r.exec(c, want{name: fmt.Sprintf("scale/%s/p%d/workers", name, procs), timed: true})
				if err != nil {
					return err
				}
				if d := diverged(serial.RunResult, par.RunResult); d != "" {
					return fmt.Errorf("harness: scale: %s p%d: 1 and N workers diverged: %s", name, procs, d)
				}
				workers = fmt.Sprintf("%.2fs", par.wall.Seconds())
				speedup = fmt.Sprintf("%.2fx", serial.wall.Seconds()/par.wall.Seconds())
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.2fs\t%s\t%s\tyes\n",
				name, procs, topologyName(c.cfg), serial.Result.ParallelCycles,
				serial.wall.Seconds(), workers, speedup)
		}
	}
	return tw.Flush()
}
