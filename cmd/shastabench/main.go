// Command shastabench regenerates the tables and figures of "Fine-Grain
// Software Distributed Shared Memory on SMP Clusters" on the simulated
// cluster.
//
// Usage:
//
//	shastabench [-scale N] [-apps a,b,c] [-obsv DIR] [-parallel] [-inject-race MODE]
//	            [-procs N] [-topology NxG] [-snapshot FILE] [-label NAME] [-migrate]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	            [list | all | <experiment>...]
//
// Experiments: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 micro anl
// (plus the post-paper ablate, profile, sharing, races, scale, tail,
// migrate and contention experiments; see 'shastabench list').
//
// Every experiment runs to its end: a simulated run that fails prints
// "failed" in its row or ends its experiment, the remaining experiments
// still run, and the exit status is 1 with the failed cells named on
// standard error. Standard output carries only the reports, which are
// deterministic; per-experiment wall times go to standard error.
//
// -procs restricts the scale, tail and contention experiments to one
// processor count, and -topology overrides the scale experiment's node
// arrangement ("NxG" = N processors per SMP node, G nodes per uplink group;
// "N" alone keeps the interconnect flat). -snapshot records every run the
// selected experiments execute as a scenario of a shasta-bench/v1 JSON
// snapshot named by -label, for benchgate comparison. See PERFORMANCE.md
// for the benchmarking workflow.
//
// -migrate enables online home migration (see OBSERVABILITY.md §11) for
// every application run, so any experiment's tables can be regenerated
// under migration and compared against the static-home defaults; the
// dedicated migrate experiment reports the off/on contrast directly.
//
// -inject-race restricts the races experiment to one injection mode (none,
// drop-lock, reorder-publish); by default it runs all three and checks each
// detector verdict against ground truth.
//
// -cpuprofile and -memprofile profile the host side of the selected
// experiments, like the same flags of `go run ./bench`: the CPU profile
// covers the experiment runs, the heap profile is written at exit after a
// garbage collection. See PERFORMANCE.md §5.
//
// With -obsv DIR, every application run additionally emits a
// TRACE_<run>.jsonl protocol trace and a METRICS_<run>.json metrics snapshot
// into DIR; inspect them with the shastatrace command (see OBSERVABILITY.md).
//
// -parallel gives the simulation engine more than one worker: the SMP
// nodes active in a lookahead window run concurrently on a multi-core host
// instead of one after another. Results are bit-identical either way (the
// scale experiment verifies this); the flag only affects host wall-clock
// time, and is off by default because one worker is the faster setting in
// most measured cells (PERFORMANCE.md §5).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	scale := flag.Int("scale", 1, "problem size scale factor (1 = default experiment inputs)")
	appsFlag := flag.String("apps", "", "comma-separated application subset (default: the experiment's own set)")
	obsvDir := flag.String("obsv", "", "directory receiving TRACE_*.jsonl traces and METRICS_*.json metrics per run")
	parFlag := flag.Bool("parallel", false, "run the SMP nodes of a lookahead window on concurrent workers (results identical; see PERFORMANCE.md §5)")
	injectRace := flag.String("inject-race", "", "races experiment: run only this injection mode (none, drop-lock, reorder-publish)")
	procs := flag.Int("procs", 0, "scale, tail, contention: run only this processor count (0 = each experiment's own sweep)")
	topology := flag.String("topology", "", "scale experiment: node arrangement NxG (procs per node x nodes per group; \"N\" = flat)")
	snapshot := flag.String("snapshot", "", "write every executed run as a scenario of a shasta-bench/v1 snapshot to this file")
	label := flag.String("label", "", "snapshot label (default \"local\")")
	migrateFlag := flag.Bool("migrate", false, "enable online home migration for every application run (see OBSERVABILITY.md §11)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments' runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit, after a garbage collection")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shastabench [-scale N] [-apps a,b,c] [-obsv DIR] [-parallel] [-migrate] [-inject-race MODE] [-procs N] [-topology NxG] [-snapshot FILE] [-label NAME] [-cpuprofile FILE] [-memprofile FILE] [list | all | <experiment>...]\n\nexperiments:\n")
		for _, e := range harness.Experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 || (len(args) == 1 && args[0] == "list") {
		flag.Usage()
		if len(args) == 0 {
			os.Exit(2)
		}
		return
	}

	opts := harness.Options{
		Scale:        *scale,
		InjectRace:   *injectRace,
		Procs:        *procs,
		Topology:     *topology,
		SnapshotPath: *snapshot,
		BenchLabel:   *label,
		Parallel:     *parFlag,
		Migrate:      *migrateFlag,
		ObsvDir:      *obsvDir,
	}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}
	if *obsvDir != "" {
		if err := os.MkdirAll(*obsvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "shastabench: %v\n", err)
			os.Exit(1)
		}
	}

	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range harness.Experiments {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shastabench: %v\n", err)
		os.Exit(1)
	}
	code := runExperiments(ids, opts)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "shastabench: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// runExperiments runs the experiments in order, each to its end whatever
// the ones before it did, and returns the exit code: 1 if any experiment or
// cell failed, with the cells named last.
func runExperiments(ids []string, opts harness.Options) int {
	code := 0
	r := harness.NewRunner(opts)
	for _, id := range ids {
		exp, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "shastabench: unknown experiment %q (try 'list')\n", id)
			return 2
		}
		fmt.Printf("=== %s: %s ===\n", exp.ID, exp.Title)
		start := time.Now()
		if err := exp.Run(r, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "shastabench: %s: %v\n", exp.ID, err)
			code = 1
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", exp.ID, time.Since(start).Seconds())
	}
	if err := r.Finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "shastabench: %v\n", err)
		code = 1
	}
	return code
}

// startProfiles starts the CPU profile, if one is asked for, and returns the
// function that ends it and writes the heap profile. Both files are created
// here, so an unwritable path is reported before the experiments run rather
// than after them.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // the profile reports the live heap as of the last collection
		if err := pprof.WriteHeapProfile(mem); err != nil {
			return err
		}
		return mem.Close()
	}, nil
}
