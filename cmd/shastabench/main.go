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
// (plus the post-paper ablate, profile, pdes, sharing, races and scale
// experiments; see 'shastabench list').
//
// -procs, -topology, -snapshot and -label drive the scale experiment:
// -procs restricts the 16-256 processor sweep to one count, -topology
// overrides the node arrangement ("NxG" = N processors per SMP node, G
// nodes per uplink group; "N" alone keeps the interconnect flat), and
// -snapshot writes the measurements as a shasta-bench/v1 JSON snapshot
// named by -label for benchgate comparison. See PERFORMANCE.md for the
// benchmarking workflow.
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
// pdes experiment verifies this); the flag only affects host wall-clock
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
	procs := flag.Int("procs", 0, "scale experiment: run only this processor count (0 = full 16-256 sweep)")
	topology := flag.String("topology", "", "scale experiment: node arrangement NxG (procs per node x nodes per group; \"N\" = flat)")
	snapshot := flag.String("snapshot", "", "scale experiment: write a shasta-bench/v1 snapshot to this file")
	label := flag.String("label", "", "snapshot label (default \"local\")")
	migrateFlag := flag.Bool("migrate", false, "enable online home migration for every application run (see OBSERVABILITY.md §11)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments' runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit, after a garbage collection")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shastabench [-scale N] [-apps a,b,c] [-obsv DIR] [-parallel] [-inject-race MODE] [-cpuprofile FILE] [-memprofile FILE] [list | all | <experiment>...]\n\nexperiments:\n")
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
	}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}
	harness.SetParallel(*parFlag)
	harness.SetMigrate(*migrateFlag)
	if *obsvDir != "" {
		if err := os.MkdirAll(*obsvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "shastabench: %v\n", err)
			os.Exit(1)
		}
		harness.SetObsvDir(*obsvDir)
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

// runExperiments runs the experiments in order and returns the exit code.
func runExperiments(ids []string, opts harness.Options) int {
	for _, id := range ids {
		exp, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "shastabench: unknown experiment %q (try 'list')\n", id)
			return 2
		}
		fmt.Printf("=== %s: %s ===\n", exp.ID, exp.Title)
		start := time.Now()
		if err := exp.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "shastabench: %s: %v\n", exp.ID, err)
			return 1
		}
		fmt.Printf("(%s in %.1fs)\n\n", exp.ID, time.Since(start).Seconds())
	}
	return 0
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
