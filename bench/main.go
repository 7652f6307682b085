// Command bench is the repository's cost-ledger benchmark: six named
// workloads, host and virtual end-to-end metrics, and per-layer probes
// measured from outside the simulator. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench                         all workloads: timed pass, traced pass, probes
//	go run ./bench -workload lu16-serial   one workload (comma-separated list)
//	go run ./bench -list                   every workload and metric name
//	go run ./bench compare OLD.json NEW.json
//
// The benchmark driver runs one workload at a time as
// `--workload NAME --seed N --seconds S --trace 0|1` and reads the JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloads := fs.String("workload", "", "comma-separated workload names (default: all six)")
	seed := fs.Uint64("seed", 1, "seed of synth16-mix and of the probe fixtures' address streams")
	seconds := fs.Float64("seconds", 0, "time each workload's reps for this long instead of its fixed rep count")
	trace := fs.Int("trace", -1, "driver mode, one workload: 0 prints the end-to-end metrics as a JSON last line, 1 the per-layer metrics")
	out := fs.String("out", "", "write the full report (the input of `compare`) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the timed passes to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file after the timed passes")
	list := fs.Bool("list", false, "print every workload and metric name with unit and direction")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	o := options{
		sz: fullSize, seed: *seed, seconds: *seconds, traced: *trace != 0,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
		spansPath: "bench/out/spans.json", log: stderr,
	}
	if *workloads != "" {
		o.workloads = strings.Split(*workloads, ",")
	}
	if *trace >= 0 && len(o.workloads) != 1 {
		fmt.Fprintln(stderr, "bench: -trace prints one workload's metrics; select it with -workload")
		return 2
	}

	rep, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.print(stdout)
	if o.traced {
		fmt.Fprintf(stdout, "spans written to %s\n", o.spansPath)
	}
	fmt.Fprintf(stdout, "total %.1f s\n", rep.TotalSeconds)
	if *out != "" {
		if err := rep.writeFile(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *trace >= 0 {
		if err := printDriverLine(stdout, rep.Workloads[0], *trace == 1); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if rep.failed() {
		return 1
	}
	return 0
}

func (rep *report) writeFile(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printDriverLine writes the one JSON object the benchmark driver reads: the
// end-to-end metrics of the timed pass, or the per-layer metrics of the
// traced pass.
func printDriverLine(w io.Writer, wr workloadReport, layers bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if layers {
		for _, m := range perLayer {
			metrics[m.Name] = value{wr.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{wr.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printList prints the names that are the benchmark's contract.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range catalogue(fullSize) {
		fmt.Fprintf(w, "  %-22s %d timed reps, GOMAXPROCS %d: %s\n", wl.name, wl.reps, workloadProcs, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (per workload, timed pass):")
	for _, m := range endToEnd {
		bound := "exact"
		if !m.Exact {
			bound = fmt.Sprintf("+%.0f%%", m.Bound*100)
		}
		fmt.Fprintf(w, "  %-34s %-8s %-7s %s is better, bound %s\n", m.Name, m.Unit, m.Kind, m.Better, bound)
	}
	fmt.Fprintln(w, "  ops_attempted, ops_failed          count")
	fmt.Fprintln(w, "per-layer metrics (traced pass and probes):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-8s %-7s %s is better -> %s\n", m.Name, m.Unit, m.Kind, m.Better, m.Moves)
	}
}
