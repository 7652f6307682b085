// Command shastatrace inspects the JSONL traces and metrics snapshots
// emitted by the observability layer (see OBSERVABILITY.md for the formats).
//
// Usage:
//
//	shastatrace <command> [flags] <file>...
//
// `shastatrace help` lists the commands, generated from the one table in
// this file that also drives dispatch and operand checking.
//
// Multiple trace files are read in order and concatenated, so rotated
// segments (trace.jsonl trace.1.jsonl ...) can be passed together.
// breakdown and hist accept either document kind: a metrics snapshot gives
// the exact cycle attribution, a bare trace a trace-derived approximation.
// All analysis output is deterministic: two runs of the same program and
// configuration summarize, profile and export byte-identically.
//
// Exit status: 0 on success; 1 when an analysis found a difference or a
// violation (diff on unequal traces, check on a bad trace, races on a racy
// trace); 2 on usage, I/O or schema errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obsv"
	"repro/internal/protocol"
)

// inputKind says which files a command reads; the dispatcher checks the
// operand count, reads them and hands the command the parsed documents.
type inputKind int

const (
	traces  inputKind = iota // one or more trace segments, concatenated in order
	pair                     // exactly two trace files, read separately
	either                   // one metrics document, or one or more trace segments
	metrics                  // exactly one metrics document with a blocks section
)

// input is a command's parsed operands.
type input struct {
	lead   []string              // the operands before the files (timeline's block)
	events []protocol.TraceEvent // traces, the first of a pair, or either given traces
	second []protocol.TraceEvent // the second file of a pair
	snap   *obsv.Snapshot        // metrics, or either given a metrics document
}

// options holds every command's flag values; each command registers its own.
type options struct {
	procs, ops, blocks      string
	sample, top, windows, n int
}

// command is one row of the command table, which drives dispatch, operand
// checking and the usage text.
type command struct {
	name    string
	args    string // flags and leading operands as the usage line shows them
	lead    int    // operands before the files
	summary string // usage description, continuation lines after "\n"
	input   inputKind
	flags   func(fs *flag.FlagSet, o *options)
	run     func(in input, o *options, stdout io.Writer) (int, error)
}

// show adapts an analysis that renders a report and cannot fail.
func show(report func(in input, o *options) string) func(input, *options, io.Writer) (int, error) {
	return func(in input, o *options, stdout io.Writer) (int, error) {
		fmt.Fprint(stdout, report(in, o))
		return 0, nil
	}
}

func topFlag(usage string) func(*flag.FlagSet, *options) {
	return func(fs *flag.FlagSet, o *options) { fs.IntVar(&o.top, "top", 5, usage) }
}

var commands = []command{
	{name: "summarize", input: traces,
		summary: "per-op and per-processor event counts and spans",
		run:     show(func(in input, _ *options) string { return obsv.Summarize(in.events).Format() })},
	{name: "filter", args: "[flags]", input: traces,
		summary: "select events by -p procs, -op ops, -blk ranges,\n-sample 1-in-N; emits a filtered trace",
		flags: func(fs *flag.FlagSet, o *options) {
			fs.StringVar(&o.procs, "p", "", "comma-separated processor IDs to keep")
			fs.StringVar(&o.ops, "op", "", "comma-separated event kinds to keep (see protocol.TraceOps)")
			fs.StringVar(&o.blocks, "blk", "", "comma-separated block base lines or lo-hi ranges to keep")
			fs.IntVar(&o.sample, "sample", 0, "keep every Nth matching event")
		},
		run: runFilter},
	{name: "timeline", args: "<block>", lead: 1, input: traces,
		summary: "one block's protocol history, in order",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			block, err := strconv.Atoi(in.lead[0])
			if err != nil {
				return 2, usageError{fmt.Sprintf("bad block %q: %v", in.lead[0], err)}
			}
			fmt.Fprint(stdout, obsv.Timeline(in.events, block))
			return 0, nil
		}},
	{name: "diff", input: pair,
		summary: "compare two trace summaries",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			d, equal := obsv.Diff(obsv.Summarize(in.events), obsv.Summarize(in.second))
			if equal {
				fmt.Fprintln(stdout, "traces summarize identically")
				return 0, nil
			}
			fmt.Fprint(stdout, d)
			return 1, nil
		}},
	{name: "critpath", input: traces,
		summary: "longest causal chain through the run",
		run: show(func(in input, _ *options) string {
			c := obsv.BuildCausal(in.events)
			return c.CriticalPath().Format(c)
		})},
	{name: "spans", args: "[-top K]", input: traces,
		summary: "per-request stage waterfalls: tail percentiles\nby kind/hops/route/home/block, per-stage cycle\nshares, tail composition, K slowest requests",
		flags:   topFlag("number of slowest requests to show with waterfalls (0 = none)"),
		run:     show(func(in input, o *options) string { return obsv.FormatSpans(obsv.BuildSpans(in.events), o.top) })},
	{name: "phases", args: "[-w N]", input: traces,
		summary: "windowed time-series of span stage totals\nover virtual time (N windows)",
		flags: func(fs *flag.FlagSet, o *options) {
			fs.IntVar(&o.windows, "w", 8, "number of equal virtual-time windows")
		},
		run: show(func(in input, o *options) string { return obsv.FormatPhases(obsv.BuildSpans(in.events), o.windows) })},
	{name: "export-chrome", input: traces,
		summary: "chrome://tracing JSON of the trace, spans as\nasync stage slices",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			if err := obsv.ExportChrome(in.events, stdout); err != nil {
				return 2, err
			}
			return 0, nil
		}},
	{name: "check", input: traces,
		summary: "replay the trace through the invariant checker",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			c := obsv.CheckTrace(in.events)
			fmt.Fprint(stdout, c.Report())
			if len(c.Violations()) > 0 {
				return 1, nil
			}
			return 0, nil
		}},
	// A gapped (filtered or sampled) trace is a schema error for races — the
	// detector needs the complete event stream — so it exits 2, never a
	// spurious "race-free".
	{name: "races", input: traces,
		summary: "happens-before data-race detection over the\ntrace's accesses and synchronization edges",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			rep, err := obsv.DetectRaces(in.events)
			if err != nil {
				return 2, err
			}
			fmt.Fprint(stdout, rep.Format())
			if len(rep.Races) > 0 {
				return 1, nil
			}
			return 0, nil
		}},
	{name: "migrations", input: traces,
		summary: "online home-migration activity: hand-off and\nforward totals, per-block home chains",
		run:     show(func(in input, _ *options) string { return obsv.MigrationReport(in.events) })},
	// Gapped or pre-extension traces degrade into dropped-lifecycle
	// accounting (see OBSERVABILITY.md §12), so sync and skew always exit 0
	// on a readable trace.
	{name: "sync", args: "[-top K]", input: traces,
		summary: "per-lock/barrier contention: wait and hold\ndistributions, top-K contended locks with\nhand-off chains, wait-for summary,\ncritical-path share per primitive",
		flags:   topFlag("number of most contended locks to show with hand-off chains (0 = none)"),
		run:     show(func(in input, o *options) string { return obsv.FormatSync(obsv.BuildSync(in.events), o.top) })},
	{name: "skew", input: traces,
		summary: "per-generation barrier arrival and departure\nskew with straggler attribution",
		run:     show(func(in input, _ *options) string { return obsv.FormatSkew(obsv.BuildSync(in.events)) })},

	// Exact per-processor cycle attribution from a metrics snapshot, or an
	// approximate activity view from a bare trace.
	{name: "breakdown", input: either,
		summary: "per-processor execution-time profile",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			if in.snap == nil {
				fmt.Fprint(stdout, obsv.TraceBreakdown(in.events))
			} else if len(in.snap.Breakdown) == 0 {
				return 2, fmt.Errorf("metrics document has no breakdown section (pre-profiler snapshot?)")
			} else {
				fmt.Fprint(stdout, obsv.FormatBreakdown(in.snap))
			}
			return 0, nil
		}},
	// The exact kind-and-distance histograms of a metrics snapshot, or
	// miss-to-install latencies recovered from a bare trace.
	{name: "hist", input: either,
		summary: "miss round-trip latency histograms",
		run: func(in input, _ *options, stdout io.Writer) (int, error) {
			if in.snap != nil {
				if len(in.snap.Histograms) == 0 {
					return 2, fmt.Errorf("metrics document has no histograms section (pre-profiler snapshot?)")
				}
				fmt.Fprint(stdout, obsv.FormatHistograms(in.snap.Histograms))
				return 0, nil
			}
			hists, unmatched := obsv.TraceHistograms(in.events)
			fmt.Fprint(stdout, obsv.FormatHistograms(hists))
			if unmatched > 0 {
				fmt.Fprintf(stdout, "note: %d misses never installed (merged requests or truncated trace)\n", unmatched)
			}
			return 0, nil
		}},

	{name: "blocks", args: "[-n N]", input: metrics,
		summary: "top-N hot blocks with sharing-pattern labels",
		flags: func(fs *flag.FlagSet, o *options) {
			fs.IntVar(&o.n, "n", 20, "number of blocks to show (0 = all recorded)")
		},
		run: show(func(in input, o *options) string { return obsv.FormatBlocks(in.snap, o.n) })},
	{name: "falseshare", input: metrics,
		summary: "per-writer sub-block offset evidence for\nfalsely-shared blocks",
		run:     show(func(in input, _ *options) string { return obsv.FormatFalseShare(in.snap) })},
	{name: "advise", input: metrics,
		summary: "home-placement and block-size recommendations\nwith estimated cycle savings",
		run:     show(func(in input, _ *options) string { return obsv.FormatAdvice(in.snap) })},
}

// The usage text's sections, by input kind, and how each kind's files read
// on a usage line.
var usageSections = []struct {
	title string
	kinds []inputKind
}{
	{"trace analysis (one or more trace.jsonl segments, concatenated in order)", []inputKind{traces, pair}},
	{"profiles (metrics.json exact, or approximated from a bare trace)", []inputKind{either}},
	{"sharing observatory (metrics.json only)", []inputKind{metrics}},
}

var fileSynopsis = [...]string{
	traces: "<trace.jsonl>...", pair: "<a.jsonl> <b.jsonl>", either: "<file>...", metrics: "<metrics.json>",
}

// usageText renders the command table.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: shastatrace <command> [args]\n")
	for _, sec := range usageSections {
		fmt.Fprintf(&b, "\n%s:\n", sec.title)
		for _, c := range commands {
			if !slices.Contains(sec.kinds, c.input) {
				continue
			}
			synopsis := strings.Join(strings.Fields(c.name+" "+c.args+" "+fileSynopsis[c.input]), " ")
			if len(synopsis) >= 32 {
				synopsis += "  " // too long for the column: keep a gap
			}
			for i, line := range strings.Split(c.summary, "\n") {
				if i > 0 {
					synopsis = ""
				}
				fmt.Fprintf(&b, "  %-32s%s\n", synopsis, line)
			}
		}
	}
	b.WriteString(`
exit status:
  0  success
  1  analysis found a difference or a violation (diff, check, races)
  2  usage, I/O or schema error
`)
	return b.String()
}

// usageError aborts a subcommand with exit status 2; any other error also
// maps to 2 (I/O and schema problems). Analyses that complete but find a
// difference or violation return exit status 1 from their cmd function.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// readTraces reads and concatenates the events of all listed trace files.
func readTraces(paths []string) ([]protocol.TraceEvent, error) {
	var all []protocol.TraceEvent
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, events, err := obsv.ReadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if all == nil {
			all = events // the first file's events are not copied
		} else {
			all = append(all, events...)
		}
	}
	return all, nil
}

// readDoc opens a file of either observability format, told apart by the
// schema field of its first JSON value (the header line of a JSONL trace,
// or the whole object of a metrics document): exactly one of the snapshot
// and the events is returned.
func readDoc(path string) (*obsv.Snapshot, []protocol.TraceEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	var snap *obsv.Snapshot
	var events []protocol.TraceEvent
	if err = json.NewDecoder(bytes.NewReader(b)).Decode(&head); err == nil {
		switch head.Schema {
		case obsv.MetricsSchema:
			snap, err = obsv.ReadSnapshot(bytes.NewReader(b))
		case obsv.TraceSchema:
			_, events, err = obsv.ReadTrace(bytes.NewReader(b))
		default:
			err = fmt.Errorf("schema %q is neither %s nor %s", head.Schema, obsv.MetricsSchema, obsv.TraceSchema)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, events, nil
}

func parseIntSet(s string) (map[int]bool, error) {
	if s == "" {
		return nil, nil
	}
	set := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, usageError{fmt.Sprintf("bad processor list %q: %v", s, err)}
		}
		set[n] = true
	}
	return set, nil
}

func parseOpSet(s string) map[string]bool {
	if s == "" {
		return nil
	}
	set := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		set[strings.TrimSpace(part)] = true
	}
	return set
}

func parseRanges(s string) ([]obsv.BlockRange, error) {
	if s == "" {
		return nil, nil
	}
	var ranges []obsv.BlockRange
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, found := strings.Cut(part, "-")
		r := obsv.BlockRange{}
		var err error
		if r.Lo, err = strconv.Atoi(lo); err != nil {
			return nil, usageError{fmt.Sprintf("bad block range %q: %v", part, err)}
		}
		if found {
			if r.Hi, err = strconv.Atoi(hi); err != nil {
				return nil, usageError{fmt.Sprintf("bad block range %q: %v", part, err)}
			}
		} else {
			r.Hi = r.Lo
		}
		ranges = append(ranges, r)
	}
	return ranges, nil
}

func runFilter(in input, o *options, stdout io.Writer) (int, error) {
	procSet, err := parseIntSet(o.procs)
	if err != nil {
		return 2, err
	}
	ranges, err := parseRanges(o.blocks)
	if err != nil {
		return 2, err
	}
	var werr error
	f := &obsv.Filter{
		Next: protocol.TracerFunc(func(e protocol.TraceEvent) {
			if err := obsv.WriteEvent(stdout, e); err != nil && werr == nil {
				werr = err
			}
		}),
		Procs:  procSet,
		Ops:    parseOpSet(o.ops),
		Blocks: ranges,
		Sample: o.sample,
	}
	if err := obsv.WriteHeader(stdout); err != nil {
		return 2, err
	}
	for _, e := range in.events {
		f.Event(e)
	}
	if werr != nil {
		return 2, werr
	}
	return 0, nil
}

// gatherDocs reads the argument files for breakdown/hist: either a single
// metrics snapshot, or one or more trace segments concatenated.
func gatherDocs(args []string) (*obsv.Snapshot, []protocol.TraceEvent, error) {
	snap, events, err := readDoc(args[0])
	if err != nil || len(args) == 1 {
		return snap, events, err
	}
	if snap != nil {
		return nil, nil, usageError{"a metrics document cannot be concatenated with other files"}
	}
	rest, err := readTraces(args[1:])
	return nil, append(events, rest...), err
}

// metricsDoc reads the single metrics document the observatory subcommands
// operate on, requiring a non-empty blocks section.
func metricsDoc(cmd string, args []string) (*obsv.Snapshot, error) {
	if len(args) != 1 {
		return nil, usageError{cmd + " needs exactly one metrics file"}
	}
	snap, _, err := readDoc(args[0])
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, usageError{cmd + " needs a metrics document, not a trace"}
	}
	if len(snap.Blocks) == 0 {
		return nil, fmt.Errorf("metrics document has no blocks section (pre-observatory snapshot, or a run with no attributed block activity)")
	}
	return snap, nil
}

// readInput checks a command's operands against its input kind and reads
// the files they name.
func readInput(c *command, args []string) (in input, err error) {
	files := args[min(c.lead, len(args)):]
	in.lead = args[:len(args)-len(files)]
	switch c.input {
	case traces:
		if len(files) == 0 {
			need := "at least one trace file"
			if c.lead > 0 {
				need = c.args + " and " + need
			}
			return in, usageError{c.name + " needs " + need}
		}
		in.events, err = readTraces(files)
	case pair:
		if len(files) != 2 {
			return in, usageError{c.name + " needs exactly two trace files"}
		}
		if in.events, err = readTraces(files[:1]); err == nil {
			in.second, err = readTraces(files[1:])
		}
	case either:
		if len(files) == 0 {
			return in, usageError{c.name + " needs a metrics or trace file"}
		}
		in.snap, in.events, err = gatherDocs(files)
	case metrics:
		in.snap, err = metricsDoc(c.name, files)
	}
	return in, err
}

// run dispatches a full command line (without the program name) and returns
// the process exit status, writing all output to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprint(stderr, usageText())
		return 2
	}
	if name := args[0]; name == "-h" || name == "--help" || name == "help" {
		fmt.Fprint(stdout, usageText())
		return 0
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == args[0] })
	if i < 0 {
		fmt.Fprint(stderr, usageText())
		return 2
	}
	code, err := commands[i].exec(args[1:], stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "shastatrace: %v\n", err)
		if _, isUsage := err.(usageError); isUsage {
			fmt.Fprint(stderr, usageText())
		}
	}
	return code
}

// exec runs one command: flags, operand check, file reading, analysis. Every
// failure before the analysis is exit status 2.
func (c *command) exec(args []string, stdout, stderr io.Writer) (int, error) {
	var o options
	if c.flags != nil {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		c.flags(fs, &o)
		if err := fs.Parse(args); err != nil {
			return 2, usageError{err.Error()}
		}
		args = fs.Args()
	}
	in, err := readInput(c, args)
	if err != nil {
		return 2, err
	}
	return c.run(in, &o, stdout)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
