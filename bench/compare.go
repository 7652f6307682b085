package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"  // worse than the bound
	verdictUnresolved = "unresolved" // spread wider than the bound, and the runs overlap
	verdictDiverged   = "diverged"   // a virtual result, checksum or exact count differs
)

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare OLD.json NEW.json")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		reps[i] = rep
	}
	if !compareReports(reps[0], reps[1], stdout) {
		return 1
	}
	return 0
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// compareReports prints one row per workload and end-to-end metric and
// reports whether NEW is acceptable: nothing regressed or diverged, and no
// larger share of operations failed.
func compareReports(old, cur *report, w io.Writer) bool {
	pass := true
	if old.Seed != cur.Seed {
		fmt.Fprintf(w, "seeds differ (%d vs %d): synth16-mix ran different inputs, so its virtual results are not comparable\n", old.Seed, cur.Seed)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tverdict")
	for _, ow := range old.Workloads {
		nw := findWorkload(cur, ow.Name)
		if nw == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tmissing from NEW\n", ow.Name)
			pass = false
			continue
		}
		exact := exactDifferences(ow, *nw)
		for _, m := range endToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			v := verdict(m, o, n)
			if m.Exact && len(exact) > 0 {
				v = verdictDiverged
			}
			if v == verdictRegressed || v == verdictDiverged {
				pass = false
			}
			change := "-"
			if o.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", (n.Value-o.Value)/o.Value*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", ow.Name, m.Name,
				formatValue(o.Value), formatValue(n.Value), change, v)
		}
		for _, d := range exact {
			fmt.Fprintf(tw, "%s\t%s\n", ow.Name, d)
		}
		of, nf := failedShare(ow), failedShare(*nw)
		fv := verdictOK
		if nf > of {
			fv, pass = verdictRegressed, false
		}
		fmt.Fprintf(tw, "%s\tfailed share\t%d/%d\t%d/%d\t-\t%s\n", ow.Name,
			ow.Failed, ow.Attempted, nw.Failed, nw.Attempted, fv)
	}
	tw.Flush()
	return pass
}

func findWorkload(rep *report, name string) *workloadReport {
	for i := range rep.Workloads {
		if rep.Workloads[i].Name == name {
			return &rep.Workloads[i]
		}
	}
	return nil
}

func failedShare(w workloadReport) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// verdict judges one host metric by the bound the benchmark fixed, and one
// virtual metric exactly.
func verdict(m metric, old, cur sample) string {
	if m.Exact {
		if old.Value != cur.Value {
			return verdictDiverged
		}
		return verdictOK
	}
	if old.Value == 0 || old.Median == 0 || cur.Median == 0 {
		return verdictUnresolved
	}
	// A spread wider than the bound hides a change of the bound's size,
	// unless every run of one side reads better than every run of the other.
	spread := math.Max(spreadOf(m, old), spreadOf(m, cur))
	overlap := old.Min <= cur.Max && cur.Min <= old.Max
	if spread > m.Bound && overlap {
		return verdictUnresolved
	}
	switch delta := (cur.Value - old.Value) / old.Value; {
	case delta > m.Bound:
		return verdictRegressed
	case delta < -m.Bound:
		return verdictImproved
	}
	return verdictOK
}

// spreadOf is how far apart the samples that decide the reported value lie,
// as a share of it: the quartile distance around a median; for a fastest-of,
// the distance from the fastest sample up to the lower quartile, since slower
// samples do not move the result.
func spreadOf(m metric, s sample) float64 {
	if m.Best {
		return (s.Q1 - s.Min) / s.Value
	}
	return (s.Q3 - s.Q1) / s.Value
}

// exactDifferences lists the checksum and every exact per-layer count that
// differs between two runs of a workload.
func exactDifferences(old, cur workloadReport) []string {
	var out []string
	if old.Checksum != cur.Checksum {
		out = append(out, fmt.Sprintf("checksum\t%v\t%v\t-\t%s", old.Checksum, cur.Checksum, verdictDiverged))
	}
	if old.PerLayer == nil || cur.PerLayer == nil {
		return out
	}
	for _, m := range perLayer {
		if o, n := old.PerLayer[m.Name], cur.PerLayer[m.Name]; m.Exact && o != n {
			out = append(out, fmt.Sprintf("%s\t%s\t%s\t-\t%s", m.Name, formatValue(o), formatValue(n), verdictDiverged))
		}
	}
	sort.Strings(out)
	return out
}
