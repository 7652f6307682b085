package harness

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/apps"
)

// Table1 reproduces Table 1: the sequential running time of every
// application and the single-processor slowdown caused by Base-Shasta and
// SMP-Shasta inline miss checks. The paper measures 14.7% average for Base
// and 24.0% for SMP, with Raytrace and the two Waters most affected by the
// costlier SMP floating-point and batch checks.
func Table1(r *Runner, w io.Writer) error {
	scale := r.o.Scale
	names := appList(r.o, apps.Names)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tproblem size\tsequential\twith Base checks\twith SMP checks")
	var baseSum, smpSum float64
	for _, name := range names {
		cy, err := r.cycles(
			cell{name, scale, seqConfig(), false},
			cell{name, scale, shasta.Config{Procs: 1}, false},
			cell{name, scale, shasta.Config{Procs: 1, ForceSMPChecks: true}, false})
		if err != nil {
			return err
		}
		seq, base, smp := cy[0], cy[1], cy[2]
		bOver := float64(base)/float64(seq) - 1
		sOver := float64(smp)/float64(seq) - 1
		baseSum += bOver
		smpSum += sOver
		prob := apps.Registry[name](scale).ProblemSize()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s (%s)\t%s (%s)\n",
			name, prob, secs(seq), secs(base), pct(bOver), secs(smp), pct(sOver))
	}
	fmt.Fprintf(tw, "average\t\t\t%s\t%s\n",
		pct(baseSum/float64(len(names))), pct(smpSum/float64(len(names))))
	return tw.Flush()
}

// table2Entries describes the per-structure granularity hints of Table 2.
var table2Entries = []struct {
	App       string
	Structure string
	BlockSize int
}{
	{"Barnes", "cell, leaf arrays", 512},
	{"FMM", "box array", 256},
	{"LU", "matrix array", 128},
	{"LU-Contig", "matrix block", 2048},
	{"Volrend", "opacity, normal maps", 1024},
	{"Water-Nsq", "molecule array", 2048},
}

// table2Apps lists Table 2's applications in order.
func table2Apps() []string {
	out := make([]string, len(table2Entries))
	for i, e := range table2Entries {
		out[i] = e.App
	}
	return out
}

// Table2 reproduces Table 2: for the six applications whose key structures
// get larger coherence blocks, the 16-processor Base-Shasta speedup with
// the default 64-byte blocks versus the specified granularity. Variable
// granularity must improve every application's speedup. A cell that fails
// prints "failed" in its column and is the error returned once every row is
// out.
func Table2(r *Runner, w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tselected structure(s)\tblock size\t16p speedup (64B)\t16p speedup (specified)")
	var failed error
	for _, e := range table2Entries {
		if !selected(r.o, e.App) {
			continue
		}
		cy, err := r.cycles(
			cell{e.App, r.o.Scale, seqConfig(), false},
			cell{e.App, r.o.Scale, baseConfig(16), false},
			cell{e.App, r.o.Scale, baseConfig(16), true})
		if failed == nil {
			failed = err
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\n", e.App, e.Structure, e.BlockSize,
			speedupCol(cy[0], cy[1]), speedupCol(cy[0], cy[2]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return failed
}

// speedupCol formats sequential/parallel to two places, or "failed" when
// either run did not complete (0 cycles, see Runner.cycles).
func speedupCol(seq, par int64) string {
	if seq == 0 || par == 0 {
		return "failed"
	}
	return fmt.Sprintf("%.2f", speedup(seq, par))
}

// table3Apps are the seven applications of Table 3.
var table3Apps = []string{"Barnes", "FMM", "LU", "LU-Contig", "Ocean", "Water-Nsq", "Water-Sp"}

// Table3 reproduces Table 3: larger problem sizes (double the default
// scale), with sequential times, checking overheads, and 16-processor
// speedups for Base-Shasta and SMP-Shasta with clustering 4. Speedups must
// improve over the smaller problems of Table 2 / Figure 3, and SMP-Shasta
// should still win for most applications.
func Table3(r *Runner, w io.Writer) error {
	scale := r.o.Scale * 2
	names := appList(r.o, table3Apps)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tproblem size\tsequential\tbase ovh\tsmp ovh\t16p speedup base\t16p speedup smp")
	for _, name := range names {
		cy, err := r.cycles(
			cell{name, scale, seqConfig(), false},
			cell{name, scale, shasta.Config{Procs: 1}, false},
			cell{name, scale, shasta.Config{Procs: 1, ForceSMPChecks: true}, false},
			cell{name, scale, baseConfig(16), false},
			cell{name, scale, smpConfig(16), false})
		if err != nil {
			return err
		}
		seq := cy[0]
		prob := apps.Registry[name](scale).ProblemSize()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.2f\t%.2f\n",
			name, prob, secs(seq),
			pct(float64(cy[1])/float64(seq)-1), pct(float64(cy[2])/float64(seq)-1),
			speedup(seq, cy[3]), speedup(seq, cy[4]))
	}
	return tw.Flush()
}
