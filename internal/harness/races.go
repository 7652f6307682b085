package harness

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
)

// Races is the race-detection injection experiment: it runs the synthetic
// Racy workload (internal/apps) in every injection mode — clean, dropped
// lock, reordered publish — under Base-Shasta at 8 processors, feeds each
// run's trace to the happens-before detector, and verifies the detector's
// verdict against the known ground truth: zero races on the clean run, at
// least one on each injected one. A verdict mismatch is an experiment
// error, so CI fails loudly on detector regressions in either direction.
//
// Base-Shasta (clustering 1) is deliberate: within an SMP node, hardware
// sharing never becomes protocol events, so under clustering an injected
// access can be invisible to the trace (the soundness caveat in
// OBSERVABILITY.md).
//
// Options.InjectRace restricts the run to one mode (shastabench
// -inject-race). With -obsv, each mode emits TRACE_races_<mode>.jsonl and
// its detector report as RACES_<mode>.txt.
func Races(r *Runner, w io.Writer) error {
	modes := apps.RacyInjectModes
	if mode := r.o.InjectRace; mode != "" {
		if !slices.Contains(modes, mode) {
			return fmt.Errorf("harness: unknown -inject-race mode %q (want one of %v)", mode, modes)
		}
		modes = []string{mode}
	}
	for _, mode := range modes {
		col := &shasta.CollectorTracer{}
		run, err := r.run(cell{"Racy-" + mode, r.o.Scale, baseConfig(8), false}, want{tracer: col})
		if err != nil {
			return err
		}
		rep, err := obsv.DetectRaces(col.Events)
		if err != nil {
			return fmt.Errorf("harness: races inject=%s: detector: %w", mode, err)
		}
		if mode == "none" && len(rep.Races) != 0 {
			return fmt.Errorf("harness: races inject=none: detector reports %d races on a clean run:\n%s",
				len(rep.Races), rep.Format())
		}
		if mode != "none" && len(rep.Races) == 0 {
			return fmt.Errorf("harness: races inject=%s: detector missed the injected race:\n%s",
				mode, rep.Format())
		}
		fmt.Fprintf(w, "inject=%-15s %d events, %d cycles -> %s",
			mode, len(col.Events), run.Result.ParallelCycles, rep.Format())
		if r.o.ObsvDir == "" {
			continue
		}
		// The detector needs the trace in memory, so its file is a replay
		// through the sink — the one JSONL encoder — not a stream.
		sink, err := shasta.NewTraceSink(filepath.Join(r.o.ObsvDir, "TRACE_races_"+mode+".jsonl"), shasta.SinkOptions{})
		if err != nil {
			return err
		}
		for _, e := range col.Events {
			sink.Event(e)
		}
		if err := sink.Close(); err != nil {
			return err
		}
		if err := r.writeArtifact("RACES_"+mode+".txt", []byte(rep.Format())); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "detector verdicts match ground truth for all %d modes\n", len(modes))
	return nil
}
