package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// BenchSchema identifies the benchmark snapshot format. Bump the suffix on
// any incompatible change; benchgate refuses to compare snapshots whose
// schemas differ. PERFORMANCE.md documents the format.
const BenchSchema = "shasta-bench/v1"

// BenchSnapshot is one benchmark session: host metadata, a calibration
// measurement, and the timed scenarios. Snapshots are committed as
// BENCH_<label>.json at the repository root and compared across commits
// with benchgate (wall-clock ratios are normalized by the calibration
// constant, so comparisons across differently-fast hosts stay meaningful).
type BenchSnapshot struct {
	Schema string `json:"schema"`
	// Label names the snapshot, conventionally the PR it belongs to
	// ("pr22" for BENCH_pr22.json).
	Label   string `json:"label"`
	Created string `json:"created"` // RFC 3339
	// Host metadata, recorded for the reader; not used in comparisons.
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibrationNs is the wall time of a fixed single-core arithmetic
	// loop on this host (see calibrate). Scenario wall times are divided
	// by it before cross-snapshot comparison.
	CalibrationNs int64           `json:"calibration_ns"`
	Scenarios     []BenchScenario `json:"scenarios"`
}

// BenchScenario is one timed simulator run.
type BenchScenario struct {
	// Name is the stable comparison key, e.g. "scale/LU/p64/serial".
	Name          string `json:"name"`
	App           string `json:"app"`
	Procs         int    `json:"procs"`
	ProcsPerNode  int    `json:"procs_per_node"`
	NodesPerGroup int    `json:"nodes_per_group"`
	Clustering    int    `json:"clustering"`
	// Scheduler is "serial" (one engine worker) or "workers"
	// (Config.Parallel on a multi-core host); snapshots recorded before
	// the engines were unified also carry "fixed" and "adaptive".
	Scheduler string `json:"scheduler"`
	// WallNs is host wall-clock time for the run.
	WallNs int64 `json:"wall_ns"`
	// Cycles and Checksum pin the virtual result: they must be identical
	// across worker counts and across commits unless the simulated machine
	// deliberately changed.
	Cycles   int64   `json:"cycles"`
	Checksum float64 `json:"checksum"`
}

// newBenchSnapshot stamps a snapshot with host metadata and a fresh
// calibration measurement.
func newBenchSnapshot(label string) *BenchSnapshot {
	return &BenchSnapshot{
		Schema:        BenchSchema,
		Label:         label,
		Created:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CalibrationNs: calibrate(),
	}
}

// record appends one executed run of c as the scenario called name to the
// session's snapshot, if there is one.
func (r *Runner) record(name string, c cell, res result) {
	if r.snap == nil {
		return
	}
	sched := "serial"
	if c.cfg.Parallel {
		sched = "workers"
	}
	ppn := c.cfg.ProcsPerNode
	if ppn == 0 {
		ppn = 4
	}
	r.snap.Scenarios = append(r.snap.Scenarios, BenchScenario{
		Name:          name,
		App:           c.app,
		Procs:         c.cfg.Procs,
		ProcsPerNode:  ppn,
		NodesPerGroup: c.cfg.NodesPerGroup,
		Clustering:    c.cfg.Clustering,
		Scheduler:     sched,
		WallNs:        res.wall.Nanoseconds(),
		Cycles:        res.Result.ParallelCycles,
		Checksum:      res.Checksum,
	})
}

// WriteFile writes the snapshot as indented JSON.
func (s *BenchSnapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchSnapshot loads and schema-checks a snapshot file.
func ReadBenchSnapshot(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, BenchSchema)
	}
	if s.CalibrationNs <= 0 {
		return nil, fmt.Errorf("%s: missing calibration_ns", path)
	}
	return &s, nil
}

// calSink defeats dead-code elimination of the calibration loop.
var calSink uint64

// calibrate times a fixed single-core xorshift loop, taking the best of
// three runs. The constant scales with host single-thread speed, which is
// what the simulator's hot paths are bound by, so dividing scenario wall
// times by it makes ratios comparable across hosts of different speeds.
func calibrate() int64 {
	best := int64(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		x := uint64(0x9E3779B97F4A7C15)
		start := time.Now()
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink += x
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}

// BenchComparison is the outcome of comparing two snapshots.
type BenchComparison struct {
	// Report is the human-readable per-scenario table.
	Report string
	// Regressed lists scenario names whose normalized wall time grew by
	// more than the tolerance.
	Regressed []string
	// Diverged lists scenario names whose virtual results (cycles or
	// checksum) differ — a correctness red flag, not a performance one.
	Diverged []string
}

// CompareBenchSnapshots compares scenarios present in both snapshots.
// Wall times are normalized by each snapshot's calibration constant before
// the ratio is taken; a scenario regresses when
//
//	(newWall/newCal) / (oldWall/oldCal) > 1 + tol.
//
// Scenarios present in only one snapshot are reported but never gate.
func CompareBenchSnapshots(old, new *BenchSnapshot, tol float64) BenchComparison {
	oldBy := map[string]BenchScenario{}
	for _, sc := range old.Scenarios {
		oldBy[sc.Name] = sc
	}
	var cmp BenchComparison
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: old %.1fms, new %.1fms (ratios normalized)\n",
		float64(old.CalibrationNs)/1e6, float64(new.CalibrationNs)/1e6)
	fmt.Fprintf(&b, "%-28s %12s %12s %8s  verdict\n", "scenario", "old wall", "new wall", "ratio")
	seen := map[string]bool{}
	for _, sc := range new.Scenarios {
		seen[sc.Name] = true
		osc, ok := oldBy[sc.Name]
		if !ok {
			fmt.Fprintf(&b, "%-28s %12s %12s %8s  new scenario (not gated)\n",
				sc.Name, "-", fmtNs(sc.WallNs), "-")
			continue
		}
		ratio := (float64(sc.WallNs) / float64(new.CalibrationNs)) /
			(float64(osc.WallNs) / float64(old.CalibrationNs))
		// Failing verdicts name the diverging metric and its delta, so a
		// gate failure is actionable without re-running the benchmark.
		verdict := "ok"
		switch {
		case osc.Cycles != sc.Cycles:
			delta := 100 * (float64(sc.Cycles) - float64(osc.Cycles)) / float64(osc.Cycles)
			verdict = fmt.Sprintf("DIVERGED (cycles %d -> %d, %+.2f%%)", osc.Cycles, sc.Cycles, delta)
			cmp.Diverged = append(cmp.Diverged, sc.Name)
		case osc.Checksum != sc.Checksum:
			verdict = fmt.Sprintf("DIVERGED (checksum %g -> %g)", osc.Checksum, sc.Checksum)
			cmp.Diverged = append(cmp.Diverged, sc.Name)
		case ratio > 1+tol:
			verdict = fmt.Sprintf("REGRESSED (normalized wall %+.1f%%, tolerance +%.0f%%)",
				(ratio-1)*100, tol*100)
			cmp.Regressed = append(cmp.Regressed, sc.Name)
		case ratio < 1-tol:
			verdict = "improved"
		}
		fmt.Fprintf(&b, "%-28s %12s %12s %7.2fx  %s\n",
			sc.Name, fmtNs(osc.WallNs), fmtNs(sc.WallNs), ratio, verdict)
	}
	var missing []string
	for name := range oldBy {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(&b, "%-28s %12s %12s %8s  missing from new snapshot\n",
			name, fmtNs(oldBy[name].WallNs), "-", "-")
	}
	cmp.Report = b.String()
	return cmp
}

func fmtNs(ns int64) string { return fmt.Sprintf("%.3fs", float64(ns)/1e9) }
