package harness

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestRunCaching pins the cache's key: the same cell is served from the
// cache, and two cells that differ in any one setting — here two the old
// five-field key left out — do not alias.
func TestRunCaching(t *testing.T) {
	r := NewRunner(Options{})
	c := cell{"Volrend", 1, shasta.Config{Procs: 4, Clustering: 4}, false}
	r1, err := r.run(c, want{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.run(c, want{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Result.Stats != r2.Result.Stats {
		t.Fatal("second identical run was not served from the cache")
	}
	for _, mod := range []func(*shasta.Config){
		func(cfg *shasta.Config) { cfg.LineSize = 128 },
		func(cfg *shasta.Config) { cfg.FastSync = true },
	} {
		d := c
		mod(&d.cfg)
		r3, err := r.run(d, want{})
		if err != nil {
			t.Fatal(err)
		}
		if r3.Result.Stats == r1.Result.Stats {
			t.Errorf("%s was served %s's cached run", d.name(), c.name())
		}
	}
	// A cached run without a metrics snapshot does not satisfy a request
	// for one; the rerun agrees and replaces it.
	m, err := r.run(c, want{metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics == nil || diverged(m.RunResult, r1.RunResult) != "" {
		t.Errorf("metrics request got %+v after %+v", m.RunResult, r1.RunResult)
	}
	if again, _ := r.run(c, want{metrics: true}); again.Metrics != m.Metrics {
		t.Error("second metrics request was not served from the cache")
	}
	if err := r.Finish(io.Discard); err != nil {
		t.Errorf("Finish after clean runs: %v", err)
	}

	if _, err := r.run(cell{"NotAnApp", 1, shasta.Config{Procs: 4}, false}, want{}); err == nil {
		t.Fatal("unknown application accepted")
	}
	if err := r.Finish(io.Discard); err == nil || !strings.Contains(err.Error(), "1 cell(s) failed:\n  NotAnApp_s1_p4_c0") {
		t.Errorf("Finish after a failed cell: %v", err)
	}
}

// waterNsqLivelock is the one cell of the paper's evaluation known to fail:
// Water-Nsq with the 2,048-byte molecule blocks of Table 2 on 16
// Base-Shasta processors, where a batch's upgrade never survives to its
// re-check (EXPERIMENTS.md, "Known failure").
var waterNsqLivelock = cell{"Water-Nsq", 1, baseConfig(16), true}

// TestWaterNsqVarGranBaseP16IsAReportedFailure pins that failure as a
// reported one — an expected-to-fail-this-way predicate (ROADMAP item 3(b)):
// the cell is an error, not a process-ending panic, and Table 2 prints
// "failed" in its column and its other rows as usual (two of the six here,
// to fit the tier-1 budget; paper.golden holds all six). The protocol's
// forward-progress fix (ROADMAP item 1) flips this test; it then asserts a
// speedup instead.
func TestWaterNsqVarGranBaseP16IsAReportedFailure(t *testing.T) {
	r := NewRunner(Options{Apps: []string{"Volrend", "Water-Nsq"}})
	if _, err := r.run(waterNsqLivelock, want{}); err == nil || !strings.Contains(err.Error(), "batch re-check") {
		t.Fatalf("%s: error %v, want the batch re-check livelock", waterNsqLivelock.name(), err)
	}
	var buf bytes.Buffer
	if err := Table2(r, &buf); err == nil || !strings.Contains(err.Error(), waterNsqLivelock.name()) {
		t.Errorf("Table2 returned %v, want the failed cell", err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	if len(rows) != 2 || !strings.HasPrefix(rows[0], "Volrend") || strings.Contains(rows[0], "failed") ||
		!strings.HasPrefix(rows[1], "Water-Nsq") || strings.Count(rows[1], "failed") != 1 {
		t.Errorf("Table2 rows, want Volrend's two speedups and Water-Nsq's one beside \"failed\":\n%s", buf.String())
	}
	if err := r.Finish(io.Discard); err == nil || !strings.HasSuffix(err.Error(), "1 cell(s) failed:\n  "+waterNsqLivelock.name()) {
		t.Errorf("Finish: %v", err)
	}
}

// TestEveryExperimentRuns runs every experiment to its end in one session,
// the way `shastabench all` does, on a budget that fits the tier-1 suite:
// two small applications that are in every paper experiment's set, and the
// sweeps at 8 processors. The only failure allowed is the pinned cell.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 19 experiments")
	}
	r := NewRunner(Options{Apps: []string{"Volrend", "Water-Nsq"}, Procs: 8})
	for _, e := range Experiments {
		var buf bytes.Buffer
		err := e.Run(r, &buf)
		if err != nil && !strings.Contains(err.Error(), waterNsqLivelock.name()+": ") {
			t.Errorf("%s: %v", e.ID, err)
		}
		if (err != nil) != (e.ID == "table2" || e.ID == "fig5") {
			t.Errorf("%s: error %v; only table2 and fig5 reach the failing cell", e.ID, err)
		}
		if strings.Count(buf.String(), "\n") < 2 {
			t.Errorf("%s printed no report:\n%s", e.ID, buf.String())
		}
	}
	if len(r.failed) != 1 || r.failed[0] != waterNsqLivelock.name() {
		t.Errorf("failed cells %v, want only %s", r.failed, waterNsqLivelock.name())
	}
}

// TestOptionsReachEveryCell checks that -migrate and -parallel mean the same
// thing in every experiment: each cell an experiment runs carries both,
// except that hardware-coherent and ShareDirectory cells stay static. The
// cache holds every untimed cell as it ran, so it is the witness. Three
// experiments are checked elsewhere: scale's cells are timed and never
// cached (Scale builds them with apply), the migrate experiment's own
// off/on pair is TestMigrateExperimentSmoke's, and ablate, which ignores
// -apps, is TestAblateHonoursMigrateOnBothSides's.
func TestOptionsReachEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 15 experiments")
	}
	r := NewRunner(Options{Apps: []string{"Volrend"}, Procs: 8, Migrate: true, Parallel: true})
	for _, e := range Experiments {
		if e.ID == "scale" || e.ID == "migrate" || e.ID == "ablate" {
			continue
		}
		if err := e.Run(r, io.Discard); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
	for c := range r.cache {
		if !c.cfg.Parallel || c.cfg.Migrate == (c.cfg.Hardware || c.cfg.ShareDirectory) {
			t.Errorf("%s ran with Parallel %v, Migrate %v", c.name(), c.cfg.Parallel, c.cfg.Migrate)
		}
	}
	if len(r.cache) < 20 {
		t.Errorf("only %d cells ran", len(r.cache))
	}
}

// TestAblateHonoursMigrateOnBothSides is the case that used to go wrong:
// under -migrate the ablation's base ran migrated and its variant did not,
// so the "vs base" ratios compared two different machines.
func TestAblateHonoursMigrateOnBothSides(t *testing.T) {
	r := NewRunner(Options{Migrate: true})
	var buf bytes.Buffer
	if err := Ablate(r, &buf); err != nil {
		t.Fatal(err)
	}
	for c := range r.cache {
		if c.cfg.Migrate == c.cfg.ShareDirectory {
			t.Errorf("%s ran with Migrate %v", c.name(), c.cfg.Migrate)
		}
	}
	// FastSync changes no downgrade traffic; with the variant static and
	// the base migrated the column read 0.00x.
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "FastSync") && !strings.HasSuffix(strings.TrimSpace(line), "1.00x") {
			t.Errorf("FastSync row under -migrate: %q", line)
		}
	}
}

// TestSnapshotFromAnyExperiment checks that -snapshot is the runner's, not
// three experiments': fig8 writes one scenario per run it executed.
func TestSnapshotFromAnyExperiment(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "BENCH_fig8.json")
	r := NewRunner(Options{Apps: []string{"Volrend"}, SnapshotPath: snap, BenchLabel: "fig8"})
	var buf bytes.Buffer
	for i := 0; i < 2; i++ { // the second pass is all cache hits: no new scenarios
		if err := Fig8(r, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "snapshot written: "+snap+" (label fig8, 2 scenarios)") {
		t.Errorf("report does not announce the snapshot:\n%s", buf.String())
	}
	s, err := ReadBenchSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sc := range s.Scenarios {
		names = append(names, sc.Name)
		if sc.App != "Volrend" || sc.Clustering != 4 || sc.Scheduler != "serial" || sc.WallNs <= 0 || sc.Cycles <= 0 {
			t.Errorf("implausible scenario %+v", sc)
		}
	}
	if got := strings.Join(names, " "); got != "Volrend_s1_p8_c4 Volrend_s1_p16_c4" {
		t.Errorf("scenarios %q", got)
	}
}
