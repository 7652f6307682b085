package harness

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec     string
		ppn, npg int
		err      bool
	}{
		{"", 0, 0, false},
		{"4x4", 4, 4, false},
		{"8x2", 8, 2, false},
		{"8", 8, -1, false},
		{"4x1", 4, -1, false}, // explicit flat
		{"x4", 0, 0, true},
		{"4x", 0, 0, true},
		{"4x4x4", 0, 0, true},
		{"0x4", 0, 0, true},
		{"ax4", 0, 0, true},
	}
	for _, c := range cases {
		ppn, npg, err := parseTopology(c.spec)
		if (err != nil) != c.err {
			t.Errorf("parseTopology(%q) error = %v, want error %v", c.spec, err, c.err)
			continue
		}
		if err == nil && (ppn != c.ppn || npg != c.npg) {
			t.Errorf("parseTopology(%q) = (%d, %d), want (%d, %d)", c.spec, ppn, npg, c.ppn, c.npg)
		}
	}
}

func TestScaleConfigDefaults(t *testing.T) {
	if cfg := scaleConfig(16, 0, 0); cfg.NodesPerGroup != 0 || cfg.Clustering != 4 {
		t.Errorf("16-proc default config = %+v, want flat clustering 4", cfg)
	}
	if cfg := scaleConfig(64, 0, 0); cfg.NodesPerGroup != 4 {
		t.Errorf("64-proc default config = %+v, want 4 nodes per group", cfg)
	}
	if cfg := scaleConfig(64, 0, -1); cfg.NodesPerGroup != 0 {
		t.Errorf("explicit flat override ignored: %+v", cfg)
	}
	if cfg := scaleConfig(64, 8, 2); cfg.ProcsPerNode != 8 || cfg.NodesPerGroup != 2 {
		t.Errorf("topology override ignored: %+v", cfg)
	}
}

func TestTopologyName(t *testing.T) {
	if got := topologyName(shasta.Config{Procs: 16}); got != "4n flat" {
		t.Errorf("flat name = %q", got)
	}
	if got := topologyName(shasta.Config{Procs: 64, NodesPerGroup: 4}); got != "4n x 4g" {
		t.Errorf("hierarchical name = %q", got)
	}
}

// TestScaleExperimentSmoke runs the scale experiment at one small
// processor count, on an application -apps picks from the whole registry,
// and checks the report, the bit-identity enforcement path, and the
// snapshot file it writes.
func TestScaleExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("times full runs")
	}
	snap := filepath.Join(t.TempDir(), "BENCH_test.json")
	var buf bytes.Buffer
	r := NewRunner(Options{Apps: []string{"Volrend"}, Procs: 8, SnapshotPath: snap, BenchLabel: "test"})
	if err := Scale(r, &buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Volrend", "8", "1 worker", "N workers", "yes", "snapshot written"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	s, err := ReadBenchSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []string{"serial"}
	if runtime.GOMAXPROCS(0) > 1 {
		scheds = append(scheds, "workers")
	}
	if s.Label != "test" || len(s.Scenarios) != len(scheds) {
		t.Fatalf("snapshot label %q with %d scenarios, want test/%d", s.Label, len(s.Scenarios), len(scheds))
	}
	for i, sc := range s.Scenarios {
		if sc.WallNs <= 0 || sc.Cycles <= 0 || sc.Procs != 8 || sc.Name != "scale/Volrend/p8/"+scheds[i] {
			t.Errorf("implausible scenario %+v", sc)
		}
		if sc.Cycles != s.Scenarios[0].Cycles {
			t.Errorf("%s disagrees with %s on cycles in snapshot", sc.Name, s.Scenarios[0].Name)
		}
	}
}

func TestCompareBenchSnapshots(t *testing.T) {
	old := &BenchSnapshot{
		Schema: BenchSchema, Label: "old", CalibrationNs: 100,
		Scenarios: []BenchScenario{
			{Name: "a", WallNs: 1000, Cycles: 5, Checksum: 1.5},
			{Name: "b", WallNs: 1000, Cycles: 5, Checksum: 1.5},
			{Name: "c", WallNs: 1000, Cycles: 5, Checksum: 1.5},
			{Name: "gone", WallNs: 1000, Cycles: 5, Checksum: 1.5},
		},
	}
	// New host is 2x faster (calibration 50), so equal normalized
	// performance means wall 500.
	new := &BenchSnapshot{
		Schema: BenchSchema, Label: "new", CalibrationNs: 50,
		Scenarios: []BenchScenario{
			{Name: "a", WallNs: 520, Cycles: 5, Checksum: 1.5}, // +4%: ok
			{Name: "b", WallNs: 600, Cycles: 5, Checksum: 1.5}, // +20%: regressed
			{Name: "c", WallNs: 500, Cycles: 6, Checksum: 1.5}, // diverged
			{Name: "new", WallNs: 500, Cycles: 5, Checksum: 1.5},
		},
	}
	cmp := CompareBenchSnapshots(old, new, 0.10)
	if len(cmp.Regressed) != 1 || cmp.Regressed[0] != "b" {
		t.Errorf("Regressed = %v, want [b]", cmp.Regressed)
	}
	if len(cmp.Diverged) != 1 || cmp.Diverged[0] != "c" {
		t.Errorf("Diverged = %v, want [c]", cmp.Diverged)
	}
	for _, want := range []string{"REGRESSED", "DIVERGED", "new scenario", "missing from new snapshot"} {
		if !strings.Contains(cmp.Report, want) {
			t.Errorf("report missing %q:\n%s", want, cmp.Report)
		}
	}
}

func TestReadBenchSnapshotRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	s := &BenchSnapshot{Schema: "other/v9", Label: "x", CalibrationNs: 1}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchSnapshot(path); err == nil {
		t.Fatal("wrong-schema snapshot accepted")
	}
}
