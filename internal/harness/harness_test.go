package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	wantIDs := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "micro", "anl", "ablate", "profile",
		"sharing", "races", "scale", "tail", "migrate", "contention"}
	if len(Experiments) != len(wantIDs) {
		t.Fatalf("have %d experiments, want %d", len(Experiments), len(wantIDs))
	}
	for _, id := range wantIDs {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("experiment %q missing", id)
			continue
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted an unknown id")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale != 1 {
		t.Fatalf("default scale = %d, want 1", o.Scale)
	}
}

// TestTable1SingleApp runs the checking-overhead experiment for one small
// application and checks the report structure and the Base <= SMP ordering.
func TestTable1SingleApp(t *testing.T) {
	var buf bytes.Buffer
	err := Table1(NewRunner(Options{Scale: 1, Apps: []string{"Volrend"}}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Volrend", "sequential", "Base checks", "SMP checks", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMicroLatencies(t *testing.T) {
	lat, err := MicroDowngradeLatency()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 4; k++ {
		if lat[k] <= lat[k-1] {
			t.Errorf("latency with %d downgrades (%.1f) not above %d (%.1f)",
				k, lat[k], k-1, lat[k-1])
		}
	}
	remote, local, err := FetchLatencies()
	if err != nil {
		t.Fatal(err)
	}
	if remote < 14 || remote > 26 {
		t.Errorf("remote fetch = %.1f us, want ~20", remote)
	}
	if local < 7 || local > 15 {
		t.Errorf("local fetch = %.1f us, want ~11", local)
	}
}

// TestFig8SingleApp checks the downgrade-distribution report for the
// migratory outlier shape on Water-Nsq.
func TestFig8SingleApp(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(NewRunner(Options{Scale: 1, Apps: []string{"Water-Nsq"}}), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Water-Nsq") {
		t.Fatalf("report missing app:\n%s", buf.String())
	}
}

// TestProfileSingleApp checks the per-processor measured breakdown report:
// eight rows per app, each with the exact parallel time in the last column.
func TestProfileSingleApp(t *testing.T) {
	var buf bytes.Buffer
	if err := Profile(NewRunner(Options{Scale: 1, Apps: []string{"Volrend"}}), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Volrend @8p C4", "dgrade*%", "p0", "p7"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSharingSingleApp checks the sharing-observatory report structure:
// the two line-size runs with a measured delta, and the pattern census.
func TestSharingSingleApp(t *testing.T) {
	var buf bytes.Buffer
	if err := Sharing(NewRunner(Options{Scale: 1, Apps: []string{"Volrend"}}), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Volrend @8p C4", "64B lines", "256B lines", "measured delta", "observatory @256B", "active blocks"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRacesExperiment runs the injection experiment end to end: all three
// modes must match ground truth, the report must carry each verdict, and
// the artifacts must land in the observability directory.
func TestRacesExperiment(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := Races(NewRunner(Options{Scale: 1, ObsvDir: dir}), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"inject=none", "ok: no data races",
		"inject=drop-lock", "inject=reorder-publish", "RACES:",
		"verdicts match ground truth for all 3 modes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{
		"TRACE_races_none.jsonl", "RACES_none.txt",
		"TRACE_races_drop-lock.jsonl", "RACES_drop-lock.txt",
		"TRACE_races_reorder-publish.jsonl", "RACES_reorder-publish.txt",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

// TestRacesExperimentSingleMode pins the -inject-race knob: one mode runs,
// unknown modes are rejected.
func TestRacesExperimentSingleMode(t *testing.T) {
	var buf bytes.Buffer
	if err := Races(NewRunner(Options{Scale: 1, InjectRace: "drop-lock"}), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "inject=drop-lock") || strings.Contains(out, "inject=none") {
		t.Errorf("single-mode report wrong:\n%s", out)
	}
	if err := Races(NewRunner(Options{Scale: 1, InjectRace: "frobnicate"}), &buf); err == nil {
		t.Error("unknown injection mode accepted")
	}
}

func TestAppFilter(t *testing.T) {
	got := appList(Options{Apps: []string{"LU", "Nope"}}, []string{"Barnes", "LU", "Ocean"})
	if len(got) != 1 || got[0] != "LU" {
		t.Fatalf("appList = %v, want [LU]", got)
	}
	all := appList(Options{}, []string{"a", "b"})
	if len(all) != 2 {
		t.Fatalf("empty filter should keep defaults, got %v", all)
	}
}

func TestHelpers(t *testing.T) {
	if speedup(100, 50) != 2 {
		t.Error("speedup wrong")
	}
	if speedup(100, 0) != 0 {
		t.Error("speedup should guard division by zero")
	}
	if pct(0.125) != "12.5%" {
		t.Errorf("pct = %q", pct(0.125))
	}
	if secs(300e6) != "1.0000s" {
		t.Errorf("secs = %q", secs(300e6))
	}
	if smpConfig(2).Clustering != 2 || smpConfig(16).Clustering != 4 {
		t.Error("smpConfig clustering selection wrong")
	}
	if baseConfig(8).Clustering != 1 {
		t.Error("baseConfig clustering wrong")
	}
}
