package harness

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestMigrateExperimentSmoke runs the migrate experiment end to end and
// checks the report, the cycle-reduction enforcement path (Migrate itself
// errors if either fixture fails to improve), and the snapshot it writes.
// The session runs under -migrate: the off/on pair is the experiment's own,
// so the snapshot must still agree, cycle for cycle, with the committed
// BENCH_migrate.json that CI gates against.
func TestMigrateExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both fixtures off and on")
	}
	snap := filepath.Join(t.TempDir(), "BENCH_test.json")
	var buf bytes.Buffer
	r := NewRunner(Options{SnapshotPath: snap, BenchLabel: "test", Migrate: true})
	if err := Migrate(r, &buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hot3hop", "LU256", "saved", "snapshot written"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	s, err := ReadBenchSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if s.Label != "test" || len(s.Scenarios) != 4 {
		t.Fatalf("snapshot label %q with %d scenarios, want test/4", s.Label, len(s.Scenarios))
	}
	byName := map[string]BenchScenario{}
	for _, sc := range s.Scenarios {
		if sc.WallNs <= 0 || sc.Cycles <= 0 {
			t.Errorf("implausible scenario %+v", sc)
		}
		byName[sc.Name] = sc
	}
	for _, fx := range []string{"hot3hop", "LU256"} {
		off, on := byName["migrate/"+fx+"/off"], byName["migrate/"+fx+"/on"]
		if off.Cycles == 0 || on.Cycles == 0 {
			t.Fatalf("%s: missing off/on scenarios in %v", fx, byName)
		}
		if on.Cycles >= off.Cycles {
			t.Errorf("%s: migration did not reduce cycles (%d off, %d on)", fx, off.Cycles, on.Cycles)
		}
		if off.Checksum != on.Checksum {
			t.Errorf("%s: migration changed the checksum (%v off, %v on)", fx, off.Checksum, on.Checksum)
		}
	}

	committed, err := ReadBenchSnapshot("../../BENCH_migrate.json")
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareBenchSnapshots(committed, s, 100) // generous wall tolerance: only cycles/checksums matter here
	if len(cmp.Diverged) != 0 || strings.Contains(cmp.Report, "missing") {
		t.Errorf("diverged from BENCH_migrate.json on %v:\n%s", cmp.Diverged, cmp.Report)
	}
}
