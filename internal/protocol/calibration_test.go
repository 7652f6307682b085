package protocol

import (
	"strings"
	"testing"
)

func TestCalibrationValidate(t *testing.T) {
	if err := DefaultCalibration().Validate(); err != nil {
		t.Fatalf("default calibration rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Calibration)
	}{
		{"zero RemoteWire", func(c *Calibration) { c.Net.RemoteWire = 0 }},
		{"zero RemoteBytesPerKCycle", func(c *Calibration) { c.Net.RemoteBytesPerKCycle = 0 }},
		{"negative handler cost", func(c *Calibration) { c.Costs.HomeHandler = -1 }},
		{"negative check cost", func(c *Calibration) { c.Checks.Store = -1 }},
	} {
		cal := DefaultCalibration()
		tc.edit(&cal)
		if err := cal.Validate(); err == nil || !strings.HasPrefix(err.Error(), "protocol: ") {
			t.Errorf("%s: Validate = %v, want a protocol: diagnostic", tc.name, err)
		}
		// A non-zero calibration is used as given, so Config.Validate is
		// where a bad one stops a run.
		if err := (Config{NumProcs: 4, Cal: cal}).WithDefaults().Validate(); err == nil {
			t.Errorf("%s: Config.Validate accepted the calibration", tc.name)
		}
	}
}

// checksFor resolves the check-cost table a configuration implies.
func checksFor(cfg Config) checkTable { return cfg.WithDefaults().checkTable() }

func TestCheckTableHardwareIsFree(t *testing.T) {
	if got := checksFor(Config{Hardware: true}); got != (checkTable{}) {
		t.Fatalf("hardware check costs %+v, want none", got)
	}
}

func TestCheckTableSMPFPLoadCostsMore(t *testing.T) {
	base, smp := checksFor(Config{Clustering: 1}), checksFor(Config{Clustering: 4})
	if smp.load[variant(true)] <= base.load[variant(true)] {
		t.Fatal("SMP FP load check must exceed Base FP load check")
	}
	if smp.load[variant(false)] != base.load[variant(false)] {
		t.Fatal("integer flag check should cost the same in both modes")
	}
	if forced := checksFor(Config{Clustering: 1, ForceSMPChecks: true}); forced != smp {
		t.Fatalf("ForceSMPChecks table %+v, want the SMP table %+v", forced, smp)
	}
}

func TestCheckTableSMPBatchUsesStateTable(t *testing.T) {
	base, smp := checksFor(Config{Clustering: 1}), checksFor(Config{Clustering: 4})
	if smp.batchLine[variant(true)] <= base.batchLine[variant(true)] {
		t.Fatal("SMP load-only batch checks must exceed Base flag batch checks")
	}
	if smp.batchLine[variant(true)] != smp.batchLine[variant(false)] {
		t.Fatal("SMP batches must cost the same regardless of loadOnly")
	}
	if base.batchLine[variant(false)] != smp.batchLine[variant(false)] {
		t.Fatal("batches containing stores use the state table in both modes")
	}
}

func TestCheckTableStoreIsSevenInstructions(t *testing.T) {
	base, smp := checksFor(Config{Clustering: 1}), checksFor(Config{Clustering: 4})
	if base.store != 7 || smp.store != 7 {
		t.Fatalf("store check = %d/%d, want 7 (Figure 1)", base.store, smp.store)
	}
}

// TestCheckTableBatchScalesWithLinePairs times hit batches over 0, 4 and 8
// lines: the check charge beyond the poll is linear in the line pairs.
func TestCheckTableBatchScalesWithLinePairs(t *testing.T) {
	s := testSystem(1, 1)
	a := s.Alloc(8*64, 64)
	elapsed := make(map[int]int64)
	s.Run(func(p *Proc) {
		for _, lines := range []int{0, 4, 8} {
			t0 := p.Now()
			p.Batch([]BatchRef{ref(a, 0, lines*64, false)}, func(*Batch) {})
			elapsed[lines] = p.Now() - t0
		}
	})
	perLine := s.checks.batchLine[variant(true)]
	if got := elapsed[4] - elapsed[0]; got != 4*perLine {
		t.Errorf("4-line batch check = %d cycles, want 4 x %d", got, perLine)
	}
	if got := elapsed[8] - elapsed[0]; got != 2*(elapsed[4]-elapsed[0]) {
		t.Errorf("8-line batch check = %d cycles, want twice the 4-line %d", got, elapsed[4]-elapsed[0])
	}
}
