package shasta_test

// Config.Parallel's contract is bit-identical results: for every
// application, a run with one engine worker per active SMP node must produce
// exactly the trace bytes, metrics bytes, derived span report, cycle count
// and checksum of the one-worker run. This test enforces the contract end to
// end over all nine applications at 8 processors (two SMP nodes, so on a
// multi-core host the parallel runs genuinely execute windows concurrently).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
)

// observedRun executes one application and serializes its observable
// artifacts: the trace JSONL bytes, the metrics JSON bytes, the span and
// sync reports derived from the trace, the parallel cycle count, and the
// workload checksum. As a side effect it asserts two soundness invariants
// on the run: a complete trace reconstructs spans with no drops and every
// span's stage durations sum exactly to its end-to-end latency, and the
// trace-derived sync lifecycles reconcile exactly with the metrics
// registry's per-primitive counters (both record the same instants).
func observedRun(t *testing.T, app string, cfg shasta.Config) (trace, metrics []byte, spans, sync string, cycles int64, sum float64) {
	t.Helper()
	f, ok := apps.Registry[app]
	if !ok {
		t.Fatalf("unknown application %q", app)
	}
	col := &shasta.CollectorTracer{}
	r, err := apps.ExecuteObserved(f(1), cfg, false, col)
	if err != nil {
		t.Fatalf("%s (parallel=%v): %v", app, cfg.Parallel, err)
	}
	var tb bytes.Buffer
	if err := obsv.WriteHeader(&tb); err != nil {
		t.Fatal(err)
	}
	for _, e := range col.Events {
		if err := obsv.WriteEvent(&tb, e); err != nil {
			t.Fatal(err)
		}
	}
	// Text only at the process boundary: reading the written trace back
	// yields exactly the typed fields the simulator set, so the analyses
	// below see the same values from memory as they would from the file.
	// (Serial runs only: the parallel run's bytes must equal these anyway.)
	if !cfg.Parallel {
		_, read, err := obsv.ReadTrace(bytes.NewReader(tb.Bytes()))
		if err != nil || len(read) != len(col.Events) {
			t.Fatalf("%s: trace reads back as %d of %d events: %v", app, len(read), len(col.Events), err)
		}
		for i, e := range col.Events {
			if e.Detail != "" || read[i].TraceFields != e.TraceFields {
				t.Fatalf("%s seq=%d %s: detail %q read back as\n%+v, emitted\n%+v",
					app, e.Seq, e.Op, read[i].Detail, read[i].TraceFields, e.TraceFields)
			}
		}
	}
	var mb bytes.Buffer
	if err := r.Metrics.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	index := obsv.BuildCausal(col.Events)
	ss := index.Spans()
	if len(ss.Spans) == 0 {
		t.Errorf("%s (parallel=%v): no spans reconstructed", app, cfg.Parallel)
	}
	if ss.DroppedTotal() != 0 || len(ss.Warnings) != 0 {
		t.Errorf("%s (parallel=%v): complete trace dropped=%v warnings=%v",
			app, cfg.Parallel, ss.Dropped, ss.Warnings)
	}
	for i := range ss.Spans {
		var stageSum int64
		for _, st := range ss.Spans[i].Stages {
			stageSum += st.Cycles
		}
		if stageSum != ss.Spans[i].Total() {
			t.Fatalf("%s (parallel=%v): span seq=%d stages sum %d, want %d",
				app, cfg.Parallel, ss.Spans[i].Seq, stageSum, ss.Spans[i].Total())
		}
	}
	sync = checkSyncReconciles(t, app, cfg, index, r.Metrics)
	return tb.Bytes(), mb.Bytes(), obsv.FormatSpans(ss, 5), sync, r.Result.ParallelCycles, r.Checksum
}

// checkSyncReconciles builds the sync observatory's report from the trace
// and asserts that its per-lock wait and hold totals (and the barrier wait
// total) equal the metrics registry's per-primitive counters exactly: the
// protocol reads the virtual clock at the same instants it emits the
// bracketing trace events.
func checkSyncReconciles(t *testing.T, app string, cfg shasta.Config, index *obsv.Causal, m *shasta.Metrics) string {
	t.Helper()
	ss := index.Sync()
	if ss.Gapped || ss.DroppedTotal() != 0 {
		t.Errorf("%s (parallel=%v): complete trace degraded: gapped=%v dropped=%v",
			app, cfg.Parallel, ss.Gapped, ss.Dropped)
	}
	type tot struct {
		acq, cont, wait, hold, gens int64
	}
	counted := map[string]tot{}
	for i := range m.Sync {
		s := &m.Sync[i]
		key := s.Kind
		if s.Kind == "lock" {
			key = fmt.Sprintf("lock %d", s.ID)
		}
		counted[key] = tot{s.Acquires, s.Contended, s.WaitCycles, s.HoldCycles, s.Generations}
	}
	traced := map[string]tot{}
	for i := range ss.Locks {
		l := &ss.Locks[i]
		traced[fmt.Sprintf("lock %d", l.ID)] = tot{
			int64(len(l.Acquires)), int64(l.Contended), l.WaitTotal, l.HoldTotal, 0}
	}
	if len(ss.Gens) > 0 {
		var wait int64
		for i := range ss.Gens {
			wait += ss.Gens[i].WaitTotal
		}
		traced["barrier"] = tot{wait: wait, gens: int64(len(ss.Gens))}
	}
	if !reflect.DeepEqual(counted, traced) {
		t.Errorf("%s (parallel=%v): sync totals do not reconcile:\n  metrics %v\n  trace   %v",
			app, cfg.Parallel, counted, traced)
	}
	return obsv.FormatSync(ss, 5) + obsv.FormatSkew(ss)
}

func TestParallelSchedulerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all nine applications twice")
	}
	for _, app := range apps.Names {
		t.Run(app, func(t *testing.T) {
			cfg := shasta.Config{Procs: 8, Clustering: 4}
			sTrace, sMetrics, sSpans, sSync, sCycles, sSum := observedRun(t, app, cfg)
			cfg.Parallel = true
			pTrace, pMetrics, pSpans, pSync, pCycles, pSum := observedRun(t, app, cfg)
			if sCycles != pCycles {
				t.Errorf("cycles differ: serial %d, parallel %d", sCycles, pCycles)
			}
			if sSum != pSum {
				t.Errorf("checksums differ: serial %v, parallel %v", sSum, pSum)
			}
			if !bytes.Equal(sMetrics, pMetrics) {
				t.Errorf("metrics JSON differs (%d vs %d bytes):\n--- serial ---\n%s\n--- parallel ---\n%s",
					len(sMetrics), len(pMetrics), firstDiffContext(sMetrics, pMetrics), firstDiffContext(pMetrics, sMetrics))
			}
			if !bytes.Equal(sTrace, pTrace) {
				t.Errorf("trace bytes differ (%d vs %d bytes); first divergence:\n%s",
					len(sTrace), len(pTrace), firstDiffContext(sTrace, pTrace))
			}
			// The span report is derived from the trace, but its own
			// byte-identity is pinned separately: reconstruction walks
			// maps and sorts, so this also guards against nondeterminism
			// in the span layer itself.
			if sSpans != pSpans {
				t.Errorf("span report differs; first divergence:\n%s",
					firstDiffContext([]byte(sSpans), []byte(pSpans)))
			}
			if sSync != pSync {
				t.Errorf("sync report differs; first divergence:\n%s",
					firstDiffContext([]byte(sSync), []byte(pSync)))
			}
			// The per-block sharing counters are the newest and most
			// order-sensitive part of the snapshot (mask ORs, per-proc
			// attribution), so the blocks section gets its own explicit
			// byte-identity check in addition to the whole-document one.
			sBlocks := blocksSection(t, sMetrics)
			pBlocks := blocksSection(t, pMetrics)
			if len(sBlocks.Blocks) == 0 || sBlocks.BlocksTotal == 0 {
				t.Errorf("serial metrics have no blocks section (blocks_total=%d)", sBlocks.BlocksTotal)
			}
			if !bytes.Equal(sBlocks.Blocks, pBlocks.Blocks) || sBlocks.BlocksTotal != pBlocks.BlocksTotal {
				t.Errorf("blocks section differs: serial %d bytes total=%d, parallel %d bytes total=%d:\n%s",
					len(sBlocks.Blocks), sBlocks.BlocksTotal, len(pBlocks.Blocks), pBlocks.BlocksTotal,
					firstDiffContext(sBlocks.Blocks, pBlocks.Blocks))
			}
		})
	}
}

// TestParallelSchedulerBitIdenticalMigrate enforces the bit-identity
// contract with online home migration enabled: migration decisions derive
// only from virtual-time-ordered directory state and every handshake or
// tombstone forward crosses SMP nodes (so it pays at least the lookahead
// latency), which must make serial and parallel runs — including the
// migrate/migfwd trace events and the migration counters — byte-identical.
func TestParallelSchedulerBitIdenticalMigrate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all nine applications twice")
	}
	for _, app := range apps.Names {
		t.Run(app, func(t *testing.T) {
			cfg := shasta.Config{Procs: 8, Clustering: 4, Migrate: true}
			sTrace, sMetrics, sSpans, sSync, sCycles, sSum := observedRun(t, app, cfg)
			cfg.Parallel = true
			pTrace, pMetrics, pSpans, pSync, pCycles, pSum := observedRun(t, app, cfg)
			if sCycles != pCycles {
				t.Errorf("cycles differ: serial %d, parallel %d", sCycles, pCycles)
			}
			if sSum != pSum {
				t.Errorf("checksums differ: serial %v, parallel %v", sSum, pSum)
			}
			if !bytes.Equal(sMetrics, pMetrics) {
				t.Errorf("metrics JSON differs (%d vs %d bytes); first divergence:\n%s",
					len(sMetrics), len(pMetrics), firstDiffContext(sMetrics, pMetrics))
			}
			if !bytes.Equal(sTrace, pTrace) {
				t.Errorf("trace bytes differ (%d vs %d bytes); first divergence:\n%s",
					len(sTrace), len(pTrace), firstDiffContext(sTrace, pTrace))
			}
			if sSpans != pSpans {
				t.Errorf("span report differs; first divergence:\n%s",
					firstDiffContext([]byte(sSpans), []byte(pSpans)))
			}
			if sSync != pSync {
				t.Errorf("sync report differs; first divergence:\n%s",
					firstDiffContext([]byte(sSync), []byte(pSync)))
			}
		})
	}
}

// TestParallelSchedulerBitIdenticalAtScale enforces the same contract at 64
// processors on a hierarchical topology (16 four-processor nodes in 4
// uplink groups), the scale regime the interconnect hierarchy was built
// for: up to 16 domains share each fixed [T, T+L) window, and one worker and
// many must produce identical trace bytes, metrics bytes, cycles and
// checksums, with static homes and with online migration.
func TestParallelSchedulerBitIdenticalAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("64-processor runs, four of them")
	}
	base := shasta.Config{Procs: 64, Clustering: 4, NodesPerGroup: 4, HeapBytes: 4 << 20}
	sTrace, sMetrics, sSpans, sSync, sCycles, sSum := observedRun(t, "LU", base)
	mTrace, mMetrics, mSpans, mSync, mCycles, mSum := observedRun(t, "LU",
		shasta.Config{Procs: 64, Clustering: 4, NodesPerGroup: 4, HeapBytes: 4 << 20, Migrate: true})
	for _, mode := range []struct {
		name    string
		migrate bool
	}{{"fixed-windows", false}, {"migrate", true}} {
		t.Run(mode.name, func(t *testing.T) {
			sTrace, sMetrics, sSpans, sSync, sCycles, sSum := sTrace, sMetrics, sSpans, sSync, sCycles, sSum
			if mode.migrate {
				sTrace, sMetrics, sSpans, sSync, sCycles, sSum = mTrace, mMetrics, mSpans, mSync, mCycles, mSum
			}
			cfg := base
			cfg.Parallel = true
			cfg.Migrate = mode.migrate
			pTrace, pMetrics, pSpans, pSync, pCycles, pSum := observedRun(t, "LU", cfg)
			if sCycles != pCycles {
				t.Errorf("cycles differ: serial %d, parallel %d", sCycles, pCycles)
			}
			if sSum != pSum {
				t.Errorf("checksums differ: serial %v, parallel %v", sSum, pSum)
			}
			if !bytes.Equal(sMetrics, pMetrics) {
				t.Errorf("metrics JSON differs (%d vs %d bytes); first divergence:\n%s",
					len(sMetrics), len(pMetrics), firstDiffContext(sMetrics, pMetrics))
			}
			if !bytes.Equal(sTrace, pTrace) {
				t.Errorf("trace bytes differ (%d vs %d bytes); first divergence:\n%s",
					len(sTrace), len(pTrace), firstDiffContext(sTrace, pTrace))
			}
			if sSpans != pSpans {
				t.Errorf("span report differs; first divergence:\n%s",
					firstDiffContext([]byte(sSpans), []byte(pSpans)))
			}
			if sSync != pSync {
				t.Errorf("sync report differs; first divergence:\n%s",
					firstDiffContext([]byte(sSync), []byte(pSync)))
			}
		})
	}
}

// blocksSection extracts the raw blocks array and its total from a metrics
// document without interpreting the entries.
func blocksSection(t *testing.T, metrics []byte) (s struct {
	Blocks      json.RawMessage `json:"blocks"`
	BlocksTotal int             `json:"blocks_total"`
}) {
	t.Helper()
	if err := json.Unmarshal(metrics, &s); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	return s
}

// firstDiffContext renders the region around the first differing byte so a
// determinism regression is diagnosable from the test log.
func firstDiffContext(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hi := i + 120
	if hi > len(a) {
		hi = len(a)
	}
	return string(a[lo:hi])
}
