package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// -update regenerates the committed fixtures and golden outputs from a
// fresh deterministic run: go test ./cmd/shastatrace -update
var update = flag.Bool("update", false, "rewrite testdata fixtures and golden files")

// fixtureRun is the fixed workload behind the committed fixtures: private
// stores, a barrier, a lock-protected increment of one contended block, a
// final barrier — enough traffic to exercise every analysis.
func fixtureRun(tr shasta.Tracer) *shasta.Cluster {
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	arr := cluster.Alloc(1024, 64)
	lock := cluster.AllocLock()
	cluster.SetTracer(tr)
	cluster.Run(func(p *shasta.Proc) {
		p.StoreF64(arr+shasta.Addr(p.ID()*8), float64(p.ID()))
		p.Barrier()
		p.LockAcquire(lock)
		p.StoreF64(arr+512, p.LoadF64(arr+512)+1)
		p.LockRelease(lock)
		p.Barrier()
	})
	return cluster
}

// threehopRun is a placement-adverse workload for the advisor fixture: one
// page homed at processor 0 (node 0) whose single hot block is repeatedly
// written by processor 7 (node 1) and read by node 0's processors. Every
// node-0 read miss is a 3-hop forward through the misplaced home; homing the
// page on node 1 would serve the same traffic in 2 hops.
func threehopRun() *shasta.Cluster {
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	arr := cluster.Alloc(256, 64)
	cluster.Run(func(p *shasta.Proc) {
		for round := 0; round < 8; round++ {
			if p.ID() == 7 {
				p.StoreF64(arr, float64(round))
			}
			p.Barrier()
			if p.ID() < 4 {
				_ = p.LoadF64(arr)
			}
			p.Barrier()
		}
	})
	return cluster
}

// migrateRun is the threehopRun pattern with online home migration enabled
// and more rounds: the hot block's home (processor 0) sees node 1's writes
// dominating its miss model and hands the directory entry over, so the
// trace carries migrate decision/installation events and tombstone
// forwards for the migrations fixture.
func migrateRun(tr shasta.Tracer) *shasta.Cluster {
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4, Migrate: true})
	arr := cluster.Alloc(256, 64)
	cluster.SetTracer(tr)
	cluster.Run(func(p *shasta.Proc) {
		for round := 0; round < 24; round++ {
			if p.ID() == 7 {
				p.StoreF64(arr, float64(round))
			}
			p.Barrier()
			if p.ID() < 4 {
				_ = p.LoadF64(arr)
			}
			p.Barrier()
		}
	})
	return cluster
}

func writeMetrics(t *testing.T, path string, m *shasta.Metrics) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeTrace(t *testing.T, path string, events []protocol.TraceEvent) {
	t.Helper()
	var buf bytes.Buffer
	if err := obsv.WriteHeader(&buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := obsv.WriteEvent(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// regenFixtures writes the committed input fixtures into dir (testdata
// under -update):
//
//	small.jsonl    full trace of the fixture run
//	bench.json     metrics snapshot of the same run
//	filtered.jsonl the trace filtered to its busiest block (a gapped trace)
//	corrupt.jsonl  the trace with a DataReply send removed and seqs
//	               renumbered — an invariant violation check must catch
//	threehop.json  metrics of the placement-adverse threehopRun workload
//	migrate.jsonl  trace of the migrateRun workload: online home migration
//	               hands the hot block to the writer's node mid-run
//	lu256.json     metrics of LU at 256-byte lines (the paper's
//	               false-sharing granularity for LU)
//	racy.jsonl     trace of the synthetic Racy workload with the drop-lock
//	               injection — the races analysis must flag it
func regenFixtures(t *testing.T, dir string) {
	t.Helper()
	col := &shasta.CollectorTracer{}
	cluster := fixtureRun(col)
	writeTrace(t, filepath.Join(dir, "small.jsonl"), col.Events)
	writeMetrics(t, filepath.Join(dir, "bench.json"), cluster.Metrics())

	// Clustering 1 (base Shasta): intra-node hardware sharing is invisible
	// to the trace, so the injected accesses must all be protocol events.
	rcol := &shasta.CollectorTracer{}
	if _, err := apps.ExecuteObserved(apps.NewRacy(1, "drop-lock"),
		shasta.Config{Procs: 8, Clustering: 1}, false, rcol); err != nil {
		t.Fatal(err)
	}
	writeTrace(t, filepath.Join(dir, "racy.jsonl"), rcol.Events)

	writeMetrics(t, filepath.Join(dir, "threehop.json"), threehopRun().Metrics())

	mcol := &shasta.CollectorTracer{}
	migrateRun(mcol)
	writeTrace(t, filepath.Join(dir, "migrate.jsonl"), mcol.Events)

	r, err := apps.ExecuteObserved(apps.Registry["LU"](1),
		shasta.Config{Procs: 8, Clustering: 4, LineSize: 256}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeMetrics(t, filepath.Join(dir, "lu256.json"), r.Metrics)

	byBlk := map[int]int{}
	for _, e := range col.Events {
		if e.BaseLine >= 0 {
			byBlk[e.BaseLine]++
		}
	}
	busiest, n := -1, 0
	for blk, c := range byBlk {
		if c > n {
			busiest, n = blk, c
		}
	}
	var filtered []protocol.TraceEvent
	for _, e := range col.Events {
		if e.BaseLine == busiest {
			filtered = append(filtered, e)
		}
	}
	writeTrace(t, filepath.Join(dir, "filtered.jsonl"), filtered)

	var corrupt []protocol.TraceEvent
	dropped := false
	for _, e := range col.Events {
		if !dropped && e.Op == "send" && e.Msg == "DataReply" {
			dropped = true
			continue
		}
		corrupt = append(corrupt, e)
	}
	if !dropped {
		t.Fatal("fixture run produced no DataReply send")
	}
	for i := range corrupt {
		corrupt[i].Seq = uint64(i + 1) // close the gap: the anomaly is the orphan handle
	}
	writeTrace(t, filepath.Join(dir, "corrupt.jsonl"), corrupt)
}

// TestFixturesDoNotDrift regenerates the input fixtures from fresh runs and
// requires them to equal the committed ones byte for byte, so a change that
// moves a trace or a snapshot cannot leave the goldens testing stale input.
func TestFixturesDoNotDrift(t *testing.T) {
	dir := t.TempDir()
	regenFixtures(t, dir)
	fresh, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 8 {
		t.Errorf("regenerated %d fixtures, want the 8 regenFixtures documents", len(fresh))
	}
	for _, f := range fresh {
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("testdata/%s differs from a fresh run (%d vs %d bytes); regenerate with -update if the change is intended",
				f.Name(), len(want), len(got))
		}
	}
}

func TestGolden(t *testing.T) {
	if *update {
		regenFixtures(t, "testdata")
	}
	cases := []struct {
		name     string
		args     []string
		wantCode int
	}{
		{"summarize", []string{"summarize", "testdata/small.jsonl"}, 0},
		{"timeline", []string{"timeline", "8", "testdata/small.jsonl"}, 0},
		{"diff-equal", []string{"diff", "testdata/small.jsonl", "testdata/small.jsonl"}, 0},
		{"diff-unequal", []string{"diff", "testdata/small.jsonl", "testdata/filtered.jsonl"}, 1},
		{"breakdown-metrics", []string{"breakdown", "testdata/bench.json"}, 0},
		{"breakdown-trace", []string{"breakdown", "testdata/small.jsonl"}, 0},
		{"hist-metrics", []string{"hist", "testdata/bench.json"}, 0},
		{"hist-trace", []string{"hist", "testdata/small.jsonl"}, 0},
		// hist-empty.json and hist-single.json are hand-written edge-case
		// fixtures (not regenerated by -update): an empty histogram plus a
		// malformed all-zero-bucket one, and a single-bucket histogram. Both
		// must render without est lines going NaN or dividing by zero.
		{"hist-empty", []string{"hist", "testdata/hist-empty.json"}, 0},
		{"hist-single", []string{"hist", "testdata/hist-single.json"}, 0},
		{"critpath", []string{"critpath", "testdata/small.jsonl"}, 0},
		{"critpath-gapped", []string{"critpath", "testdata/filtered.jsonl"}, 0},
		{"spans", []string{"spans", "-top", "3", "testdata/small.jsonl"}, 0},
		{"spans-gapped", []string{"spans", "-top", "0", "testdata/filtered.jsonl"}, 0},
		{"phases", []string{"phases", "-w", "4", "testdata/small.jsonl"}, 0},
		{"check-clean", []string{"check", "testdata/small.jsonl"}, 0},
		{"check-corrupt", []string{"check", "testdata/corrupt.jsonl"}, 1},
		{"check-gapped", []string{"check", "testdata/filtered.jsonl"}, 0},
		{"races-clean", []string{"races", "testdata/small.jsonl"}, 0},
		{"races-racy", []string{"races", "testdata/racy.jsonl"}, 1},
		{"sync", []string{"sync", "-top", "3", "testdata/small.jsonl"}, 0},
		// filtered.jsonl carries no sync events at all: the sync and skew
		// reports must degrade to gapped/empty accounting, still exit 0.
		{"sync-gapped", []string{"sync", "testdata/filtered.jsonl"}, 0},
		{"sync-racy", []string{"sync", "-top", "2", "testdata/racy.jsonl"}, 0},
		{"skew", []string{"skew", "testdata/small.jsonl"}, 0},
		{"skew-gapped", []string{"skew", "testdata/filtered.jsonl"}, 0},
		{"migrations", []string{"migrations", "testdata/migrate.jsonl"}, 0},
		{"migrations-none", []string{"migrations", "testdata/small.jsonl"}, 0},
		{"migrations-timeline", []string{"timeline", "0", "testdata/migrate.jsonl"}, 0},
		{"filter", []string{"filter", "-p", "4", "-op", "send,handle", "testdata/small.jsonl"}, 0},
		{"blocks", []string{"blocks", "-n", "10", "testdata/bench.json"}, 0},
		{"blocks-lu256", []string{"blocks", "-n", "10", "testdata/lu256.json"}, 0},
		{"falseshare", []string{"falseshare", "testdata/bench.json"}, 0},
		{"falseshare-lu256", []string{"falseshare", "testdata/lu256.json"}, 0},
		{"advise", []string{"advise", "testdata/bench.json"}, 0},
		{"advise-threehop", []string{"advise", "testdata/threehop.json"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.wantCode, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s",
					golden, stdout.String(), want)
			}
		})
	}
}

func TestExportChromeFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"export-chrome", "testdata/small.jsonl"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
	}
	var out []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty export")
	}
}

func TestCheckReportsCorruption(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"check", "testdata/corrupt.jsonl"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "FAIL") ||
		!strings.Contains(stdout.String(), "handle-has-send") {
		t.Fatalf("report:\n%s", stdout.String())
	}
}

// TestExitCodes pins the documented contract: 2 for usage/I-O/schema
// problems, 1 only for analyses that found a difference or violation.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-args", nil, 2},
		{"unknown-cmd", []string{"frobnicate"}, 2},
		{"summarize-no-files", []string{"summarize"}, 2},
		{"missing-file", []string{"summarize", "testdata/nope.jsonl"}, 2},
		{"wrong-schema", []string{"summarize", "testdata/bench.json"}, 2},
		{"breakdown-wrong-schema", []string{"breakdown", "main.go"}, 2},
		{"timeline-bad-block", []string{"timeline", "x", "testdata/small.jsonl"}, 2},
		{"filter-bad-flag", []string{"filter", "-sample", "x", "testdata/small.jsonl"}, 2},
		{"diff-one-file", []string{"diff", "testdata/small.jsonl"}, 2},
		{"mixed-metrics-trace", []string{"hist", "testdata/bench.json", "testdata/small.jsonl"}, 2},
		{"blocks-on-trace", []string{"blocks", "testdata/small.jsonl"}, 2},
		{"blocks-no-file", []string{"blocks"}, 2},
		{"falseshare-two-files", []string{"falseshare", "testdata/bench.json", "testdata/threehop.json"}, 2},
		{"advise-on-trace", []string{"advise", "testdata/small.jsonl"}, 2},
		{"races-no-files", []string{"races"}, 2},
		{"races-on-metrics", []string{"races", "testdata/bench.json"}, 2},
		{"races-gapped", []string{"races", "testdata/filtered.jsonl"}, 2},
		{"spans-no-file", []string{"spans"}, 2},
		{"spans-on-metrics", []string{"spans", "testdata/bench.json"}, 2},
		{"phases-bad-flag", []string{"phases", "-w", "x", "testdata/small.jsonl"}, 2},
		{"sync-no-files", []string{"sync"}, 2},
		{"sync-bad-flag", []string{"sync", "-top", "x", "testdata/small.jsonl"}, 2},
		{"sync-on-metrics", []string{"sync", "testdata/bench.json"}, 2},
		{"skew-no-files", []string{"skew"}, 2},
		{"skew-on-metrics", []string{"skew", "testdata/bench.json"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.want, stderr.String())
			}
			if tc.want == 2 && stderr.Len() == 0 {
				t.Fatal("usage/schema error produced no stderr diagnostics")
			}
		})
	}
}

// TestUsageDocumentsExitCodes keeps the usage text honest: every subcommand
// is listed with a description and the 0/1/2 exit status contract appears.
func TestUsageDocumentsExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run(nil, &stdout, &stderr)
	for _, want := range []string{
		"exit status", "summarize", "filter", "timeline", "diff", "check",
		"critpath", "export-chrome", "breakdown", "hist",
		"blocks", "falseshare", "advise", "races", "spans", "phases",
		"sync", "skew",
		"0  success", "1  analysis found", "2  usage",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage text missing %q", want)
		}
	}
}

// TestHelpFlag pins -h/help: usage on stdout, exit 0.
func TestHelpFlag(t *testing.T) {
	for _, arg := range []string{"-h", "--help", "help"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg}, &stdout, &stderr); code != 0 {
			t.Errorf("%s: exit code %d, want 0", arg, code)
		}
		if !strings.Contains(stdout.String(), "usage:") {
			t.Errorf("%s printed no usage on stdout", arg)
		}
	}
}

// TestRacesGappedTraceExits2 pins the detector's soundness guard: a
// filtered (gapped) trace is missing synchronization events, so running
// races over it must be a hard error with a clear diagnostic — never a
// spurious "race-free" verdict.
func TestRacesGappedTraceExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"races", "testdata/filtered.jsonl"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2; stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "seq gaps") {
		t.Fatalf("diagnostic does not name the gapped trace:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "ok:") {
		t.Fatalf("gapped trace must not be reported race-free:\n%s", stdout.String())
	}
}

// TestConcatenatedSegmentsExit2: two segments joined into one file (a cat
// of rotated segments) are a usage error naming the second header, not a
// trace with a phantom event that summarize counts and check flags.
func TestConcatenatedSegmentsExit2(t *testing.T) {
	data, err := os.ReadFile("testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "joined.jsonl")
	if err := os.WriteFile(path, append(data, data...), 0o644); err != nil {
		t.Fatal(err)
	}
	line := bytes.Count(data, []byte("\n")) + 1
	for _, cmd := range []string{"summarize", "check"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{cmd, path}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit code %d, want 2; stdout:\n%s", cmd, code, stdout.String())
		}
		if want := fmt.Sprintf("line %d: bad trace event: a trace header inside the trace", line); !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: diagnostic %q does not say %q", cmd, stderr.String(), want)
		}
	}
}

// TestRacesFlagsInjectedRace is the detector's acceptance check on a real
// workload trace: the drop-lock fixture must produce at least one race whose
// evidence names the contended counter accesses, with witness lines.
func TestRacesFlagsInjectedRace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"races", "testdata/racy.jsonl"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"RACES:", "race 1:", "witness:", "p1"} {
		if !strings.Contains(out, want) {
			t.Errorf("races report missing %q:\n%s", want, out)
		}
	}
}

// TestFalseshareFlagsLU256 is the paper-grounded acceptance check: at
// 256-byte lines, LU's row-major layout puts adjacent 16x16 blocks with
// different 2D-cyclic owners into one coherence block, and falseshare must
// flag at least one such block with disjoint per-writer offset evidence.
func TestFalseshareFlagsLU256(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"falseshare", "testdata/lu256.json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "falsely-shared block") || !strings.Contains(out, "writes") {
		t.Fatalf("no falsely-shared block flagged:\n%s", out)
	}
}

// TestAdviseBeatsConfiguredHome is the advisor's acceptance check: on the
// 3-hop-heavy threehop fixture (home on node 0, owner and traffic pattern
// favoring node 1) advise must propose a home whose hop-weighted cost beats
// the configured one.
func TestAdviseBeatsConfiguredHome(t *testing.T) {
	f, err := os.Open("testdata/threehop.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obsv.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range snap.Blocks {
		e := &snap.Blocks[i]
		if e.AdvisedNode != e.HomeNode && e.SavingsCycles > 0 {
			found = true
			if e.AdvisedCost >= e.HomeCost {
				t.Errorf("block %d: advised cost %d does not beat home cost %d",
					e.Block, e.AdvisedCost, e.HomeCost)
			}
		}
	}
	if !found {
		t.Fatal("advisor proposed no home beating the configured one on a 3-hop-heavy run")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"advise", "testdata/threehop.json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "node1") {
		t.Fatalf("advise output proposes no alternative home:\n%s", stdout.String())
	}
}
