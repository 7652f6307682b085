package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// findMetric returns the catalogue entry for name.
func findMetric(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tinyReport runs all six workloads at the tiny size, traced pass and probes
// included.
func tinyReport(t *testing.T) *report {
	t.Helper()
	rep, err := benchmark(options{sz: tinySize, seed: 1, traced: true,
		spansPath: filepath.Join(t.TempDir(), "spans.json"), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSmokeEmitsTheContract runs the whole benchmark at the tiny size and
// checks that it prints exactly the names BENCHMARK.json lists, once per
// workload, with the units it lists, and that nothing failed.
func TestSmokeEmitsTheContract(t *testing.T) {
	c := readContract(t)
	rep := tinyReport(t)
	if len(rep.Workloads) != len(c.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(rep.Workloads), len(c.Workloads))
	}

	wantUnit := map[string]string{"ops_attempted": "", "ops_failed": ""}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		wantUnit[m.Name] = m.Unit
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for name, unit := range wantUnit {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if m, ok := findMetric(name); ok && m.Unit != unit {
			t.Errorf("%s: unit %q in the program, %q in BENCHMARK.json", name, m.Unit, unit)
		}
	}

	// The printed report: a header line per workload, then one indented
	// line per metric.
	var out bytes.Buffer
	rep.print(&out)
	seen := map[string]map[string]int{}
	section := ""
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			section = ""
		case !strings.HasPrefix(line, " ") && section == "":
			section = fields[0]
			seen[section] = map[string]int{}
		case strings.HasPrefix(line, "  ") && section != "":
			seen[section][fields[0]]++
		}
	}
	for i, w := range c.Workloads {
		if rep.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, rep.Workloads[i].Name, w.Name)
		}
		for name := range wantUnit {
			if n := seen[w.Name][name]; n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.Name, name, n)
			}
		}
		for name := range seen[w.Name] {
			if _, ok := wantUnit[name]; !ok {
				t.Errorf("%s: printed %s, which BENCHMARK.json does not list", w.Name, name)
			}
		}
	}

	for _, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted < 3 {
			t.Errorf("%s: %d of %d operations failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		if wr.EndToEnd["virtual_cycles"].Value <= 0 || wr.EndToEnd["wall_s"].Value <= 0 {
			t.Errorf("%s: end-to-end metrics not positive: %+v", wr.Name, wr.EndToEnd)
		}
		// The driver's last line carries the same names.
		for _, layers := range []bool{false, true} {
			var line bytes.Buffer
			if err := printDriverLine(&line, wr, layers); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct bool
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want := c.EndToEnd
			if layers {
				want = c.PerLayer
			}
			if !got.Correct || len(got.Metrics) != len(want) {
				t.Errorf("%s: driver line has %d metrics (correct=%v), want %d", wr.Name, len(got.Metrics), got.Correct, len(want))
			}
			for _, m := range want {
				if got.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s: driver line lacks %s in %s", wr.Name, m.Name, m.Unit)
				}
			}
		}
	}

	// The time shares give each lost cycle one cause.
	pl := rep.Workloads[0].PerLayer
	sum := 0.0
	for _, cat := range []string{"task", "read", "write", "sync", "message", "other"} {
		sum += pl["protocol.share_"+cat]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("time shares sum to %v, want 1", sum)
	}

	// Editing virtual_cycles is a divergence, whatever the host numbers say.
	var same bytes.Buffer
	if !compareReports(rep, rep, &same) {
		t.Errorf("a report does not compare clean against itself:\n%s", same.String())
	}
	edited := *rep
	edited.Workloads = append([]workloadReport(nil), rep.Workloads...)
	e2e := map[string]sample{}
	for k, v := range rep.Workloads[0].EndToEnd {
		e2e[k] = v
	}
	vc := e2e["virtual_cycles"]
	vc.Value++
	e2e["virtual_cycles"] = vc
	edited.Workloads[0].EndToEnd = e2e
	var diff bytes.Buffer
	if compareReports(rep, &edited, &diff) || !strings.Contains(diff.String(), verdictDiverged) {
		t.Errorf("edited virtual_cycles not reported as diverged:\n%s", diff.String())
	}
}

// TestSynthMatchesItsReference checks the seeded program: equal to the
// sequential reference bit for bit, repeatable per seed, different between
// seeds.
func TestSynthMatchesItsReference(t *testing.T) {
	var synth workload
	for _, w := range catalogue(tinySize) {
		if w.name == "synth16-mix" {
			synth = w
		}
	}
	var prev *synthProgram
	for seed := uint64(1); seed <= 3; seed++ {
		rep, err := synth.prepare(seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rep(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.checksum != r.reference || r.checksum == 0 {
			t.Errorf("seed %d: checksum %v, sequential reference %v", seed, r.checksum, r.reference)
		}
		prog := generateSynth(seed, tinySize.synthPhases, tinySize.synthOps)
		if !reflect.DeepEqual(prog, generateSynth(seed, tinySize.synthPhases, tinySize.synthOps)) {
			t.Errorf("seed %d does not repeat its program", seed)
		}
		if prev != nil && reflect.DeepEqual(prog.ops, prev.ops) {
			t.Errorf("seeds %d and %d give the same address stream", seed-1, seed)
		}
		prev = prog
	}
}

// TestWrongResultsAreCountedAsFailed injects a checksum mismatch and an
// unrepeatable rep.
func TestWrongResultsAreCountedAsFailed(t *testing.T) {
	run := func(rep repFunc) workloadReport {
		s := &session{w: workload{name: "injected", reps: 3},
			o: options{sz: tinySize}, rep: rep}
		s.report.EndToEnd = map[string]sample{}
		s.timedPass()
		return s.report
	}
	wrong := run(func(*recorder, int) (repResult, error) {
		return repResult{cycles: 10, checksum: 1.5, reference: 2.5}, nil
	})
	if wrong.Attempted != 3 || wrong.Failed != 3 {
		t.Errorf("checksum mismatch: %d of %d failed, want 3 of 3", wrong.Failed, wrong.Attempted)
	}
	cycles := int64(10)
	drifting := run(func(*recorder, int) (repResult, error) {
		cycles++
		return repResult{cycles: cycles, checksum: 2.5, reference: 2.5}, nil
	})
	if drifting.Failed != 2 {
		t.Errorf("unrepeatable virtual cycles: %d reps failed, want 2", drifting.Failed)
	}
	panicking := run(func(*recorder, int) (repResult, error) { panic("boom") })
	if panicking.Failed != 3 {
		t.Errorf("panicking rep: %d reps failed, want 3", panicking.Failed)
	}
}

// TestCompareVerdicts pins the host-metric rules of `compare`.
func TestCompareVerdicts(t *testing.T) {
	// A fastest-of timing with a well-supported floor, and one whose fastest
	// sample stands alone.
	fastest := func(m float64) sample {
		return sample{Value: m, Min: m, Q1: m * 1.005, Median: m * 1.02, Q3: m * 1.2, Max: m * 1.4}
	}
	lonely := sample{Value: 1, Min: 1, Q1: 1.15, Median: 1.2, Q3: 1.3, Max: 1.4}
	// A median with tight and with wide quartiles.
	median := func(m float64) sample {
		return sample{Value: m, Min: m * 0.99, Q1: m * 0.995, Median: m, Q3: m * 1.005, Max: m * 1.01}
	}
	wide := sample{Value: 1, Min: 0.9, Q1: 0.96, Median: 1, Q3: 1.04, Max: 1.1}
	for _, tc := range []struct {
		metric   string
		old, cur sample
		want     string
	}{
		{"wall_s", fastest(1), fastest(1.05), verdictOK},
		{"wall_s", fastest(1), fastest(1.2), verdictRegressed},
		{"wall_s", fastest(1), fastest(0.8), verdictImproved},
		{"wall_s", lonely, fastest(1.05), verdictUnresolved},
		{"alloc_mb", median(1), median(1.02), verdictOK},
		{"alloc_mb", median(1), median(1.05), verdictRegressed},
		{"alloc_mb", wide, median(1.02), verdictUnresolved},
	} {
		if got := verdict(endToEndMetric(tc.metric), tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict(%v -> %v) = %s, want %s", tc.metric, tc.old.Value, tc.cur.Value, got, tc.want)
		}
	}
}

// TestQuantileMatchesPythonQuartiles pins the quartile rule the spread uses.
func TestQuantileMatchesPythonQuartiles(t *testing.T) {
	v := []float64{10, 2, 3, 4, 5, 6, 7, 8, 9, 1}
	s := summarize(endToEndMetric("alloc_mb"), v)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Value != 5.5 {
		t.Errorf("quartiles %v %v %v, value %v, want 2.75 5.5 8.25 and 5.5", s.Q1, s.Median, s.Q3, s.Value)
	}
	if best := summarize(endToEndMetric("wall_s"), v); best.Value != 1 {
		t.Errorf("wall_s reports %v, want the fastest sample 1", best.Value)
	}
}
