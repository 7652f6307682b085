package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestProfilesAreWrittenOrRefusedUpFront checks both halves of the profile
// flags' contract: an unwritable path — for either profile — is an error
// before anything runs (main prints it as a shastabench: diagnostic and
// exits 1), and writable paths receive non-empty profiles when stopped.
func TestProfilesAreWrittenOrRefusedUpFront(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "x.prof")
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	for _, paths := range [][2]string{{missing, ""}, {"", missing}, {cpu, missing}} {
		if _, err := startProfiles(paths[0], paths[1]); err == nil {
			t.Errorf("startProfiles(%q, %q) accepted an unwritable path", paths[0], paths[1])
		}
	}
	// The refused {cpu, missing} pair must have stopped the CPU profile it
	// started, or this start fails with "cpu profiling already in use".
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
	if stop, err := startProfiles("", ""); err != nil || stop() != nil {
		t.Errorf("no profiles asked for: start %v", err)
	}
}

// TestFailedCellEndsNothingButTheExitStatus runs the one experiment cell
// known to fail (EXPERIMENTS.md, "Known failure") ahead of another
// experiment: the failure is a `failed` column and exit status 1, and the
// experiment after it still prints its report.
func TestFailedCellEndsNothingButTheExitStatus(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	clean := runExperiments([]string{"micro"}, harness.Options{})
	code := runExperiments([]string{"table2", "micro"}, harness.Options{Apps: []string{"Water-Nsq"}})
	os.Stdout = stdout
	if clean != 0 || code != 1 {
		t.Errorf("exit codes %d for micro alone and %d with the failing cell, want 0 and 1", clean, code)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== table2:", "failed", "=== micro:", "intra-node 64B fetch"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("stdout lacks %q:\n%s", want, report)
		}
	}
}
