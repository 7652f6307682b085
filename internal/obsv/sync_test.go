package obsv_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/protocol"
)

// syncTraceRun executes a workload with real lock and barrier contention
// and returns its trace events plus the metrics snapshot.
func syncTraceRun(t *testing.T) ([]protocol.TraceEvent, *obsv.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	sink := obsv.NewJSONLWriterSink(&buf)
	cluster := traceRun(t, sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	_, events, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events, cluster.Metrics()
}

func TestBuildSyncLifecycles(t *testing.T) {
	events, snap := syncTraceRun(t)
	ss := obsv.BuildSync(events)
	if ss.Gapped {
		t.Fatal("complete trace reported gapped")
	}
	if got := ss.DroppedTotal(); got != 0 {
		t.Fatalf("complete trace dropped %d lifecycles: %v", got, ss.Dropped)
	}
	// traceRun: 8 processors, one lock acquired once each, two barriers.
	if len(ss.Locks) != 1 || ss.Locks[0].ID != 0 {
		t.Fatalf("locks %+v", ss.Locks)
	}
	l := &ss.Locks[0]
	if len(l.Acquires) != 8 {
		t.Fatalf("lock 0 has %d acquires, want 8", len(l.Acquires))
	}
	if l.Contended == 0 {
		t.Fatal("8 processors on one lock produced no contended acquire")
	}
	for i := range l.Acquires {
		a := &l.Acquires[i]
		if a.Wait() < 0 || a.Hold() < 0 {
			t.Fatalf("acquire %d has negative wait/hold: %+v", i, a)
		}
		if i > 0 && a.Prev != l.Acquires[i-1].Proc {
			t.Fatalf("hand-off chain broken at %d: prev=%d, previous holder p%d",
				i, a.Prev, l.Acquires[i-1].Proc)
		}
	}
	if l.Acquires[0].Prev != -1 {
		t.Fatalf("first grant's prev is %d, want -1", l.Acquires[0].Prev)
	}
	// Two explicit barriers plus the run's implicit final barrier.
	if len(ss.Gens) != 3 {
		t.Fatalf("barrier generations %d, want 3", len(ss.Gens))
	}
	for _, g := range ss.Gens {
		if g.Arrivals != 8 || g.Departs != 8 {
			t.Fatalf("gen %d arrivals/departs %d/%d, want 8/8", g.Gen, g.Arrivals, g.Departs)
		}
		if g.Straggler < 0 || g.ArriveSkew() < 0 || g.DepartSkew() <= 0 {
			t.Fatalf("gen %d profile %+v", g.Gen, g)
		}
	}
	if len(ss.WaitFor) == 0 {
		t.Fatal("contended lock produced no wait-for edges")
	}

	// The trace-derived totals must reconcile exactly with the metrics
	// registry's per-primitive counters: both record the same instants.
	var sm *obsv.SyncMetrics
	var barWait int64
	for i := range snap.Sync {
		s := &snap.Sync[i]
		switch s.Kind {
		case "lock":
			sm = s
		case "barrier":
			barWait = s.WaitCycles
		}
	}
	if sm == nil {
		t.Fatal("snapshot has no lock sync metrics")
	}
	if int64(len(l.Acquires)) != sm.Acquires || int64(l.Contended) != sm.Contended {
		t.Fatalf("acquires %d/%d vs metrics %d/%d",
			len(l.Acquires), l.Contended, sm.Acquires, sm.Contended)
	}
	if l.WaitTotal != sm.WaitCycles || l.HoldTotal != sm.HoldCycles {
		t.Fatalf("trace wait/hold %d/%d, metrics %d/%d",
			l.WaitTotal, l.HoldTotal, sm.WaitCycles, sm.HoldCycles)
	}
	var traceBarWait int64
	for _, g := range ss.Gens {
		traceBarWait += g.WaitTotal
	}
	if traceBarWait != barWait {
		t.Fatalf("trace barrier wait %d, metrics %d", traceBarWait, barWait)
	}

	// Deterministic, non-empty reports.
	rep := obsv.FormatSync(ss, 3)
	if rep != obsv.FormatSync(obsv.BuildSync(events), 3) {
		t.Fatal("FormatSync not deterministic")
	}
	for _, want := range []string{"lock 0", "chain:", "wait-for", "critical-path share"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("sync report missing %q:\n%s", want, rep)
		}
	}
	skew := obsv.FormatSkew(ss)
	if skew != obsv.FormatSkew(obsv.BuildSync(events)) {
		t.Fatal("FormatSkew not deterministic")
	}
	for _, want := range []string{"arrive-skew", "depart-skew", "stragglers:"} {
		if !strings.Contains(skew, want) {
			t.Fatalf("skew report missing %q:\n%s", want, skew)
		}
	}
}

// TestBuildSyncGapped pins graceful degradation: a sampled trace with seq
// gaps and half-missing lifecycles yields Dropped accounting, a gapped
// warning, and a renderable report — never an error or panic.
func TestBuildSyncGapped(t *testing.T) {
	events, _ := syncTraceRun(t)
	// Drop every grant and every barrier departure: all acquires become
	// unmatched, all releases orphaned, all arrivals unmatched.
	var gapped []protocol.TraceEvent
	for _, e := range events {
		if e.Op == "sync" && (e.Sync == protocol.SyncLockAcquired || e.Sync == protocol.SyncBarrierDepart) {
			continue
		}
		gapped = append(gapped, e)
	}
	ss := obsv.BuildSync(gapped)
	if !ss.Gapped {
		t.Fatal("seq-gapped trace not flagged")
	}
	if ss.Dropped["unfinished-acquire"] != 8 {
		t.Fatalf("unfinished acquires %d, want 8: %v", ss.Dropped["unfinished-acquire"], ss.Dropped)
	}
	if ss.Dropped["release-without-acquire"] != 8 {
		t.Fatalf("orphan releases %d, want 8: %v", ss.Dropped["release-without-acquire"], ss.Dropped)
	}
	if ss.Dropped["arrive-without-depart"] != 24 {
		t.Fatalf("unmatched arrivals %d, want 24: %v", ss.Dropped["arrive-without-depart"], ss.Dropped)
	}
	if len(ss.Locks) != 0 {
		t.Fatalf("no lifecycle should survive, got %+v", ss.Locks)
	}
	// Arrival-side skew is still measurable without departures.
	if len(ss.Gens) != 3 || ss.Gens[0].Arrivals != 8 || ss.Gens[0].Departs != 0 {
		t.Fatalf("gens %+v", ss.Gens)
	}
	for _, rep := range []string{obsv.FormatSync(ss, 5), obsv.FormatSkew(ss)} {
		if !strings.Contains(rep, "dropped:") {
			t.Fatalf("degraded report lacks dropped accounting:\n%s", rep)
		}
	}
}

// TestBuildSyncPreExtension pins behavior on traces from before the sync
// enrichment: plain "lock-acquire"/"barrier" events with no grant or
// depart markers degrade to dropped lifecycles, not guesses.
func TestBuildSyncPreExtension(t *testing.T) {
	ss := obsv.BuildSync(decoded([]protocol.TraceEvent{
		{Seq: 1, Time: 10, Proc: 0, Op: "sync", BaseLine: -1, Detail: "lock-acquire id=3"},
		{Seq: 2, Time: 40, Proc: 0, Op: "sync", BaseLine: -1, Detail: "lock-release id=3"},
		{Seq: 3, Time: 50, Proc: 0, Op: "sync", BaseLine: -1, Detail: "barrier gen=0"},
		{Seq: 4, Time: 55, Proc: 1, Op: "sync", BaseLine: -1, Detail: "barrier gen=0"},
	}))
	if len(ss.Locks) != 0 || len(ss.Gens) != 1 {
		t.Fatalf("locks %v gens %v", ss.Locks, ss.Gens)
	}
	if ss.Dropped["unfinished-acquire"] != 1 || ss.Dropped["release-without-acquire"] != 1 ||
		ss.Dropped["arrive-without-depart"] != 2 {
		t.Fatalf("dropped %v", ss.Dropped)
	}
}

// FuzzBuildSync feeds arbitrary event streams to the analyzer: it must
// never panic and must stay deterministic, whatever the trace claims.
func FuzzBuildSync(f *testing.F) {
	f.Add([]byte("sync\x00lock-acquire id=1\x01sync\x00lock-acquired id=1 prev=0 hops=3"))
	f.Add([]byte("sync\x00barrier gen=2\x01sync\x00barrier-depart gen=2"))
	f.Add([]byte("sync\x00lock-release id=9\x01send\x00to p1 seq=4 acks=0 id=9"))
	f.Add([]byte("sync\x00lock-acquired id=-1 prev=-5 hops=99"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var events []protocol.TraceEvent
		for i, rec := range bytes.Split(data, []byte{1}) {
			op, detail, _ := bytes.Cut(rec, []byte{0})
			events = append(events, protocol.TraceEvent{
				Seq: uint64(i * 2), Time: int64(i % 7), Proc: i % 3,
				Op: string(op), BaseLine: -1, Detail: string(detail),
			})
			events[i].DecodeDetail()
		}
		ss := obsv.BuildSync(events)
		if got := obsv.FormatSync(ss, 3); got != obsv.FormatSync(obsv.BuildSync(events), 3) {
			t.Fatal("FormatSync not deterministic")
		}
		if got := obsv.FormatSkew(ss); got != obsv.FormatSkew(obsv.BuildSync(events)) {
			t.Fatal("FormatSkew not deterministic")
		}
	})
}
