package obsv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// collectRun executes the fixed workload with a collector attached and
// returns the cluster and the recorded events.
func collectRun(t *testing.T) (*shasta.Cluster, []protocol.TraceEvent) {
	t.Helper()
	col := &shasta.CollectorTracer{}
	cluster := traceRun(t, col)
	if len(col.Events) == 0 {
		t.Fatal("no events collected")
	}
	return cluster, col.Events
}

func TestBreakdownSumsToCycles(t *testing.T) {
	cluster := traceRun(t, nil)
	m := cluster.Metrics()
	if len(m.Breakdown) != 8 {
		t.Fatalf("%d breakdown entries, want 8", len(m.Breakdown))
	}
	for _, e := range m.Breakdown {
		sum := e.Task + e.Read + e.Write + e.Sync + e.Message + e.Other + e.Idle
		if sum != e.Total {
			t.Errorf("p%d: categories sum to %d, total is %d", e.Proc, sum, e.Total)
		}
		if e.Total != m.Cycles {
			t.Errorf("p%d: total %d != parallel time %d", e.Proc, e.Total, m.Cycles)
		}
		for name, v := range map[string]int64{
			"task": e.Task, "read": e.Read, "write": e.Write, "sync": e.Sync,
			"message": e.Message, "other": e.Other, "idle": e.Idle, "downgrade": e.Downgrade,
		} {
			if v < 0 {
				t.Errorf("p%d: negative %s component %d", e.Proc, name, v)
			}
		}
	}
	out := obsv.FormatBreakdown(m)
	if !strings.Contains(out, "dgrade*") || !strings.Contains(out, "parallel time") {
		t.Fatalf("FormatBreakdown output:\n%s", out)
	}
	if out != obsv.FormatBreakdown(m) {
		t.Fatal("FormatBreakdown not deterministic")
	}
}

func TestSnapshotHistograms(t *testing.T) {
	cluster := traceRun(t, nil)
	m := cluster.Metrics()
	if len(m.Histograms) == 0 {
		t.Fatal("no miss-latency histograms recorded")
	}
	sawRemote := false
	for key, h := range m.Histograms {
		var sum int64
		for _, n := range h.Buckets {
			sum += n
		}
		if sum != h.Count {
			t.Errorf("%s: buckets sum to %d, count is %d", key, sum, h.Count)
		}
		if h.Count == 0 {
			t.Errorf("%s: empty histogram should have been omitted", key)
		}
		if len(h.Buckets) > 0 && h.Buckets[len(h.Buckets)-1] == 0 {
			t.Errorf("%s: trailing zero bucket not trimmed", key)
		}
		dash := strings.LastIndex(key, "-")
		if dash < 0 {
			t.Fatalf("histogram key %q not of the form <kind>-<dist>", key)
		}
		if dist := key[dash+1:]; dist != "local" && dist != "remote" {
			t.Fatalf("histogram key %q has distance %q", key, dist)
		} else if dist == "remote" {
			sawRemote = true
		}
	}
	// The contended block forces cross-node fetches on an 8p/4c cluster.
	if !sawRemote {
		t.Fatal("no remote-home histogram despite cross-node sharing")
	}
	out := obsv.FormatHistograms(m.Histograms)
	if !strings.Contains(out, "samples") || out != obsv.FormatHistograms(m.Histograms) {
		t.Fatalf("FormatHistograms not deterministic or empty:\n%s", out)
	}
}

func TestTraceHistograms(t *testing.T) {
	hists, unmatched := obsv.TraceHistograms(fakeEvents())
	if unmatched != 1 {
		t.Fatalf("unmatched = %d, want 1 (the trailing miss)", unmatched)
	}
	h, ok := hists["shared"]
	if !ok || h.Count != 1 {
		t.Fatalf("histograms = %+v, want one shared sample", hists)
	}
	var sum int64
	for _, n := range h.Buckets {
		sum += n
	}
	if sum != 1 {
		t.Fatalf("bucket sum %d != count 1", sum)
	}
}

func TestCheckerCleanRun(t *testing.T) {
	_, events := collectRun(t)
	c := obsv.CheckTrace(events)
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("clean run produced violations:\n%s", c.Report())
	}
	if c.Gapped() {
		t.Fatal("unfiltered trace reported as gapped")
	}
	if !strings.HasPrefix(c.Report(), "ok:") {
		t.Fatalf("report: %q", c.Report())
	}
}

func TestCheckerCatchesCorruption(t *testing.T) {
	_, events := collectRun(t)
	corrupt := func(name, rule string, mutate func([]protocol.TraceEvent) []protocol.TraceEvent) {
		t.Run(name, func(t *testing.T) {
			mutated := mutate(append([]protocol.TraceEvent(nil), events...))
			c := obsv.CheckTrace(mutated)
			found := false
			for _, v := range c.Violations() {
				if v.Rule == rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("corruption not caught; report:\n%s", c.Report())
			}
		})
	}
	corrupt("duplicate-seq", "seq-monotone", func(ev []protocol.TraceEvent) []protocol.TraceEvent {
		ev[10].Seq = ev[9].Seq
		return ev
	})
	corrupt("time-goes-backward", "time-monotone", func(ev []protocol.TraceEvent) []protocol.TraceEvent {
		// Find a processor's second event and rewind it below its first.
		seen := map[int]int64{}
		for i := range ev {
			if first, ok := seen[ev[i].Proc]; ok && ev[i].Time >= first {
				ev[i].Time = first - 1
				return ev
			}
			if _, ok := seen[ev[i].Proc]; !ok {
				seen[ev[i].Proc] = ev[i].Time
			}
		}
		t.Fatal("no event to rewind")
		return ev
	})
	corrupt("orphan-handle", "handle-has-send", func(ev []protocol.TraceEvent) []protocol.TraceEvent {
		// Drop every send of the kind a later handle consumes.
		for i := range ev {
			if ev[i].Op == "handle" && ev[i].Msg == "DataReply" {
				out := ev[:0]
				for _, e := range ev {
					if e.Op == "send" && e.Msg == "DataReply" && e.BaseLine == ev[i].BaseLine {
						continue
					}
					out = append(out, e)
				}
				// Renumber so the only anomaly is the missing send, not a gap.
				for j := range out {
					out[j].Seq = uint64(j + 1)
				}
				return out
			}
		}
		t.Fatal("no DataReply handle in trace")
		return ev
	})
	corrupt("install-without-reply", "install-has-reply", func(ev []protocol.TraceEvent) []protocol.TraceEvent {
		for i := range ev {
			if ev[i].Op == "handle" && ev[i].Msg == "DataReply" {
				ev[i].Msg = "ReadReq" // reply handle vanishes; install is orphaned
				return ev
			}
		}
		t.Fatal("no DataReply handle in trace")
		return ev
	})
	corrupt("double-exclusive", "single-exclusive", func(ev []protocol.TraceEvent) []protocol.TraceEvent {
		// Duplicate an exclusive grant (handle+install) with no intervening
		// downgrade: two live exclusive owners in trace order.
		for i := range ev {
			if grant := ev[i].Grant; ev[i].Op == "install" && grant != protocol.GrantShared {
				h := ev[i]
				h.Op = "handle"
				h.Msg = map[protocol.Grant]string{protocol.GrantExclusive: "DataExclReply", protocol.GrantUpgrade: "UpgradeAck"}[grant]
				h.TraceFields = protocol.TraceFields{}
				dup := append([]protocol.TraceEvent(nil), ev[:i+1]...)
				dup = append(dup, h, ev[i])
				dup = append(dup, ev[i+1:]...)
				for j := range dup {
					dup[j].Seq = uint64(j + 1)
					dup[j].Time = int64(j + 1) // keep per-proc time monotone
				}
				return dup
			}
		}
		t.Fatal("no exclusive install in trace")
		return ev
	})
}

func TestCheckerGapTolerance(t *testing.T) {
	_, events := collectRun(t)
	// Keep only every third event: state-dependent rules must degrade to
	// warnings, not fire as violations.
	var sampled []protocol.TraceEvent
	for i, e := range events {
		if i%3 == 0 {
			sampled = append(sampled, e)
		}
	}
	c := obsv.CheckTrace(sampled)
	if !c.Gapped() {
		t.Fatal("sampled trace not detected as gapped")
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("gapped trace produced hard violations:\n%s", c.Report())
	}
	// The report counts the events replayed, not the last seq it saw.
	if want := fmt.Sprintf("ok: %d events replayed", len(sampled)); !strings.HasPrefix(c.Report(), want) {
		t.Fatalf("report %q, want prefix %q", c.Report(), want)
	}
}

func TestCausalGapTolerance(t *testing.T) {
	_, events := collectRun(t)
	// A block filter is the common way to gap a trace (shastatrace filter);
	// causal pairing must warn rather than mis-pair. Keep the busiest block.
	byBlk := map[int]int{}
	for _, e := range events {
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
	for _, e := range events {
		if e.BaseLine == busiest {
			filtered = append(filtered, e)
		}
	}
	if len(filtered) == 0 || len(filtered) == len(events) {
		t.Fatalf("filter kept %d of %d events", len(filtered), len(events))
	}
	c := obsv.BuildCausal(filtered)
	if !c.Gapped {
		t.Fatal("filtered trace not detected as gapped")
	}
	warned := false
	for _, w := range c.Warnings {
		if strings.Contains(w, "seq gaps") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no gap warning; warnings = %v", c.Warnings)
	}
	// Every recovered message edge must still pair a send with a handle of
	// the same kind and block, send strictly before handle.
	for _, l := range c.Legs {
		if l.Send < 0 || l.Handle < 0 {
			continue
		}
		snd, hnd := c.Events[l.Send], c.Events[l.Handle]
		if snd.Op != "send" || hnd.Op != "handle" || snd.Msg != hnd.Msg ||
			snd.BaseLine != hnd.BaseLine || snd.Seq >= hnd.Seq {
			t.Fatalf("mis-paired edge: send %+v -> handle %+v", snd, hnd)
		}
	}
	// The critical path still computes on a gapped trace.
	cp := c.CriticalPath()
	if len(cp.Path) == 0 {
		t.Fatal("no critical path on filtered trace")
	}
}

// checkLegRequesters asserts that every matched leg pairs a handle with a
// send from the processor the handle says the message came from: requests
// and the sender-named sync kinds carry the sender in the handle's Req,
// forwards carry the requester their xmit named, replies are handled by the
// requester they were sent to. It returns how many legs it checked.
func checkLegRequesters(t *testing.T, c *obsv.Causal) (checked int) {
	t.Helper()
	for _, l := range c.Legs {
		if l.Send < 0 || l.Handle < 0 {
			continue
		}
		snd, hnd := &c.Events[l.Send], &c.Events[l.Handle]
		if !hnd.Typed {
			continue
		}
		ok := true
		switch hnd.Msg {
		case "ReadReq", "ReadExclReq", "UpgradeReq", "LockReq", "LockRel", "BarArrive":
			ok = int(hnd.Req) == snd.Proc
		case "ReadFwd", "ReadExclFwd":
			ok = l.Xmit < 0 || c.Events[l.Xmit].Req == hnd.Req
		case "DataReply", "DataExclReply", "UpgradeAck":
			ok = int(snd.Peer) == hnd.Proc && int(l.Req) == hnd.Proc
		default:
			continue
		}
		if !ok {
			t.Errorf("handle seq=%d %s blk%d at p%d (R%d) paired with send seq=%d by p%d",
				hnd.Seq, hnd.Msg, hnd.BaseLine, hnd.Proc, hnd.Req, snd.Seq, snd.Proc)
		}
		checked++
	}
	return checked
}

// TestCausalPairsByRequester pins the one pairing rule. Two requesters'
// ReadReq for one block reach the same home and are handled in the opposite
// order of their sends (the intra-node queue beat the Memory Channel), and
// the home re-dispatches one of them later from its requeue, with no send.
// Arrival-order matching pairs each handle with the other requester's send
// and the re-dispatch with whatever is left; the index must pair by the
// requester each handle names and leave the re-dispatch without a send.
func TestCausalPairsByRequester(t *testing.T) {
	var b traceBuilder
	b.ev(100, 4, "send", "ReadReq", 0, "to p0 seq=0 acks=0")
	b.ev(120, 5, "send", "ReadReq", 0, "to p0 seq=0 acks=0")
	b.ev(300, 0, "handle", "ReadReq", 0, "from R5 seq=0: state=Pr priv=I seq=0 entry=-")
	b.ev(900, 0, "handle", "ReadReq", 0, "from R4 seq=0: state=Pr priv=I seq=0 entry=-")
	b.ev(1500, 0, "handle", "ReadReq", 0, "from R5 seq=0: state=S priv=I seq=1 entry=-")
	c := obsv.BuildCausal(b.evs)
	if got := checkLegRequesters(t, c); got != 2 {
		t.Fatalf("%d matched legs, want 2", got)
	}
	if c.SendOf(2) != 1 || c.SendOf(3) != 0 || c.SendOf(4) != -1 {
		t.Fatalf("handles paired with sends %d, %d, %d; want 1, 0, -1",
			c.SendOf(2), c.SendOf(3), c.SendOf(4))
	}
	if len(c.Warnings) != 1 || !strings.Contains(c.Warnings[0], "handle without visible send: seq=5") {
		t.Fatalf("warnings %q, want only the re-dispatch's", c.Warnings)
	}
}

// TestCausalRequestersOnRealTraces holds the same invariant over the
// committed fixtures and a fresh 16-processor Water-Nsq run, whose hot
// blocks and per-molecule locks do draw concurrent same-kind messages.
func TestCausalRequestersOnRealTraces(t *testing.T) {
	traces := map[string][]protocol.TraceEvent{}
	for _, name := range []string{"small", "racy", "migrate"} {
		f, err := os.Open("../../cmd/shastatrace/testdata/" + name + ".jsonl")
		if err != nil {
			t.Fatal(err)
		}
		_, events, err := obsv.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traces[name] = events
	}
	col := &shasta.CollectorTracer{}
	if _, err := apps.ExecuteObserved(apps.Registry["Water-Nsq"](1),
		shasta.Config{Procs: 16, Clustering: 4}, false, col); err != nil {
		t.Fatal(err)
	}
	traces["Water-Nsq p16"] = col.Events
	for name, events := range traces {
		c := obsv.BuildCausal(events)
		if c.Gapped || c.BadSeq >= 0 {
			t.Fatalf("%s: not a complete trace", name)
		}
		if n := checkLegRequesters(t, c); n == 0 {
			t.Errorf("%s: no leg checked", name)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	_, events := collectRun(t)
	c := obsv.BuildCausal(events)
	if c.Gapped {
		t.Fatal("full trace reported gapped")
	}
	cp := c.CriticalPath()
	if cp.Cycles <= 0 || len(cp.Path) < 2 {
		t.Fatalf("critical path too small: %d cycles, %d events", cp.Cycles, len(cp.Path))
	}
	if cp.MsgEdges == 0 {
		t.Fatal("critical path crosses no messages on a communicating workload")
	}
	// The telescoping edge weights mean the chain's elapsed time is the
	// endpoints' time difference.
	first, last := c.Events[cp.Path[0]], c.Events[cp.Path[len(cp.Path)-1]]
	if got := last.Time - first.Time; got != cp.Cycles {
		t.Fatalf("path cycles %d != endpoint delta %d", cp.Cycles, got)
	}
	// Each step follows a real edge.
	for i := 1; i < len(cp.Path); i++ {
		cur, prev := cp.Path[i], cp.Path[i-1]
		if c.SendOf(cur) == prev {
			continue
		}
		if int(c.PrevOf[cur]) == prev {
			continue
		}
		t.Fatalf("path step %d -> %d follows no edge", prev, cur)
	}
	out := cp.Format(c)
	if !strings.Contains(out, "critical path:") || !strings.Contains(out, "in flight") {
		t.Fatalf("Format output:\n%s", out)
	}
	// Deterministic: a second reconstruction renders identically.
	c2 := obsv.BuildCausal(events)
	if out != c2.CriticalPath().Format(c2) {
		t.Fatal("critical path not deterministic")
	}
}

func TestExportChrome(t *testing.T) {
	_, events := collectRun(t)
	var buf bytes.Buffer
	if err := obsv.ExportChrome(events, &buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	byPh := map[string]int{}
	for _, e := range out {
		byPh[e["ph"].(string)]++
	}
	if byPh["M"] != 8 {
		t.Fatalf("%d thread_name metadata events, want 8", byPh["M"])
	}
	if byPh["i"] != len(events) {
		t.Fatalf("%d instant events, want %d", byPh["i"], len(events))
	}
	if byPh["s"] == 0 || byPh["s"] != byPh["f"] {
		t.Fatalf("flow events unbalanced: %d starts, %d finishes", byPh["s"], byPh["f"])
	}
	var buf2 bytes.Buffer
	if err := obsv.ExportChrome(events, &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export not deterministic")
	}
}

func TestTraceBreakdown(t *testing.T) {
	out := obsv.TraceBreakdown(fakeEvents())
	for _, want := range []string{"approximate", "p4 ", "install", "events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("TraceBreakdown missing %q:\n%s", want, out)
		}
	}
}
