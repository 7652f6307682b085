package obsv_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// traceBuilder assembles synthetic traces with contiguous sequence numbers.
type traceBuilder struct {
	seq uint64
	evs []protocol.TraceEvent
}

func (b *traceBuilder) ev(t int64, proc int, op, msg string, blk int, detail string) {
	b.seq++
	b.evs = append(b.evs, protocol.TraceEvent{
		Seq: b.seq, Time: t, Proc: proc, Op: op, Msg: msg, BaseLine: blk, Detail: detail,
	})
	b.evs[len(b.evs)-1].DecodeDetail()
}

// sumStages asserts that every span's stage durations telescope exactly to
// its end-to-end latency and that no stage is negative.
func sumStages(t *testing.T, ss *obsv.SpanSet) {
	t.Helper()
	for i := range ss.Spans {
		s := &ss.Spans[i]
		var sum int64
		for _, st := range s.Stages {
			if st.Cycles < 0 {
				t.Fatalf("span seq=%d: negative stage %s %d", s.Seq, st.Name, st.Cycles)
			}
			sum += st.Cycles
		}
		if sum != s.Total() {
			t.Fatalf("span seq=%d: stages sum %d, want total %d (%v)", s.Seq, sum, s.Total(), s.Stages)
		}
	}
}

// stageNames extracts a span's stage names in order.
func stageNames(s *obsv.Span) []string {
	names := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		names[i] = st.Name
	}
	return names
}

func TestSpanTwoHopWithXmit(t *testing.T) {
	var b traceBuilder
	b.ev(100, 4, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(110, 4, "send", "ReadReq", 0, "to p0 seq=1 acks=0")
	b.ev(110, 4, "xmit", "ReadReq", 0, "to p0 R4 arrive=1500 queue=40 wire=1200 xfer=150 via=remote")
	b.ev(1600, 0, "handle", "ReadReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(1700, 0, "send", "DataReply", 0, "to p4 seq=2 acks=0")
	b.ev(1700, 0, "xmit", "DataReply", 0, "to p4 R4 arrive=3100 queue=0 wire=1200 xfer=200 via=remote")
	b.ev(3200, 4, "handle", "DataReply", 0, "from R99 seq=2: state=I priv=I seq=0 entry=-")
	b.ev(3300, 4, "install", "", 0, "shared seq=2 hops=2")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 1 || ss.DroppedTotal() != 0 || len(ss.Warnings) != 0 {
		t.Fatalf("spans=%d dropped=%v warnings=%v", len(ss.Spans), ss.Dropped, ss.Warnings)
	}
	sumStages(t, ss)
	s := &ss.Spans[0]
	if s.Requester != 4 || s.Home != 0 || s.Owner != -1 || s.Kind != "read" || s.Hops != 2 {
		t.Fatalf("span %+v", s)
	}
	if s.Total() != 3200 {
		t.Fatalf("total %d, want 3200", s.Total())
	}
	want := []obsv.SpanStage{
		{Name: "issue", Cycles: 10},        // miss 100 -> send 110
		{Name: "req-queue", Cycles: 40},    // lane wait
		{Name: "req-wire", Cycles: 1350},   // xfer+wire to arrival 1500
		{Name: "home-inbox", Cycles: 100},  // arrival -> dispatch 1600
		{Name: "home-serve", Cycles: 100},  // dispatch -> reply send 1700
		{Name: "reply-wire", Cycles: 1400}, // to arrival 3100
		{Name: "reply-inbox", Cycles: 100}, // arrival -> handle 3200
		{Name: "install", Cycles: 100},     // handle -> install 3300
	}
	if len(s.Stages) != len(want) {
		t.Fatalf("stages %v, want %v", s.Stages, want)
	}
	for i := range want {
		if s.Stages[i] != want[i] {
			t.Fatalf("stage %d: %v, want %v", i, s.Stages[i], want[i])
		}
	}
}

func TestSpanThreeHopForward(t *testing.T) {
	var b traceBuilder
	b.ev(100, 4, "miss", "", 64, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(110, 4, "send", "ReadReq", 64, "to p0 seq=1 acks=0")
	b.ev(110, 4, "xmit", "ReadReq", 64, "to p0 R4 arrive=1500 queue=40 wire=1200 xfer=150 via=remote")
	b.ev(1600, 0, "handle", "ReadReq", 64, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(1650, 0, "send", "ReadFwd", 64, "to p2 seq=2 acks=0")
	b.ev(1650, 0, "xmit", "ReadFwd", 64, "to p2 R4 arrive=3000 queue=0 wire=1200 xfer=150 via=remote")
	b.ev(3100, 2, "handle", "ReadFwd", 64, "from R4 seq=2: state=I priv=I seq=0 entry=-")
	b.ev(3200, 2, "send", "DataReply", 64, "to p4 seq=3 acks=0")
	b.ev(3200, 2, "xmit", "DataReply", 64, "to p4 R4 arrive=4600 queue=0 wire=1200 xfer=200 via=remote")
	b.ev(4700, 4, "handle", "DataReply", 64, "from R0 seq=3: state=I priv=I seq=0 entry=-")
	b.ev(4800, 4, "install", "", 64, "shared seq=3 hops=3")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 1 || ss.DroppedTotal() != 0 {
		t.Fatalf("spans=%d dropped=%v", len(ss.Spans), ss.Dropped)
	}
	sumStages(t, ss)
	s := &ss.Spans[0]
	if s.Hops != 3 || s.Owner != 2 || s.Home != 0 {
		t.Fatalf("span %+v", s)
	}
	names := stageNames(s)
	wantNames := []string{"issue", "req-queue", "req-wire", "home-inbox", "home-serve",
		"fwd-wire", "owner-inbox", "owner-serve", "reply-wire", "reply-inbox", "install"}
	if strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Fatalf("stages %v, want %v", names, wantNames)
	}
}

func TestSpanUpgrade(t *testing.T) {
	var b traceBuilder
	b.ev(100, 4, "miss", "", 0, "upgrade issued r=0 w=1: state=I priv=I seq=0 entry=-")
	b.ev(110, 4, "send", "UpgradeReq", 0, "to p0 seq=1 acks=0")
	b.ev(110, 4, "xmit", "UpgradeReq", 0, "to p0 R4 arrive=1500 queue=0 wire=1200 xfer=60 via=remote")
	b.ev(1600, 0, "handle", "UpgradeReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(1700, 0, "send", "UpgradeAck", 0, "to p4 seq=2 acks=0")
	b.ev(1700, 0, "xmit", "UpgradeAck", 0, "to p4 R4 arrive=3100 queue=0 wire=1200 xfer=60 via=remote")
	b.ev(3200, 4, "handle", "UpgradeAck", 0, "from R0 seq=2: state=I priv=I seq=0 entry=-")
	b.ev(3250, 4, "install", "", 0, "upgrade seq=2 acks=0")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 1 || ss.DroppedTotal() != 0 {
		t.Fatalf("spans=%d dropped=%v", len(ss.Spans), ss.Dropped)
	}
	sumStages(t, ss)
	if s := &ss.Spans[0]; s.Kind != "upgrade" || s.Total() != 3150 {
		t.Fatalf("span %+v", s)
	}
}

func TestSpanDirectPath(t *testing.T) {
	// The home shares the requester's group: the request is dispatched
	// without a send event and only the handle names the requester.
	var b traceBuilder
	b.ev(100, 4, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(200, 0, "handle", "ReadReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(250, 0, "send", "DataReply", 0, "to p4 seq=2 acks=0")
	b.ev(400, 4, "handle", "DataReply", 0, "from R0 seq=2: state=I priv=I seq=0 entry=-")
	b.ev(450, 4, "install", "", 0, "shared seq=2 hops=1")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 1 || ss.DroppedTotal() != 0 {
		t.Fatalf("spans=%d dropped=%v", len(ss.Spans), ss.Dropped)
	}
	sumStages(t, ss)
	s := &ss.Spans[0]
	if s.Hops != 1 || s.Total() != 350 {
		t.Fatalf("span %+v", s)
	}
	names := stageNames(s)
	want := []string{"issue", "home-serve", "reply-flight", "install"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("stages %v, want %v", names, want)
	}
}

func TestSpanRequeueWithoutXmit(t *testing.T) {
	// A request blocked at a busy home re-dispatches with no second send
	// event; without xmit evidence the transits collapse into compound
	// "-flight" stages that still telescope exactly.
	var b traceBuilder
	b.ev(100, 4, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(110, 4, "send", "ReadReq", 0, "to p0 seq=1 acks=0")
	b.ev(1600, 0, "handle", "ReadReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(2000, 0, "handle", "ReadReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(2100, 0, "send", "DataReply", 0, "to p4 seq=2 acks=0")
	b.ev(3200, 4, "handle", "DataReply", 0, "from R0 seq=2: state=I priv=I seq=0 entry=-")
	b.ev(3300, 4, "install", "", 0, "shared seq=2 hops=2")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 1 || ss.DroppedTotal() != 0 || len(ss.Warnings) != 0 {
		t.Fatalf("spans=%d dropped=%v warnings=%v", len(ss.Spans), ss.Dropped, ss.Warnings)
	}
	sumStages(t, ss)
	names := stageNames(&ss.Spans[0])
	want := []string{"issue", "req-flight", "home-queued", "home-serve", "reply-flight", "install"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("stages %v, want %v", names, want)
	}
}

func TestSpanRetryFolding(t *testing.T) {
	// A reply superseded by a concurrent invalidation never installs; the
	// requester re-issues (fresh miss, new request) and only the retry
	// round's reply installs. The two rounds fold into one span with an
	// explicit "retry" stage, still summing exactly.
	var b traceBuilder
	b.ev(100, 4, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(110, 4, "send", "ReadReq", 0, "to p0 seq=1 acks=0")
	b.ev(110, 4, "xmit", "ReadReq", 0, "to p0 R4 arrive=1500 queue=40 wire=1200 xfer=150 via=remote")
	b.ev(1600, 0, "handle", "ReadReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(1700, 0, "send", "DataReply", 0, "to p4 seq=2 acks=0")
	b.ev(1700, 0, "xmit", "DataReply", 0, "to p4 R4 arrive=3100 queue=0 wire=1200 xfer=200 via=remote")
	b.ev(3200, 4, "handle", "DataReply", 0, "from R0 seq=2: state=I priv=I seq=0 entry=-") // superseded: no install
	b.ev(3250, 4, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(3300, 4, "send", "ReadReq", 0, "to p0 seq=3 acks=0")
	b.ev(3300, 4, "xmit", "ReadReq", 0, "to p0 R4 arrive=4700 queue=0 wire=1200 xfer=200 via=remote")
	b.ev(4800, 0, "handle", "ReadReq", 0, "from R4 seq=3: state=I priv=I seq=0 entry=-")
	b.ev(4900, 0, "send", "DataReply", 0, "to p4 seq=4 acks=0")
	b.ev(4900, 0, "xmit", "DataReply", 0, "to p4 R4 arrive=6300 queue=0 wire=1200 xfer=200 via=remote")
	b.ev(6400, 4, "handle", "DataReply", 0, "from R0 seq=4: state=I priv=I seq=0 entry=-")
	b.ev(6500, 4, "install", "", 0, "shared seq=4 hops=2")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 1 || ss.DroppedTotal() != 0 || len(ss.Warnings) != 0 {
		t.Fatalf("spans=%d dropped=%v warnings=%v", len(ss.Spans), ss.Dropped, ss.Warnings)
	}
	sumStages(t, ss)
	s := &ss.Spans[0]
	if s.Retries != 1 {
		t.Fatalf("retries %d, want 1 (%+v)", s.Retries, s)
	}
	if s.Start != 100 || s.End != 6500 {
		t.Fatalf("span covers [%d,%d], want [100,6500]", s.Start, s.End)
	}
	retry := int64(-1)
	for _, st := range s.Stages {
		if st.Name == "retry" {
			retry = st.Cycles
		}
	}
	if retry != 100 { // superseded reply handled 3200 -> re-issue send 3300
		t.Fatalf("retry stage %d, want 100 (%v)", retry, s.Stages)
	}
	// The retry's own miss event must not surface as an unissued miss or
	// open a second span.
	if ss.UnissuedMisses != 0 {
		t.Fatalf("unissued misses %d, want 0", ss.UnissuedMisses)
	}
}

func TestSpanConcurrentRequestersSameBlock(t *testing.T) {
	// Two requesters miss the same block; their replies are delivered out
	// of order, so positional send/handle matching would mis-pair them.
	// The requester named by each handle keeps the pairing straight.
	var b traceBuilder
	b.ev(100, 4, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(110, 4, "send", "ReadReq", 0, "to p0 seq=1 acks=0")
	b.ev(120, 5, "miss", "", 0, "read issued r=1 w=0: state=I priv=I seq=0 entry=-")
	b.ev(130, 5, "send", "ReadReq", 0, "to p0 seq=1 acks=0")
	b.ev(1600, 0, "handle", "ReadReq", 0, "from R5 seq=1: state=I priv=I seq=0 entry=-") // p5 first
	b.ev(1700, 0, "send", "DataReply", 0, "to p5 seq=2 acks=0")
	b.ev(1800, 0, "handle", "ReadReq", 0, "from R4 seq=1: state=I priv=I seq=0 entry=-")
	b.ev(1900, 0, "send", "DataReply", 0, "to p4 seq=3 acks=0")
	b.ev(3100, 5, "handle", "DataReply", 0, "from R0 seq=2: state=I priv=I seq=0 entry=-")
	b.ev(3150, 5, "install", "", 0, "shared seq=2 hops=2")
	b.ev(3300, 4, "handle", "DataReply", 0, "from R0 seq=3: state=I priv=I seq=0 entry=-")
	b.ev(3350, 4, "install", "", 0, "shared seq=3 hops=2")

	ss := obsv.BuildSpans(b.evs)
	if len(ss.Spans) != 2 || ss.DroppedTotal() != 0 || len(ss.Warnings) != 0 {
		t.Fatalf("spans=%d dropped=%v warnings=%v", len(ss.Spans), ss.Dropped, ss.Warnings)
	}
	sumStages(t, ss)
	if ss.Spans[0].Requester != 5 || ss.Spans[0].Total() != 3030 {
		t.Fatalf("first span %+v", ss.Spans[0])
	}
	if ss.Spans[1].Requester != 4 || ss.Spans[1].Total() != 3250 {
		t.Fatalf("second span %+v", ss.Spans[1])
	}
}

// spanAppTrace memoizes one observed application run for the trace-level
// span tests.
var spanAppEvents []protocol.TraceEvent

func appTrace(t *testing.T) []protocol.TraceEvent {
	t.Helper()
	if spanAppEvents == nil {
		col := &protocol.CollectorTracer{}
		cfg := shasta.Config{Procs: 8, Clustering: 4}
		if _, err := apps.ExecuteObserved(apps.Registry["Water-Nsq"](1), cfg, false, col); err != nil {
			t.Fatal(err)
		}
		spanAppEvents = col.Events
	}
	return spanAppEvents
}

func TestSpansRealRunExactAndComplete(t *testing.T) {
	ss := obsv.BuildSpans(appTrace(t))
	if len(ss.Spans) < 1000 {
		t.Fatalf("only %d spans", len(ss.Spans))
	}
	if ss.DroppedTotal() != 0 || ss.Gapped || len(ss.Warnings) != 0 {
		t.Fatalf("complete trace: dropped=%v gapped=%v warnings=%v",
			ss.Dropped, ss.Gapped, ss.Warnings)
	}
	sumStages(t, ss)
	// The report is deterministic for identical traces.
	a := obsv.FormatSpans(ss, 5)
	bb := obsv.FormatSpans(obsv.BuildSpans(appTrace(t)), 5)
	if a != bb {
		t.Fatal("FormatSpans not deterministic")
	}
	if !strings.Contains(a, "dropped: 0") {
		t.Fatalf("report lacks dropped accounting:\n%s", a[:200])
	}
}

func TestSpansGappedTraceDegradesGracefully(t *testing.T) {
	events := appTrace(t)
	check := func(t *testing.T, sub []protocol.TraceEvent) {
		ss := obsv.BuildSpans(sub) // must never panic
		sumStages(t, ss)
		out := obsv.FormatSpans(ss, 2)
		if !strings.Contains(out, "dropped:") {
			t.Fatal("report lacks the dropped line")
		}
		_ = obsv.FormatPhases(ss, 4)
	}
	t.Run("no-xmit", func(t *testing.T) {
		var sub []protocol.TraceEvent
		for _, e := range events {
			if e.Op != "xmit" {
				sub = append(sub, e)
			}
		}
		check(t, sub)
		ss := obsv.BuildSpans(sub)
		if len(ss.Spans) == 0 {
			t.Fatal("no spans from xmit-less trace")
		}
		for i := range ss.Spans {
			for _, st := range ss.Spans[i].Stages {
				if strings.HasSuffix(st.Name, "-queue") || strings.HasSuffix(st.Name, "-wire") {
					t.Fatalf("xmit-less trace produced transit stage %q", st.Name)
				}
			}
		}
	})
	t.Run("no-install", func(t *testing.T) {
		var sub []protocol.TraceEvent
		for _, e := range events {
			if e.Op != "install" {
				sub = append(sub, e)
			}
		}
		check(t, sub)
		// Without installs no span can complete; all must be accounted.
		if ss := obsv.BuildSpans(sub); len(ss.Spans) != 0 || ss.DroppedTotal() == 0 {
			t.Fatalf("spans=%d dropped=%v", len(ss.Spans), ss.Dropped)
		}
	})
	t.Run("random-drops", func(t *testing.T) {
		for _, rate := range []float64{0.05, 0.3, 0.7} {
			rng := rand.New(rand.NewSource(42))
			var sub []protocol.TraceEvent
			for _, e := range events {
				if rng.Float64() >= rate {
					sub = append(sub, e)
				}
			}
			check(t, sub)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		check(t, events[:len(events)/3])
	})
}

func TestSpansSampledSinkNoOrphans(t *testing.T) {
	// Satellite: span events flowing through the sink's filter/sampling
	// pipeline must degrade into accounted drops, not orphan spans. Every
	// span reconstructed from a sampled trace still sums exactly.
	events := appTrace(t)
	for _, sample := range []int{2, 7} {
		var kept []protocol.TraceEvent
		f := &obsv.Filter{Sample: sample,
			Next: protocol.TracerFunc(func(e protocol.TraceEvent) { kept = append(kept, e) })}
		for _, e := range events {
			f.Event(e)
		}
		ss := obsv.BuildSpans(kept)
		if !ss.Gapped {
			t.Fatalf("sample=%d: trace not marked gapped", sample)
		}
		sumStages(t, ss)
	}
}

func TestSpansSinkRotationRoundTrip(t *testing.T) {
	// Satellite: spans survive segment rotation — the concatenated
	// segments reconstruct byte-identically to the in-memory trace.
	events := appTrace(t)[:5000]
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	sink, err := obsv.NewJSONLSink(path, obsv.SinkOptions{MaxEventsPerFile: 1200})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	files := sink.Files()
	if len(files) < 2 {
		t.Fatalf("expected rotation, got %v", files)
	}
	var got []protocol.TraceEvent
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, seg, err := obsv.ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got = append(got, seg...)
	}
	want := obsv.FormatSpans(obsv.BuildSpans(events), 3)
	have := obsv.FormatSpans(obsv.BuildSpans(got), 3)
	if want != have {
		t.Fatal("span report differs after sink rotation round trip")
	}
}

func TestHistogramEstimatedPercentiles(t *testing.T) {
	// 99 samples in [8,16), 1 in the open top bucket: p50 interpolates to
	// ~12 cycles, p99 stays inside [8,16).
	buckets := make([]int64, 28)
	buckets[4] = 99
	buckets[27] = 1
	out := obsv.FormatHistograms(map[string]obsv.Histogram{
		"read remote": {Buckets: buckets, Count: 100},
	})
	if !strings.Contains(out, "est p50 ~12 cycles, p99 ~15 cycles (bucket interpolation)") {
		t.Fatalf("missing or wrong estimate line:\n%s", out)
	}
	// All samples in the open bucket: the estimate degrades to its lower
	// edge rather than inventing an upper one.
	open := make([]int64, 28)
	open[27] = 4
	out = obsv.FormatHistograms(map[string]obsv.Histogram{
		"write remote": {Buckets: open, Count: 4},
	})
	if !strings.Contains(out, "est p50 ~67108864 cycles, p99 ~67108864 cycles") {
		t.Fatalf("open-bucket estimate wrong:\n%s", out)
	}
}
