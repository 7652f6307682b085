package obsv_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// decoded passes hand-built events through the detail decoder, as ReadTrace
// would, so tests that write details as text exercise the real grammar.
func decoded(events []protocol.TraceEvent) []protocol.TraceEvent {
	for i := range events {
		events[i].DecodeDetail()
	}
	return events
}

// fakeEvents builds a small synthetic trace; three events carry no detail.
func fakeEvents() []protocol.TraceEvent {
	return decoded([]protocol.TraceEvent{
		{Seq: 1, Time: 10, Proc: 4, Op: "miss", BaseLine: 0, Detail: "read issued r=1 w=0: state=I priv=I seq=0 entry=-"},
		{Seq: 2, Time: 12, Proc: 4, Op: "send", Msg: "ReadReq", BaseLine: 0, Detail: "to p0 seq=0 acks=0"},
		{Seq: 3, Time: 900, Proc: 0, Op: "handle", Msg: "ReadReq", BaseLine: 0},
		{Seq: 4, Time: 905, Proc: 0, Op: "downgrade", BaseLine: 0, Detail: "to S, 1 recipients (pre E)"},
		{Seq: 5, Time: 950, Proc: 0, Op: "send", Msg: "DataReply", BaseLine: 0},
		{Seq: 6, Time: 2100, Proc: 4, Op: "handle", Msg: "DataReply", BaseLine: 0, Detail: "from R0 seq=1: state=Pr priv=I seq=0 entry=read(da=false,eg=false,acks=0/0)"},
		{Seq: 7, Time: 2110, Proc: 4, Op: "install", BaseLine: 0, Detail: "shared seq=1 hops=2"},
		{Seq: 8, Time: 2200, Proc: 4, Op: "sync", BaseLine: -1, Detail: "barrier gen=1"},
		{Seq: 9, Time: 2300, Proc: 5, Op: "miss", BaseLine: 8},
	})
}

func TestTraceRoundTrip(t *testing.T) {
	events := fakeEvents()
	var buf bytes.Buffer
	sink := obsv.NewJSONLWriterSink(&buf)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	h, got, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != obsv.TraceSchema || h.Version != protocol.TraceSchemaVersion {
		t.Fatalf("bad header %+v", h)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", events, got)
	}
}

func TestReadTraceRejects(t *testing.T) {
	cases := map[string][2]string{
		"empty":         {"", "obsv: empty trace (no header line)"},
		"bad header":    {"{\n", "obsv: line 1: bad trace header: "},
		"wrong schema":  {`{"schema":"other","version":1}` + "\n", `obsv: not a shasta-trace file (schema "other")`},
		"newer version": {`{"schema":"shasta-trace","version":99}` + "\n", "obsv: trace version 99 is newer than supported version 1"},
		"bad event":     {`{"schema":"shasta-trace","version":1}` + "\n\nnot json\n", "obsv: line 3: bad trace event: "},
		"bad processor": {`{"schema":"shasta-trace","version":1}` + "\n" + `{"seq":1,"t":1,"p":-1,"op":"sync","blk":-1}` + "\n", "obsv: line 2: processor -1 outside 0.."},
		"empty object":  {traceHeader + "{}\n", `obsv: line 2: bad trace event: no "seq" key`},
		"null":          {traceHeader + "null\n", "obsv: line 2: bad trace event: expected '{' at column 1"},
		"no blk":        {traceHeader + `{"seq":1,"t":1,"p":0,"op":"sync"}` + "\n", `obsv: line 2: bad trace event: no "blk" key`},
		"null op":       {traceHeader + `{"seq":1,"t":1,"p":0,"op":null,"blk":-1}` + "\n", `obsv: line 2: bad trace event: no "op" key`},
		"second header": {traceHeader + `{"seq":1,"t":1,"p":0,"op":"sync","blk":-1}` + "\n" + traceHeader, "obsv: line 3: bad trace event: a trace header inside the trace: pass each segment as a separate file"},
		"folded key":    {traceHeader + `{"Seq":1,"t":1,"p":0,"op":"sync","blk":-1}` + "\n", `obsv: line 2: bad trace event: key "Seq" is "seq" only case-insensitively`},
		"object value":  {traceHeader + `{"seq":1,"t":1,"p":0,"op":"sync","blk":-1,"x":{}}` + "\n", "obsv: line 2: bad trace event: an object or array value at column 47"},
		"leading zero":  {traceHeader + `{"seq":01,"t":1,"p":0,"op":"sync","blk":-1}` + "\n", "obsv: line 2: bad trace event: expected ',' or '}' at column 9"},
		"fraction":      {traceHeader + `{"seq":1,"t":1.5,"p":0,"op":"sync","blk":-1}` + "\n", `obsv: line 2: bad trace event: "t": strconv.ParseInt: parsing "1.5": invalid syntax`},
		"past 2^63":     {traceHeader + `{"seq":1,"t":9223372036854775808,"p":0,"op":"sync","blk":-1}` + "\n", `obsv: line 2: bad trace event: "t": strconv.ParseInt: parsing "9223372036854775808": value out of range`},
		"wrong type":    {traceHeader + `{"seq":1,"t":1,"p":0,"op":7,"blk":-1}` + "\n", `obsv: line 2: bad trace event: "op": wrong type of value`},
		"boolean":       {traceHeader + `{"seq":true,"t":1,"p":0,"op":"sync","blk":-1}` + "\n", `obsv: line 2: bad trace event: "seq": wrong type of value`},
		"long line":     {traceHeader + strings.Repeat("x", 4<<20+1) + "\n", "obsv: line 2: bufio.Scanner: token too long"},
	}
	for name, c := range cases {
		if _, _, err := obsv.ReadTrace(strings.NewReader(c[0])); err == nil || !strings.HasPrefix(err.Error(), c[1]) {
			t.Errorf("%s: error %v, want %q", name, err, c[1])
		}
	}
}

// TestReadTraceJoinsChunks reads a trace longer than several of ReadTrace's
// collection chunks and gets every event back once, in order.
func TestReadTraceJoinsChunks(t *testing.T) {
	var buf bytes.Buffer
	sink := obsv.NewJSONLWriterSink(&buf)
	const n = 3*4096 + 17
	for i := 1; i <= n; i++ {
		sink.Event(protocol.TraceEvent{Seq: uint64(i), Proc: i % 8, Op: "batch", BaseLine: -1, Detail: "2 blocks"})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := obsv.ReadTrace(&buf)
	if err != nil || len(got) != n {
		t.Fatalf("read %d events (%v), want %d", len(got), err, n)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || !e.Typed || e.N != 2 {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
}

// TestWriteEventMatchesJSONMarshal holds the hand-rolled line encoder to the
// form it replaced — json.Marshal of the wire struct plus a newline,
// including its HTML and control-character escaping — over every committed
// trace (both as read, detail verbatim, and with the detail rendered from
// the typed fields) and over strings that need escaping. Each fixture must
// also stream back through a sink to exactly its committed bytes.
func TestWriteEventMatchesJSONMarshal(t *testing.T) {
	marshal := func(e protocol.TraceEvent) string {
		b, err := json.Marshal(wireEvent{e.Seq, e.Time, e.Proc, e.Op, e.Msg, e.BaseLine, string(e.AppendDetail(nil))})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	check := func(e protocol.TraceEvent) {
		t.Helper()
		var buf bytes.Buffer
		if err := obsv.WriteEvent(&buf, e); err != nil || buf.String() != marshal(e) {
			t.Fatalf("WriteEvent(%+v) = %q (%v), json.Marshal gives %q", e, buf.String(), err, marshal(e))
		}
	}
	files, err := filepath.Glob("../../cmd/shastatrace/testdata/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no trace fixtures: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, events, err := obsv.ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		sink := obsv.NewJSONLWriterSink(&out)
		for _, e := range events {
			check(e)
			sink.Event(e)
			e.Detail = ""
			check(e)
		}
		if err := sink.Close(); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Errorf("%s does not stream back to its committed bytes (%v)", name, err)
		}
	}
	for _, s := range []string{"", "plain", `a<b>&"c"\d`, "tab\tnl\nbs\bff\fnul\x00del\x7f", "caf\u00e9 \u2028\u2029", "bad\xffutf8"} {
		check(protocol.TraceEvent{Seq: 1, Time: -5, Proc: 3, Op: s, Msg: s, BaseLine: -1, Detail: s})
	}
	check(protocol.TraceEvent{Op: "nonesuch", TraceFields: protocol.TraceFields{Typed: true}})
}

func TestJSONLSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	sink, err := obsv.NewJSONLSink(path, obsv.SinkOptions{MaxEventsPerFile: 4})
	if err != nil {
		t.Fatal(err)
	}
	events := fakeEvents()
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	files := sink.Files()
	want := []string{path, filepath.Join(dir, "trace.1.jsonl"), filepath.Join(dir, "trace.2.jsonl")}
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("segments %v, want %v", files, want)
	}
	// Each segment is independently valid; concatenated they give back the
	// full event sequence.
	var got []protocol.TraceEvent
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, seg, err := obsv.ReadTrace(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got = append(got, seg...)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("concatenated segments mismatch: %d events, want %d", len(got), len(events))
	}
}

func TestSinkErrorSticky(t *testing.T) {
	sink, err := obsv.NewJSONLSink(filepath.Join(t.TempDir(), "t.jsonl"), obsv.SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sink.Event(protocol.TraceEvent{}) // after Close: must not panic
	if sink.Err() == nil {
		t.Fatal("no sticky error after use-after-close")
	}
}

func TestFilter(t *testing.T) {
	events := fakeEvents()
	run := func(f *obsv.Filter) []protocol.TraceEvent {
		var out []protocol.TraceEvent
		f.Next = protocol.TracerFunc(func(e protocol.TraceEvent) { out = append(out, e) })
		for _, e := range events {
			f.Event(e)
		}
		return out
	}
	if got := run(&obsv.Filter{Procs: map[int]bool{0: true}}); len(got) != 3 {
		t.Fatalf("proc filter kept %d, want 3", len(got))
	}
	if got := run(&obsv.Filter{Ops: map[string]bool{"miss": true}}); len(got) != 2 {
		t.Fatalf("op filter kept %d, want 2", len(got))
	}
	// A block filter narrows the data traffic but must never silence the
	// synchronization backbone: BaseLine -1 events (sync, batch markers)
	// always pass Blocks ranges.
	got := run(&obsv.Filter{Blocks: []obsv.BlockRange{{Lo: 1, Hi: 8}}})
	if len(got) != 2 || got[0].BaseLine != -1 || got[0].Op != "sync" || got[1].BaseLine != 8 {
		t.Fatalf("block filter kept %v", got)
	}
	// Even a range that cannot contain -1 keeps them.
	if got := run(&obsv.Filter{Blocks: []obsv.BlockRange{{Lo: 100, Hi: 200}}}); len(got) != 1 || got[0].Op != "sync" {
		t.Fatalf("block filter dropped sync events: %v", got)
	}
	// Conjunction of predicates.
	got = run(&obsv.Filter{Procs: map[int]bool{4: true}, Ops: map[string]bool{"send": true}})
	if len(got) != 1 || got[0].Msg != "ReadReq" {
		t.Fatalf("conjunction kept %v", got)
	}
	// Sampling keeps events 1, 1+3, 1+6, ... of the matching stream.
	got = run(&obsv.Filter{Sample: 3})
	if len(got) != 3 || got[0].Seq != 1 || got[1].Seq != 4 || got[2].Seq != 7 {
		t.Fatalf("sampling kept %v", got)
	}
}

func TestSummarizeAndDiff(t *testing.T) {
	events := fakeEvents()
	s := obsv.Summarize(events)
	if s.Events != 9 || s.FirstSeq != 1 || s.LastSeq != 9 || s.Blocks != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.ByOp["miss"] != 2 || s.ByMsg["ReadReq"] != 2 || s.ByProc[4] != 5 {
		t.Fatalf("summary counts %+v", s)
	}
	if f1, f2 := s.Format(), obsv.Summarize(events).Format(); f1 != f2 {
		t.Fatal("Format not deterministic")
	}
	if d, equal := obsv.Diff(s, obsv.Summarize(events)); !equal || d != "" {
		t.Fatalf("self-diff not empty: %q", d)
	}
	d, equal := obsv.Diff(s, obsv.Summarize(events[:5]))
	if equal {
		t.Fatal("diff missed truncation")
	}
	if !strings.Contains(d, "events: 9 vs 5") {
		t.Fatalf("diff output %q", d)
	}
}

func TestTimeline(t *testing.T) {
	tl := obsv.Timeline(fakeEvents(), 0)
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("timeline has %d lines, want 7:\n%s", len(lines), tl)
	}
	for _, want := range []string{"miss", "ReadReq", "downgrade", "DataReply", "install"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	if strings.Contains(tl, "barrier") {
		t.Fatal("timeline leaked non-block event")
	}
}

// traceRun executes a fixed small workload with a tracer attached and
// returns the cluster.
func traceRun(t *testing.T, tr shasta.Tracer) *shasta.Cluster {
	t.Helper()
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	arr := cluster.Alloc(1024, 64)
	lock := cluster.AllocLock()
	cluster.SetTracer(tr)
	cluster.Run(func(p *shasta.Proc) {
		p.StoreF64(arr+shasta.Addr(p.ID()*8), float64(p.ID()))
		p.Barrier()
		p.LockAcquire(lock)
		p.StoreF64(arr+512, p.LoadF64(arr+512)+1) // contended block in the second page half
		p.LockRelease(lock)
		p.Barrier()
	})
	return cluster
}

func TestTraceAndSnapshotDeterminism(t *testing.T) {
	var trace [2]bytes.Buffer
	var metrics [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		sink := obsv.NewJSONLWriterSink(&trace[i])
		cluster := traceRun(t, sink)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cluster.Metrics().WriteJSON(&metrics[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(trace[0].Bytes(), trace[1].Bytes()) {
		t.Fatal("identical runs produced different traces")
	}
	if !bytes.Equal(metrics[0].Bytes(), metrics[1].Bytes()) {
		t.Fatalf("identical runs produced different metrics:\n%s\nvs\n%s",
			metrics[0].String(), metrics[1].String())
	}
	// Two identical runs also summarize byte-identically (the acceptance
	// property behind shastatrace diff).
	_, e0, err := obsv.ReadTrace(&trace[0])
	if err != nil {
		t.Fatal(err)
	}
	_, e1, err := obsv.ReadTrace(&trace[1])
	if err != nil {
		t.Fatal(err)
	}
	if obsv.Summarize(e0).Format() != obsv.Summarize(e1).Format() {
		t.Fatal("summaries differ")
	}
	if _, equal := obsv.Diff(obsv.Summarize(e0), obsv.Summarize(e1)); !equal {
		t.Fatal("diff of identical runs not empty")
	}
}

func TestSnapshotContents(t *testing.T) {
	cluster := traceRun(t, nil)
	m := cluster.Metrics()
	if m.Schema != obsv.MetricsSchema || m.Version != obsv.MetricsVersion {
		t.Fatalf("bad schema header %q v%d", m.Schema, m.Version)
	}
	if m.Config.Variant != "smp" || m.Config.Procs != 8 || m.Config.Clustering != 4 {
		t.Fatalf("bad config %+v", m.Config)
	}
	if m.Cycles <= 0 || m.Totals.TotalMisses == 0 || m.Totals.TotalMessages == 0 {
		t.Fatalf("empty totals: cycles=%d misses=%d msgs=%d",
			m.Cycles, m.Totals.TotalMisses, m.Totals.TotalMessages)
	}
	if m.Totals.HandlerEvents == 0 || m.Totals.HandlerCycles == 0 {
		t.Fatalf("handler occupancy not recorded: %+v", m.Totals)
	}
	if m.Totals.LockAcquires == 0 || m.Totals.LockHoldCycles == 0 {
		t.Fatalf("lock holds not recorded under SMP-Shasta: %+v", m.Totals)
	}
	if m.Network.RemoteSends == 0 || m.Network.RemoteBytes == 0 {
		t.Fatalf("network counters empty: %+v", m.Network)
	}
	if len(m.Network.LinkBusyCycles) != 2 || len(m.Network.PeakInboxDepth) != 8 {
		t.Fatalf("per-node/per-proc lengths wrong: %+v", m.Network)
	}
	peak := 0
	for _, d := range m.Network.PeakInboxDepth {
		if d > peak {
			peak = d
		}
	}
	if peak == 0 {
		t.Fatal("no inbox depth recorded")
	}
	if len(m.Procs) != 8 {
		t.Fatalf("%d proc entries, want 8", len(m.Procs))
	}
	var sum int64
	for _, p := range m.Procs {
		sum += p.HandlerCycles
	}
	if sum != m.Totals.HandlerCycles {
		t.Fatalf("per-proc handler cycles %d != total %d", sum, m.Totals.HandlerCycles)
	}
	// JSON round trip.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obsv.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatal("snapshot JSON round trip mismatch")
	}
}

func TestSnapshotDoesNotPerturbRun(t *testing.T) {
	// A fully observed run must report exactly the same virtual timing and
	// statistics as an unobserved one.
	var sinkBuf bytes.Buffer
	observed := traceRun(t, obsv.NewJSONLWriterSink(&sinkBuf))
	plain := traceRun(t, nil)
	if o, p := observed.Stats().Cycles, plain.Stats().Cycles; o != p {
		t.Fatalf("tracing perturbed the run: %d vs %d cycles", o, p)
	}
	if o, p := observed.Stats().TotalMessages(), plain.Stats().TotalMessages(); o != p {
		t.Fatalf("tracing perturbed message counts: %d vs %d", o, p)
	}
	// Pin the absolute numbers to the pre-profiler seed: the breakdown
	// capture, latency histograms and privup tracing must not move the
	// virtual clock or the protocol's message stream.
	const seedCycles, seedMessages = 59459, 86
	if c := observed.Stats().Cycles; c != seedCycles {
		t.Fatalf("cycles = %d, seed measured %d: profiling changed virtual timing", c, seedCycles)
	}
	if m := observed.Stats().TotalMessages(); m != seedMessages {
		t.Fatalf("messages = %d, seed measured %d: profiling changed the protocol", m, seedMessages)
	}
}
