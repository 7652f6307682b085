package protocol

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/stats"
)

// Addr8 offsets an address by i 8-byte words.
func Addr8(i int) memory.Addr { return memory.Addr(i * 8) }

func TestCollectorTracer(t *testing.T) {
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0)
	col := &CollectorTracer{}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 4 {
			_ = p.LoadF64(a) // one remote read miss
		}
		p.Barrier()
	})
	var sawMiss, sawReq, sawReply bool
	for _, e := range col.Events {
		switch {
		case e.Op == "miss":
			sawMiss = true
		case e.Op == "send" && e.Msg == "ReadReq":
			sawReq = true
		case e.Op == "handle" && e.Msg == "DataReply":
			sawReply = true
		}
	}
	if !sawMiss || !sawReq || !sawReply {
		t.Fatalf("trace incomplete: miss=%v req=%v reply=%v (%d events)",
			sawMiss, sawReq, sawReply, len(col.Events))
	}
	// Events are time-ordered per processor.
	last := map[int]int64{}
	for _, e := range col.Events {
		if e.Time < last[e.Proc] {
			t.Fatalf("events out of order for proc %d", e.Proc)
		}
		last[e.Proc] = e.Time
	}
}

func TestCollectorTracerLimit(t *testing.T) {
	s := testSystem(4, 4)
	a := s.Alloc(1024, 64)
	col := &CollectorTracer{Limit: 5}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.StoreU64(a+Addr8(i), uint64(i))
		}
		p.Barrier()
	})
	if len(col.Events) > 5 {
		t.Fatalf("limit ignored: %d events", len(col.Events))
	}
}

func TestTraceSeqStrictlyIncreasing(t *testing.T) {
	s := testSystem(8, 4)
	a := s.Alloc(1024, 64)
	col := &CollectorTracer{}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.StoreU64(a+Addr8(i*4), uint64(p.ID()))
		}
		p.Barrier()
	})
	if len(col.Events) == 0 {
		t.Fatal("no events")
	}
	// Seq is a global total order: strictly increasing across the whole
	// run, starting at 1, with no gaps at the emission point.
	for i, e := range col.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	ops := map[string]bool{}
	for _, op := range TraceOps {
		ops[op] = true
	}
	for _, e := range col.Events {
		if !ops[e.Op] {
			t.Fatalf("event op %q not in TraceOps", e.Op)
		}
	}
}

func TestWriterTracerFilters(t *testing.T) {
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0) // block 0
	b := s.AllocPlaced(64, 64, 4) // separate page/block
	var buf bytes.Buffer
	s.SetTracer(&WriterTracer{W: &buf, Blocks: map[int]bool{0: true}})
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 4 {
			_ = p.LoadF64(a)
			_ = p.LoadF64(b)
		}
		p.Barrier()
	})
	out := buf.String()
	if !strings.Contains(out, "blk0") {
		t.Fatal("filtered trace missing block 0 events")
	}
	if strings.Contains(out, "ReadReq") && strings.Contains(out, "blk64") {
		t.Fatal("filter leaked other blocks")
	}
}

// TestUntracedPathFormatsNothing pins that with no tracer attached a handler
// dispatch allocates nothing and a miss only its table entry: block state is
// captured, and event fields built, only under a tracer.
func TestUntracedPathFormatsNothing(t *testing.T) {
	s := testSystem(1, 1)
	a := s.Alloc(64, 64)
	s.Run(func(p *Proc) {
		base, _ := s.lay.BlockOf(a)
		m := &pmsg{kind: mSharingUpdate, baseLine: base, seq: 1}
		p.handle(m) // creates the directory entry
		if n := testing.AllocsPerRun(100, func() { p.handle(m) }); n != 0 {
			t.Errorf("untraced handler dispatch allocates %v times", n)
		}
		if n := testing.AllocsPerRun(100, func() { p.newMissEntry(base, stats.ReadMiss, 1, 0, false) }); n != 1 {
			t.Errorf("untraced miss allocates %v times, want 1 (its entry)", n)
		}
		delete(p.grp.miss, base)
	})
}

// countingTracer counts events without keeping them.
type countingTracer struct{ n int }

func (c *countingTracer) Event(TraceEvent) { c.n++ }

// TestTraceEmissionAmortizes pins that a traced event costs no allocation of
// its own: it is appended to its processor's event FIFO and handed to the
// engine as a pointer, so a run that emits 20,000 more events than another
// allocates at most a few hundred more objects (buffer growth), where boxing
// each event would allocate 20,000.
func TestTraceEmissionAmortizes(t *testing.T) {
	run := func(perProc int) (events int, mallocs int64) {
		s := testSystem(4, 4)
		ct := &countingTracer{}
		s.SetTracer(ct)
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		s.Run(func(p *Proc) {
			for i := 0; i < perProc; i++ {
				p.trace("sync", "", -1, TraceFields{Sync: SyncLockRelease, ID: int32(i)})
				p.Compute(int64(1 + p.ID()))
			}
		})
		runtime.ReadMemStats(&b)
		return ct.n, int64(b.Mallocs - a.Mallocs)
	}
	baseEvents, base := run(1000)
	grownEvents, grown := run(6000)
	n := grownEvents - baseEvents
	if n < 20000 {
		t.Fatalf("runs differ by %d events, want at least 20000", n)
	}
	if d := grown - base; d > int64(n/50) {
		t.Errorf("%d more mallocs for %d more events (%d vs %d): emission allocates per event", d, n, grown, base)
	}
}

// TestSinkFollowsTracer pins when the engine has an emit sink: a tracer
// attached after New and before Run receives the complete trace, numbered
// from 1 and ending with the last processor's departure from the final
// barrier, while a run without a tracer — never attached, or detached again —
// leaves the engine without a sink. The probe is a stray emission from the
// body: without a sink it is dropped at its source, with emitTrace installed
// it reaches the sink, which panics on a payload that is not a processor.
func TestSinkFollowsTracer(t *testing.T) {
	run := func(s *System, stray bool) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		a := s.Alloc(64, 64)
		s.Run(func(p *Proc) {
			if stray {
				p.sp.Emit("stray")
			}
			p.StoreU64(a+Addr8(p.ID()), 1)
			p.Barrier()
			_ = p.LoadU64(a + Addr8((p.ID()+4)%8))
		})
		return false
	}

	traced, col := testSystem(8, 4), &CollectorTracer{}
	traced.SetTracer(col)
	run(traced, false)
	departs := 0
	for i, e := range col.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Op == "sync" && e.Sync == SyncBarrierDepart {
			departs++
		}
	}
	if last := col.Events[len(col.Events)-1]; departs != 2*8 || last.Op != "sync" || last.Sync != SyncBarrierDepart {
		t.Errorf("trace has %d barrier departures and ends with %v, want 16 and the final departure", departs, last)
	}

	never, detached, attached := testSystem(8, 4), testSystem(8, 4), testSystem(8, 4)
	detached.SetTracer(&CollectorTracer{})
	detached.SetTracer(nil)
	attached.SetTracer(&CollectorTracer{})
	if run(never, true) || run(detached, true) {
		t.Error("a run without a tracer delivered an emission: the engine has a sink")
	}
	if !run(attached, true) {
		t.Error("a traced run dropped a stray emission: the engine has no sink")
	}
}
