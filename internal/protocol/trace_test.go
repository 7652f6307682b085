package protocol

import (
	"bytes"
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
