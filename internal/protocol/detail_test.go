package protocol_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// render is the detail text of the event's typed fields alone.
func render(e protocol.TraceEvent) string {
	e.Detail = ""
	return string(e.AppendDetail(nil))
}

// decode is the event an op and detail text decode to.
func decode(op, detail string) (protocol.TraceEvent, bool) {
	e := protocol.TraceEvent{Op: op, Detail: detail}
	ok := e.DecodeDetail()
	return e, ok
}

// TestDetailRoundTripFixtures: every event of every committed trace decodes,
// and its typed fields render back to the committed text byte for byte.
func TestDetailRoundTripFixtures(t *testing.T) {
	files, err := filepath.Glob("../../cmd/shastatrace/testdata/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no trace fixtures: %v", err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		_, events, err := obsv.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range events {
			if !e.Typed || render(e) != e.Detail {
				t.Fatalf("%s seq=%d %s: typed=%v, %q renders as %q", name, e.Seq, e.Op, e.Typed, e.Detail, render(e))
			}
		}
	}
}

// TestDetailRoundTripRun: on a fresh traced run that exercises every op
// (locks, FastSync barriers, a batch, and a home migration with a forwarded
// request), the text of every simulator event decodes to exactly the fields
// the simulator set. parallel_equiv_test.go holds all nine applications to
// the same round trip.
func TestDetailRoundTripRun(t *testing.T) {
	col := &shasta.CollectorTracer{}
	cluster := shasta.MustCluster(shasta.Config{Procs: 12, Clustering: 4, Migrate: true, FastSync: true})
	hot, vec := cluster.Alloc(256, 64), cluster.Alloc(256, 64)
	cluster.SetTracer(col)
	cluster.Run(func(p *shasta.Proc) {
		for round := 0; round < 24; round++ {
			// Node 1's writes pull the hot block's home off processor 0;
			// node 2 then finds it through the tombstone (migfwd).
			if p.ID() == 7 {
				p.StoreF64(hot, float64(round))
			}
			p.Barrier()
			if p.ID() == 1 {
				p.Batch([]shasta.BatchRef{{Base: hot, Bytes: 64}}, func(b *shasta.Batch) { _ = b.LoadF64(hot + 8) })
			} else if p.ID() < 4 || p.ID() == 8 && round > 20 {
				_ = p.LoadF64(hot)
			}
			p.LockAcquire(round % 2)
			p.StoreF64(vec, p.LoadF64(vec)+1)
			p.LockRelease(round % 2)
			p.Barrier()
		}
	})
	seen := map[string]int{}
	for _, e := range col.Events {
		text := render(e)
		got, ok := decode(e.Op, text)
		if e.Detail != "" || !ok || got.TraceFields != e.TraceFields || render(got) != text {
			t.Fatalf("seq=%d %s: %q decodes (ok=%v) to\n%+v, emitted\n%+v", e.Seq, e.Op, text, ok, got.TraceFields, e.TraceFields)
		}
		seen[e.Op]++
	}
	for _, op := range protocol.TraceOps {
		if seen[op] == 0 {
			t.Errorf("no %s event in the run: its grammar went unexercised", op)
		}
	}
}

// TestDecodeDetailForms pins the text forms older traces carry and what each
// leaves present or absent.
func TestDecodeDetailForms(t *testing.T) {
	const block = "state=S priv=I seq=3 entry=-"
	for _, c := range []struct {
		op, detail string
		ok         bool
		check      func(f protocol.TraceFields) bool
	}{
		{"send", "to p3 seq=7 acks=2", true, func(f protocol.TraceFields) bool {
			return f.Peer == 3 && f.MsgSeq == 7 && f.Acks == 2 && !f.HasID
		}},
		{"send", "to p3 seq=7 acks=2 id=5", true, func(f protocol.TraceFields) bool { return f.HasID && f.ID == 5 }},
		{"handle", "from R4 seq=1: ", true, func(f protocol.TraceFields) bool { return f.Req == 4 && !f.HasID && !f.HasBlock }},
		{"handle", "from R4 seq=1: id=9", true, func(f protocol.TraceFields) bool { return f.HasID && f.ID == 9 && !f.HasBlock }},
		{"handle", "from R4 seq=1: state=Px priv=S seq=2 entry=upgrade(da=true,eg=false,acks=1/3)", true, func(f protocol.TraceFields) bool {
			b := f.Block
			return f.HasBlock && b.Pending && b.DataArrived && !b.ExclGranted && b.AcksGot == 1 && b.AcksWant == 3 && b.CopySeq == 2
		}},
		{"miss", "write issued: " + block, true, func(f protocol.TraceFields) bool {
			return f.Kind.String() == "write" && !f.HasMasks && !f.Declared && f.HasBlock && f.Block.CopySeq == 3
		}},
		{"miss", "read issued r=f0 w=0: " + block, true, func(f protocol.TraceFields) bool {
			return f.HasMasks && f.Rd == 0xf0 && f.Wr == 0 && !f.Declared
		}},
		{"miss", "read issued declared r=ff w=1: " + block, true, func(f protocol.TraceFields) bool {
			return f.HasMasks && f.Declared && f.Rd == 0xff && f.Wr == 1
		}},
		{"install", "shared seq=4 hops=3", true, func(f protocol.TraceFields) bool {
			return f.Grant == protocol.GrantShared && f.Hops == 3 && f.Acks == 0
		}},
		{"install", "upgrade seq=4 acks=2", true, func(f protocol.TraceFields) bool {
			return f.Grant == protocol.GrantUpgrade && f.Hops == 0 && f.Acks == 2
		}},
		{"migrate", "to p12 homeCost=40 bestCost=8 thresh=16 moved=1", true, func(f protocol.TraceFields) bool {
			return !f.Installed && f.Peer == 12 && f.Cost.Home == 40 && f.Cost.Best == 8 && f.Cost.Thresh == 16 && f.N == 1
		}},
		{"migrate", "installed from p0 moved=2", true, func(f protocol.TraceFields) bool { return f.Installed && f.Peer == 0 && f.N == 2 }},
		{"sync", "lock-acquired id=2 prev=-1 hops=2", true, func(f protocol.TraceFields) bool {
			return f.Sync == protocol.SyncLockAcquired && f.ID == 2 && f.Prev == -1 && f.Hops == 2
		}},
		{"sync", "barrier-depart gen=6", true, func(f protocol.TraceFields) bool { return f.Sync == protocol.SyncBarrierDepart && f.ID == 6 }},
		// Outside the grammar: trailing text, non-canonical numerals,
		// overflow, unknown names and ops.
		{"send", "to p3 seq=7 acks=2 ", false, nil},
		{"send", "to p03 seq=7 acks=2", false, nil},
		{"send", "to p-0 seq=7 acks=2", false, nil},
		{"send", "to p4294967296 seq=7 acks=2", false, nil},
		{"touch", "r=F w=0", false, nil},
		{"miss", "fetch issued: " + block, false, nil},
		{"sync", "barrier", false, nil},
		{"nonesuch", "", false, nil},
	} {
		e, ok := decode(c.op, c.detail)
		switch {
		case ok != c.ok || e.Typed != c.ok:
			t.Errorf("%s %q: decoded=%v typed=%v, want %v", c.op, c.detail, ok, e.Typed, c.ok)
		case !ok && e.TraceFields != protocol.TraceFields{}:
			t.Errorf("%s %q: rejected but left fields %+v", c.op, c.detail, e.TraceFields)
		case ok && (!c.check(e.TraceFields) || render(e) != c.detail):
			t.Errorf("%s %q: fields %+v render %q", c.op, c.detail, e.TraceFields, render(e))
		}
		if string(e.AppendDetail(nil)) != c.detail {
			t.Errorf("%s %q: verbatim text lost: %q", c.op, c.detail, e.AppendDetail(nil))
		}
	}
}

// TestDetailCodecAllocatesNothing pins both directions of the walk as
// allocation-free: ReadTrace decodes, and the JSONL sink renders, per event.
func TestDetailCodecAllocatesNothing(t *testing.T) {
	e, _ := decode("handle", "from R5 seq=0: state=Pr priv=I seq=0 entry=read(da=false,eg=true,acks=0/2)")
	if n := testing.AllocsPerRun(100, func() { e.DecodeDetail() }); n != 0 {
		t.Errorf("DecodeDetail allocates %v times", n)
	}
	e.Detail = ""
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf = e.AppendDetail(buf[:0]) }); n != 0 {
		t.Errorf("AppendDetail allocates %v times", n)
	}
}

// FuzzDecodeDetail: the decoder never panics, and whatever it accepts
// renders back to the text it was given.
func FuzzDecodeDetail(f *testing.F) {
	for _, s := range [][2]string{
		{"send", "to p1 seq=4 acks=0 id=9"}, {"handle", "from R0 seq=0: state=Pr priv=I seq=0 entry=read(da=false,eg=false,acks=0/0)"},
		{"xmit", "to p0 R4 arrive=1977 queue=0 wire=1200 xfer=137 via=uplink"}, {"miss", "upgrade issued declared r=3 w=c: state=S priv=S seq=1 entry=-"},
		{"install", "exclusive seq=2 hops=3 acks=1"}, {"downgrade", "to I, 3 recipients (pre E)"}, {"sync", "lock-acquired id=-1 prev=-5 hops=99"},
		{"migrate", "installed from p7 moved=3"}, {"migfwd", "to p2 R5"}, {"touch", "r=ffffffffffffffff w=0"}, {"batch", "12 blocks"},
		{"invalidate", "deferred=true"}, {"privup", "to E"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, op, detail string) {
		if e, ok := decode(op, detail); ok && render(e) != detail {
			t.Fatalf("%s %q accepted but renders %q", op, detail, render(e))
		} else if !ok && (e.TraceFields != protocol.TraceFields{}) {
			t.Fatalf("%s %q rejected but left fields %+v", op, detail, e.TraceFields)
		}
	})
}
