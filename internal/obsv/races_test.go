package obsv

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

// traceBuilder assembles synthetic traces with consecutive seq numbers, the
// shape DetectRaces requires of a complete trace.
type traceBuilder struct {
	seq uint64
	evs []protocol.TraceEvent
}

func (b *traceBuilder) ev(proc int, op, msg string, blk int, detail string) {
	b.seq++
	b.evs = append(b.evs, protocol.TraceEvent{
		Seq: b.seq, Time: int64(b.seq) * 7, Proc: proc,
		Op: op, Msg: msg, BaseLine: blk, Detail: detail,
	})
	b.evs[len(b.evs)-1].DecodeDetail()
}

func (b *traceBuilder) miss(proc, blk int, kind string, rd, wr uint64) {
	b.ev(proc, "miss", "", blk, kindDetail(kind, rd, wr))
}

func kindDetail(kind string, rd, wr uint64) string {
	return kind + " issued r=" + hex(rd) + " w=" + hex(wr) + ": state=I priv=I seq=0 entry=-"
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var s []byte
	for v > 0 {
		s = append([]byte{digits[v&0xf]}, s...)
		v >>= 4
	}
	return string(s)
}

func (b *traceBuilder) send(proc, dst int, msg string) {
	b.ev(proc, "send", msg, -1, "to p"+itoa(dst)+" seq=0 acks=0")
}

func (b *traceBuilder) handle(proc, requester int, msg string) {
	b.ev(proc, "handle", msg, -1, "from R"+itoa(requester)+" seq=0: ")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var s []byte
	for v > 0 {
		s = append([]byte{byte('0' + v%10)}, s...)
		v /= 10
	}
	return string(s)
}

func detect(t *testing.T, b *traceBuilder) *RaceReport {
	t.Helper()
	rep, err := DetectRaces(b.evs)
	if err != nil {
		t.Fatalf("DetectRaces: %v", err)
	}
	return rep
}

func TestRacesUnsyncedConflict(t *testing.T) {
	b := &traceBuilder{}
	b.miss(0, 3, "write", 0, 0x3)
	b.miss(1, 3, "write", 0, 0x3)
	rep := detect(t, b)
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race, got %d:\n%s", len(rep.Races), rep.Format())
	}
	r := rep.Races[0]
	if r.Block != 3 || r.Overlap != 0x3 || r.First.Proc != 0 || r.Second.Proc != 1 {
		t.Errorf("race misdescribed: %+v", r)
	}
	if r.Witness.Ok {
		t.Errorf("fully concurrent accesses must have no witness: %+v", r.Witness)
	}
	if !strings.HasPrefix(rep.Format(), "RACES: 1 data race:") {
		t.Errorf("report verdict line wrong:\n%s", rep.Format())
	}
}

func TestRacesDisjointMasksNoConflict(t *testing.T) {
	b := &traceBuilder{}
	b.miss(0, 3, "write", 0, 0x3)
	b.miss(1, 3, "write", 0, 0xc)
	rep := detect(t, b)
	if len(rep.Races) != 0 {
		t.Fatalf("disjoint slot masks must not race:\n%s", rep.Format())
	}
}

func TestRacesReadReadNoConflict(t *testing.T) {
	b := &traceBuilder{}
	b.miss(0, 3, "read", 0xff, 0)
	b.miss(1, 3, "read", 0xff, 0)
	rep := detect(t, b)
	if len(rep.Races) != 0 {
		t.Fatalf("read-read overlap must not race:\n%s", rep.Format())
	}
	if !strings.HasPrefix(rep.Format(), "ok: no data races") {
		t.Errorf("clean verdict line wrong:\n%s", rep.Format())
	}
}

func TestRacesLockChainOrders(t *testing.T) {
	// p0 writes, releases; the lock home p2 grants to p1; p1 writes. The
	// release→acquire chain orders the writes through two sync edges.
	b := &traceBuilder{}
	b.miss(0, 3, "write", 0, 0x3)
	b.ev(0, "sync", "", -1, "lock-release id=0")
	b.send(0, 2, "LockRel")
	b.handle(2, 0, "LockRel")
	b.send(2, 1, "LockGrant")
	b.handle(1, 0, "LockGrant")
	b.miss(1, 3, "write", 0, 0x3)
	rep := detect(t, b)
	if len(rep.Races) != 0 {
		t.Fatalf("lock-ordered writes must not race:\n%s", rep.Format())
	}
	if rep.SyncEdges != 2 {
		t.Errorf("want 2 sync edges, got %d", rep.SyncEdges)
	}
}

func TestRacesBarrierOrders(t *testing.T) {
	// A pre-barrier write and a post-barrier write are ordered by the
	// barrier-generation rule alone (no BarGo edges, as under FastSync).
	b := &traceBuilder{}
	b.miss(0, 3, "write", 0, 0x3)
	b.ev(0, "sync", "", -1, "barrier gen=0")
	b.ev(1, "sync", "", -1, "barrier gen=0")
	b.miss(1, 3, "write", 0, 0x3)
	rep := detect(t, b)
	if len(rep.Races) != 0 {
		t.Fatalf("barrier-separated writes must not race:\n%s", rep.Format())
	}
}

func TestRacesSameSideOfBarrier(t *testing.T) {
	// Both writes after their processors' arrivals: concurrent, and the
	// witness is the arrival event (the last ordered point).
	b := &traceBuilder{}
	b.ev(0, "sync", "", -1, "barrier gen=0")
	b.miss(0, 3, "write", 0, 0x3)
	b.ev(1, "sync", "", -1, "barrier gen=0")
	b.miss(1, 3, "write", 0, 0x3)
	rep := detect(t, b)
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race, got %d:\n%s", len(rep.Races), rep.Format())
	}
	w := rep.Races[0].Witness
	if !w.Ok || w.Op != "sync" || w.Seq != b.evs[0].Seq || w.After != 1 {
		t.Errorf("witness should be p0's barrier arrival one event before the race: %+v", w)
	}
}

func TestRacesShortestWitness(t *testing.T) {
	// Two conflicting writes in p0's unordered suffix: the reported first
	// access is the earliest one (shortest distance from the witness).
	b := &traceBuilder{}
	b.ev(0, "sync", "", -1, "barrier gen=0")
	b.miss(0, 3, "write", 0, 0x3)
	b.miss(0, 3, "write", 0, 0x3)
	b.ev(1, "sync", "", -1, "barrier gen=0")
	b.miss(1, 3, "write", 0, 0x3)
	rep := detect(t, b)
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race (deduplicated), got %d:\n%s", len(rep.Races), rep.Format())
	}
	r := rep.Races[0]
	if r.First.Seq != b.evs[1].Seq {
		t.Errorf("first access should be the earliest unordered conflict (seq %d), got seq %d",
			b.evs[1].Seq, r.First.Seq)
	}
	if r.Witness.After != 1 {
		t.Errorf("want witness distance 1, got %d", r.Witness.After)
	}
}

func TestRacesDedupPerPair(t *testing.T) {
	b := &traceBuilder{}
	for i := 0; i < 3; i++ {
		b.miss(0, 3, "write", 0, 0x3)
		b.miss(1, 3, "write", 0, 0x3)
	}
	b.miss(2, 3, "write", 0, 0x3)
	rep := detect(t, b)
	// One race per processor pair on the block: (0,1), (0,2), (1,2).
	if len(rep.Races) != 3 {
		t.Fatalf("want 3 deduplicated races, got %d:\n%s", len(rep.Races), rep.Format())
	}
}

func TestRacesUpgradeVsRead(t *testing.T) {
	b := &traceBuilder{}
	b.miss(0, 5, "upgrade", 0, 0x10)
	b.miss(1, 5, "read", 0x30, 0)
	rep := detect(t, b)
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race, got %d:\n%s", len(rep.Races), rep.Format())
	}
	if rep.Races[0].Overlap != 0x10 {
		t.Errorf("overlap should be the conflicting slots only: got %x", rep.Races[0].Overlap)
	}
}

func TestRacesRequesterKeyedSyncMatching(t *testing.T) {
	// Two LockRel messages from different requesters reach the lock home
	// out of send order (p2's arrives first). Plain FIFO pairing would
	// give the grant p1's frontier — masking the race between p1's
	// unlocked write and the grantee's. Requester-keyed pairing must
	// attribute the first handle to p2 and detect the race.
	b := &traceBuilder{}
	b.miss(1, 7, "write", 0, 0x3)
	b.ev(1, "sync", "", -1, "lock-release id=0")
	b.send(1, 0, "LockRel")
	b.ev(2, "sync", "", -1, "lock-release id=1")
	b.send(2, 0, "LockRel")
	b.handle(0, 2, "LockRel") // p2's release delivered first
	b.send(0, 3, "LockGrant")
	b.handle(0, 1, "LockRel")
	b.handle(3, 0, "LockGrant")
	b.miss(3, 7, "write", 0, 0x3)
	rep := detect(t, b)
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race (p1 vs p3), got %d:\n%s", len(rep.Races), rep.Format())
	}
	r := rep.Races[0]
	if r.First.Proc != 1 || r.Second.Proc != 3 {
		t.Errorf("race should pair p1's write with p3's, got p%d vs p%d", r.First.Proc, r.Second.Proc)
	}
}

func TestRacesLegacyDetailWidens(t *testing.T) {
	b := &traceBuilder{}
	b.ev(0, "miss", "", 3, "write issued: state=I priv=I seq=0 entry=-")
	b.ev(1, "miss", "", 3, "read issued: state=I priv=I seq=0 entry=-")
	rep := detect(t, b)
	if len(rep.Races) != 1 {
		t.Fatalf("legacy whole-block accesses must conflict:\n%s", rep.Format())
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], "no offset masks") {
		t.Errorf("want a pre-mask warning, got %v", rep.Warnings)
	}
}

func TestRacesGappedTraceErrors(t *testing.T) {
	evs := []protocol.TraceEvent{
		{Seq: 1, Proc: 0, Op: "miss", BaseLine: 3, Detail: kindDetail("write", 0, 3)},
		{Seq: 5, Proc: 1, Op: "miss", BaseLine: 3, Detail: kindDetail("write", 0, 3)},
	}
	for i := range evs {
		evs[i].DecodeDetail()
	}
	if _, err := DetectRaces(evs); err == nil {
		t.Fatal("gapped trace must error, not report race-free")
	} else if !strings.Contains(err.Error(), "seq gaps") {
		t.Errorf("diagnostic should name the seq gaps: %v", err)
	}
}

func TestRacesNonMonotoneSeqErrors(t *testing.T) {
	evs := []protocol.TraceEvent{
		{Seq: 2, Proc: 0, Op: "miss", BaseLine: 3, Detail: kindDetail("write", 0, 3)},
		{Seq: 1, Proc: 1, Op: "miss", BaseLine: 3, Detail: kindDetail("write", 0, 3)},
	}
	for i := range evs {
		evs[i].DecodeDetail()
	}
	if _, err := DetectRaces(evs); err == nil {
		t.Fatal("non-monotone seq must error")
	}
}

func TestRacesEmptyTrace(t *testing.T) {
	rep, err := DetectRaces(nil)
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if len(rep.Races) != 0 || rep.Accesses != 0 {
		t.Errorf("empty trace should be trivially clean: %+v", rep)
	}
}
