package obsv

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// Data-race detection over coherence traces. Shasta's fine-grain access
// control instruments every shared load and store, so the trace already
// carries the signal a race detector needs: each miss event names the block,
// the sub-block slots the triggering access touches (its Rd/Wr masks), and
// the issuing processor, while the synchronization traffic
// (lock and barrier messages) carries the happens-before order the program
// established. DetectRaces joins the two halves: it reconstructs
// happens-before from the trace and reports conflicting access pairs —
// same block, overlapping slot masks, at least one writer — that no
// synchronization orders.
//
// # The happens-before model
//
// Two accesses are ordered when a chain of program order and
// synchronization edges connects them:
//
//   - program order: consecutive events of one processor, in seq order;
//   - sync message order: a send of a LockReq/LockGrant/LockRel/
//     BarArrive/BarGo message happens before the handle that dispatched
//     it (the index's leg table, restricted to those kinds).
//     Release→acquire ordering composes from these: the releaser's
//     LockRel reaches the lock home, whose LockGrant reaches the next
//     holder, all within the home's program order;
//   - barrier generations: every processor traces a "barrier gen=k" sync
//     event on arrival, so an access a processor issues after its own
//     gen-k arrival is ordered after everything any processor did up to
//     that processor's own gen-k arrival. This rule is what orders
//     accesses across FastSync barriers, whose intra-group release is
//     invisible shared-memory state (no BarGo reaches the members); it is
//     sound because barriers are global — a processor past its arrival
//     can only issue the access once every other processor has arrived.
//
// Data coherence messages are deliberately NOT happens-before edges. They
// order events in this execution, but the ordering is transport timing,
// not program synchronization: a race the coherence protocol happened to
// serialize this run is still a race. Excluding them is what lets the
// detector flag an unlocked counter even when the invalidation traffic
// totally ordered the conflicting writes.
//
// The sync edges come from the same leg table as every other message edge
// (see BuildCausal). Sync messages all share block -1, and two concurrent
// lock messages of one kind from different requesters can be delivered out
// of send order (local and remote hops have different latencies), so the
// sender identity matters here more than anywhere: LockReq, LockRel and
// BarArrive handles name their sender in Req and are matched on it;
// LockGrant and BarGo pair in arrival order, where the protocol guarantees
// at most one message in flight per destination (an acquirer stalls until
// granted; barrier rounds are serialized by the processor's own arrival).
//
// # Soundness caveats
//
// The trace sees misses, not loads and stores. Accesses that hit in the
// local (or sharing-group) copy of a block leave no event, as do accesses
// merged into an outstanding miss and — under SMP-Shasta — accesses
// served by hardware coherence within a sharing group. A race whose every
// conflicting access hits is invisible; a reported race is real evidence
// of unsynchronized conflicting misses, but a clean report is not a proof
// of race freedom. Private-state upgrades (privup events) carry no offset
// information and are ignored. Batch fetches record the batch's declared
// reference ranges on their miss events ("issued declared"), which
// over-approximate the body's accesses; the detector ignores those masks
// and uses the batch's touch events — the exact slots the body accessed —
// instead, so a conservative declaration cannot manufacture a conflict.
// Detection requires the complete event stream: a filtered or sampled
// trace (seq gaps) makes DetectRaces fail rather than report a spurious
// "race-free".

// syncMsgs are the message kinds whose send→handle edges carry
// happens-before; see the package commentary above.
var syncMsgs = map[string]bool{
	"LockReq": true, "LockGrant": true, "LockRel": true,
	"BarArrive": true, "BarGo": true,
}

// AccessSite is one side of a racing pair: a miss event standing in for
// the access that triggered it.
type AccessSite struct {
	Proc int
	Seq  uint64
	Time int64
	// Kind is the miss kind ("read", "write", "upgrade"), or "batched"
	// for the exact accesses of a batched body (a touch event).
	Kind string
	// RdMask and WrMask are the sub-block slots read and written (see
	// stats.SlotMask). Legacy traces without masks widen to the full
	// block.
	RdMask, WrMask uint64
}

// RaceWitness explains why the two accesses are unordered: the latest
// event of the first access's processor that IS ordered before the second
// access. Everything that processor did afterwards — including the racing
// access, After events later — is concurrent with the second access.
type RaceWitness struct {
	// Ok is false when no event of the first processor is ordered before
	// the second access at all (the accesses are fully concurrent).
	Ok   bool
	Seq  uint64
	Time int64
	Op   string
	Msg  string
	// Prim names the synchronization primitive of the witness event
	// ("lock <id>" or "barrier"; see SyncPrim), "" when the witness is
	// not a sync event: the sync edge whose ordering the race escaped.
	Prim string
	// After counts the first processor's events from the witness to the
	// racing access: the length of the unordered suffix the race sits in.
	After int
}

// Race is one detected data race: two conflicting accesses to the same
// block, overlapping in at least one slot with at least one writer, that
// happens-before does not order. First precedes Second in trace order.
// Races are deduplicated per (block, processor pair); the reported pair is
// the one with the shortest unordered witness for that combination.
type Race struct {
	Block int
	// Overlap is the conflicting slot overlap:
	// (First.Wr & Second.RdWr) | (Second.Wr & First.RdWr).
	Overlap uint64
	First   AccessSite
	Second  AccessSite
	Witness RaceWitness
}

// RaceReport is the outcome of a race-detection pass.
type RaceReport struct {
	// Races lists the detected races in trace order of their second
	// access (ties broken by ascending first-access processor).
	Races []Race
	// Accesses counts the miss events examined as accesses.
	Accesses int
	// Blocks counts the distinct blocks with at least one access.
	Blocks int
	// Events is the total trace length.
	Events int
	// SyncEdges counts the matched sync send→handle edges.
	SyncEdges int
	// Warnings lists non-fatal anomalies (legacy mask-less miss details,
	// unmatched sync messages).
	Warnings []string
}

// genPo records one barrier arrival: the generation and the arriving
// processor's program-order index at the arrival event.
type genPo struct {
	gen, po int
}

// access is the detector's record of one miss event.
type access struct {
	po       int // 1-based program-order index within the processor
	eventIdx int
	rd, wr   uint64
	kind     string
}

// racePair dedups reported races per block and unordered processor pair.
type racePair struct {
	blk, lo, hi int
}

type blockAccesses struct {
	perProc [][]access // indexed by processor
}

type raceDetector struct {
	*Causal

	po   []int     // per-processor program-order counter
	vc   [][]int   // per-processor happens-before frontier (vector clock)
	evOf [][]int   // per-processor event indices in program order
	arr  [][]genPo // per-processor barrier arrivals, ascending gen

	sendVC map[int][]int // sync send event index -> frontier snapshot
	blocks map[int]*blockAccesses
	seen   map[racePair]bool

	legacyMasks       int
	orphanSyncSends   int
	orphanSyncHandles int

	rep *RaceReport
}

// DetectRaces runs the race-detection pass over a complete trace (events
// in seq order, as read from a trace file). It returns an error — not a
// clean report — when the trace cannot support sound detection: seq gaps
// (a filtered or sampled trace) or a non-monotone seq order.
func DetectRaces(events []protocol.TraceEvent) (*RaceReport, error) {
	return BuildCausal(events).Races()
}

// Races runs the race-detection pass over the indexed trace.
func (c *Causal) Races() (*RaceReport, error) {
	if c.Gapped {
		return nil, fmt.Errorf("trace has seq gaps (filtered or sampled trace): race detection needs the complete event stream; re-record without filtering or sampling")
	}
	if i := c.BadSeq; i >= 0 {
		return nil, fmt.Errorf("trace seq not strictly increasing at event %d (seq %d after %d): not a valid trace order", i, c.Events[i].Seq, c.Events[i-1].Seq)
	}
	np := c.NumProcs
	d := &raceDetector{
		Causal: c,
		po:     make([]int, np),
		vc:     make([][]int, np),
		evOf:   make([][]int, np),
		arr:    make([][]genPo, np),
		sendVC: map[int][]int{},
		blocks: map[int]*blockAccesses{},
		seen:   map[racePair]bool{},
		rep:    &RaceReport{Events: len(c.Events)},
	}
	for p := range d.vc {
		d.vc[p] = make([]int, np)
	}
	for i := range c.Events {
		d.step(i)
	}
	d.rep.Blocks = len(d.blocks)
	if d.legacyMasks > 0 {
		d.rep.Warnings = append(d.rep.Warnings, fmt.Sprintf(
			"%d miss events carry no offset masks (pre-mask trace); each treated as a whole-block access", d.legacyMasks))
	}
	if d.orphanSyncHandles > 0 {
		d.rep.Warnings = append(d.rep.Warnings, fmt.Sprintf(
			"%d sync handles without a visible send; their happens-before edges are lost", d.orphanSyncHandles))
	}
	if d.orphanSyncSends > 0 {
		d.rep.Warnings = append(d.rep.Warnings, fmt.Sprintf(
			"%d sync sends without a parseable destination", d.orphanSyncSends))
	}
	return d.rep, nil
}

// step advances the detector over one event: program order, sync edges,
// barrier arrivals, and — for misses — the race check.
func (d *raceDetector) step(i int) {
	e := &d.Events[i]
	p := e.Proc
	d.po[p]++
	d.evOf[p] = append(d.evOf[p], i)
	d.vc[p][p] = d.po[p]

	switch e.Op {
	case "send":
		if !syncMsgs[e.Msg] {
			return
		}
		if !e.Typed {
			d.orphanSyncSends++
			return
		}
		snap := make([]int, d.NumProcs)
		copy(snap, d.vc[p])
		d.sendVC[i] = snap
	case "handle":
		if !syncMsgs[e.Msg] {
			return
		}
		s := d.SendOf(i)
		if s < 0 {
			d.orphanSyncHandles++
			return
		}
		sv := d.sendVC[s]
		delete(d.sendVC, s)
		for j, v := range sv {
			if v > d.vc[p][j] {
				d.vc[p][j] = v
			}
		}
		d.rep.SyncEdges++
	case "sync":
		if e.Typed && e.Sync == protocol.SyncBarrier {
			d.arr[p] = append(d.arr[p], genPo{int(e.ID), d.po[p]})
		}
	case "miss":
		if e.Declared {
			// A batch fetch: the masks are the batch's declared reference
			// ranges, which over-approximate. The batch's touch events
			// carry the exact accesses.
			return
		}
		kind, rd, wr := "", e.Rd, e.Wr
		if e.Typed {
			kind = e.Kind.String()
		}
		if !e.HasMasks {
			// Legacy traces without masks degrade to whole-block masks:
			// of the kind's direction, or of both when that is unknown too.
			d.legacyMasks++
			rd, wr = ^uint64(0), ^uint64(0)
			if e.Typed && e.Kind == stats.ReadMiss {
				wr = 0
			} else if e.Typed {
				rd = 0
			}
		}
		d.access(i, kind, rd, wr)
	case "touch":
		if e.Typed {
			d.access(i, "batched", e.Rd, e.Wr)
		}
	}
}

// access race-checks one access event (a plain miss, or a batch touch)
// against the unordered suffix of every other processor's accesses to the
// same block, then records it.
func (d *raceDetector) access(i int, kind string, rd, wr uint64) {
	e := &d.Events[i]
	p := e.Proc
	d.rep.Accesses++
	b := e.BaseLine
	ba := d.blocks[b]
	if ba == nil {
		ba = &blockAccesses{perProc: make([][]access, d.NumProcs)}
		d.blocks[b] = ba
	}
	a := access{po: d.po[p], eventIdx: i, rd: rd, wr: wr, kind: kind}
	// barK is the latest barrier generation p has arrived at; since the
	// access is an application event, the barrier has completed by now.
	barK := -1
	if n := len(d.arr[p]); n > 0 {
		barK = d.arr[p][n-1].gen
	}
	for q := 0; q < d.NumProcs; q++ {
		if q == p || len(ba.perProc[q]) == 0 {
			continue
		}
		pair := racePair{b, min(p, q), max(p, q)}
		if d.seen[pair] {
			continue
		}
		// bound is the highest program-order index of q ordered before
		// this access: the sync-edge frontier, raised by the barrier rule.
		bound := d.vc[p][q]
		if bb := d.barBound(q, barK); bb > bound {
			bound = bb
		}
		// Accesses of q above the bound are concurrent with this one.
		// Scanning the whole unordered suffix and keeping the earliest
		// conflict yields the shortest witness (the race closest to the
		// last ordered point).
		list := ba.perProc[q]
		var conflict *access
		var overlap uint64
		for j := len(list) - 1; j >= 0; j-- {
			f := &list[j]
			if f.po <= bound {
				break
			}
			if ov := (f.wr & (rd | wr)) | (wr & (f.rd | f.wr)); ov != 0 {
				conflict, overlap = f, ov
			}
		}
		if conflict != nil {
			d.seen[pair] = true
			d.record(b, overlap, q, conflict, bound, i, kind, rd, wr)
		}
	}
	ba.perProc[p] = append(ba.perProc[p], a)
}

// barBound returns the highest program-order index of q covered by the
// barrier rule: q's arrival index at the latest generation ≤ barK it
// arrived at (on a complete trace of a completed barrier this is barK
// itself, since barriers are global).
func (d *raceDetector) barBound(q, barK int) int {
	if barK < 0 {
		return 0
	}
	a := d.arr[q]
	j := sort.Search(len(a), func(i int) bool { return a[i].gen > barK }) - 1
	if j < 0 {
		return 0
	}
	return a[j].po
}

// record captures one race: first access by q (earlier in the trace),
// second the current miss event, witness derived from the ordered bound.
func (d *raceDetector) record(b int, overlap uint64, q int, first *access, bound, secondIdx int, kind string, rd, wr uint64) {
	fe := &d.Events[first.eventIdx]
	se := &d.Events[secondIdx]
	r := Race{
		Block:   b,
		Overlap: overlap,
		First: AccessSite{Proc: fe.Proc, Seq: fe.Seq, Time: fe.Time,
			Kind: first.kind, RdMask: first.rd, WrMask: first.wr},
		Second: AccessSite{Proc: se.Proc, Seq: se.Seq, Time: se.Time,
			Kind: kind, RdMask: rd, WrMask: wr},
	}
	if bound > 0 {
		we := &d.Events[d.evOf[q][bound-1]]
		r.Witness = RaceWitness{Ok: true, Seq: we.Seq, Time: we.Time,
			Op: we.Op, Msg: we.Msg, Prim: SyncPrim(we),
			After: first.po - bound}
	}
	d.rep.Races = append(d.rep.Races, r)
}

// Format renders the report deterministically: a one-line verdict, the
// warnings, then one stanza per race with both access sites and the
// unordered witness.
func (r *RaceReport) Format() string {
	var b strings.Builder
	if len(r.Races) == 0 {
		fmt.Fprintf(&b, "ok: no data races: %d accesses on %d blocks, %d events, %d sync edges\n",
			r.Accesses, r.Blocks, r.Events, r.SyncEdges)
	} else {
		noun := "data races"
		if len(r.Races) == 1 {
			noun = "data race"
		}
		fmt.Fprintf(&b, "RACES: %d %s: %d accesses on %d blocks, %d events, %d sync edges\n",
			len(r.Races), noun, r.Accesses, r.Blocks, r.Events, r.SyncEdges)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	for i, rc := range r.Races {
		fmt.Fprintf(&b, "race %d: blk%d overlap=%x\n", i+1, rc.Block, rc.Overlap)
		site := func(tag string, s AccessSite) {
			fmt.Fprintf(&b, "  [%s] %-7s by p%-3d seq=%-8d t=%-10d r=%x w=%x\n",
				tag, s.Kind, s.Proc, s.Seq, s.Time, s.RdMask, s.WrMask)
		}
		site("a", rc.First)
		site("b", rc.Second)
		if rc.Witness.Ok {
			ev := rc.Witness.Op
			if rc.Witness.Msg != "" {
				ev += " " + rc.Witness.Msg
			}
			if rc.Witness.Prim != "" {
				ev += " [" + rc.Witness.Prim + "]"
			}
			fmt.Fprintf(&b, "  witness: p%d's last event ordered before [b] is seq=%d t=%d (%s); [a] follows %d p%d events later, unordered with [b]\n",
				rc.First.Proc, rc.Witness.Seq, rc.Witness.Time, ev, rc.Witness.After, rc.First.Proc)
		} else {
			fmt.Fprintf(&b, "  witness: no p%d event is ordered before [b]; the accesses are fully concurrent\n",
				rc.First.Proc)
		}
	}
	return b.String()
}
