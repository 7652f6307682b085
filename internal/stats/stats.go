// Package stats collects the counters and time breakdowns reported in the
// evaluation of the SMP-Shasta paper: shared-miss counts classified by
// request type and hop count (Figure 6), protocol message counts classified
// as remote / local / downgrade (Figure 7), the distribution of downgrade
// messages sent per block downgrade (Figure 8), and per-processor execution
// time breakdowns (Figures 4 and 5).
//
// All times are in processor cycles; the simulator runs virtual 300 MHz
// clocks, so 300 cycles equal one microsecond.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// TimeCategory labels one component of the execution-time breakdown used in
// Figures 4 and 5 of the paper.
type TimeCategory int

// The breakdown categories, in the order the paper stacks them.
const (
	// Task is time spent executing application code, including inline
	// miss checks and the cost of entering the protocol.
	Task TimeCategory = iota
	// Read is stall time for read misses satisfied by the software
	// protocol.
	Read
	// Write is stall time attributable to stores (outstanding-store
	// limits and waiting for store completions at releases).
	Write
	// Sync is stall time for application locks and barriers.
	Sync
	// Message is time spent handling protocol messages while not
	// already stalled.
	Message
	// Other covers non-blocking-store bookkeeping, private state table
	// upgrades and pending-downgrade handling.
	Other

	// NumTimeCategories is the number of breakdown categories.
	NumTimeCategories
)

// String returns the paper's label for the category.
func (c TimeCategory) String() string {
	switch c {
	case Task:
		return "task"
	case Read:
		return "read"
	case Write:
		return "write"
	case Sync:
		return "sync"
	case Message:
		return "message"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("TimeCategory(%d)", int(c))
	}
}

// MissKind classifies a shared miss by the protocol request it generated,
// matching the request types of the Shasta protocol.
type MissKind uint8

// The three request types of the protocol.
const (
	ReadMiss MissKind = iota
	WriteMiss
	UpgradeMiss

	// NumMissKinds is the number of miss classifications.
	NumMissKinds
)

// String returns a short label for the miss kind.
func (k MissKind) String() string {
	switch k {
	case ReadMiss:
		return "read"
	case WriteMiss:
		return "write"
	case UpgradeMiss:
		return "upgrade"
	default:
		return fmt.Sprintf("MissKind(%d)", int(k))
	}
}

// MsgClass classifies a protocol message for Figure 7.
type MsgClass int

// Message classes.
const (
	// RemoteMsg is a protocol message between processors on different
	// physical nodes.
	RemoteMsg MsgClass = iota
	// LocalMsg is a protocol message between processors on the same
	// physical node, excluding downgrade messages.
	LocalMsg
	// DowngradeMsg is an intra-node downgrade message (SMP-Shasta only).
	DowngradeMsg

	// NumMsgClasses is the number of message classifications.
	NumMsgClasses
)

// String returns the paper's label for the message class.
func (c MsgClass) String() string {
	switch c {
	case RemoteMsg:
		return "remote"
	case LocalMsg:
		return "local"
	case DowngradeMsg:
		return "downgrade"
	default:
		return fmt.Sprintf("MsgClass(%d)", int(c))
	}
}

// MaxDowngradeFanout is the largest number of downgrade messages a single
// block downgrade can require (the other processors of a 4-processor node).
const MaxDowngradeFanout = 3

// SyncKind classifies an application synchronization primitive.
type SyncKind int

// The application synchronization primitive kinds.
const (
	// SyncLock is a message-based queue lock allocated by AllocLock.
	SyncLock SyncKind = iota
	// SyncBarrier is the global barrier (there is exactly one, id 0).
	SyncBarrier

	// NumSyncKinds is the number of primitive kinds.
	NumSyncKinds
)

// String returns a short label for the primitive kind.
func (k SyncKind) String() string {
	switch k {
	case SyncLock:
		return "lock"
	case SyncBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("SyncKind(%d)", int(k))
	}
}

// SyncID identifies one application synchronization primitive: a lock id
// from AllocLock, or the global barrier (kind SyncBarrier, ID 0).
type SyncID struct {
	Kind SyncKind
	ID   int
}

// Less orders primitives for deterministic reports: locks first by id, then
// the barrier.
func (a SyncID) Less(b SyncID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.ID < b.ID
}

// Lock hand-off hop-distance classes: how far a lock travelled from its
// previous holder to the processor it was granted to, in units of the
// cluster topology. A grant with no previous holder (the lock's first
// acquisition) is not a hand-off and is not classified.
const (
	// HandoffSelf: the previous holder is the new holder (re-acquisition).
	HandoffSelf = iota
	// HandoffNode: previous holder on the same SMP node.
	HandoffNode
	// HandoffGroup: same uplink group, different node (hierarchical
	// topologies only; on flat topologies every cross-node hand-off is
	// HandoffRemote).
	HandoffGroup
	// HandoffRemote: previous holder across the interconnect.
	HandoffRemote

	// NumHandoffClasses is the number of hand-off classes.
	NumHandoffClasses
)

// HandoffClassName returns the report label of a hand-off class.
func HandoffClassName(c int) string {
	switch c {
	case HandoffSelf:
		return "self"
	case HandoffNode:
		return "node"
	case HandoffGroup:
		return "group"
	case HandoffRemote:
		return "remote"
	default:
		return fmt.Sprintf("handoff(%d)", c)
	}
}

// SyncStat accumulates one processor's application-synchronization activity
// on a single primitive, counted on the requester side so each processor
// updates only its own shard (race-free with parallel engine workers).
//
// Unlike the other counters these are NOT subtracted by mid-run stat resets
// (see Proc.Sub): traces span the whole run, and the observability contract
// requires the per-primitive wait and hold totals here to reconcile exactly
// with the totals the sync analyzer derives from the trace. They therefore
// stay cumulative from the start of the run, like the per-block offset
// masks.
type SyncStat struct {
	// Acquires counts completed lock acquisitions by this processor;
	// Contended the subset granted off the release path (hops=3) rather
	// than immediately by the manager (hops=2).
	Acquires  int64
	Contended int64

	// WaitCycles is the virtual time from the acquire (or barrier arrival)
	// to the grant (or barrier departure); HoldCycles the time from a lock
	// grant to its release.
	WaitCycles int64
	HoldCycles int64

	// Handoffs classifies this processor's lock grants by the previous
	// holder's topological distance (HandoffSelf..HandoffRemote). The
	// lock's first-ever grant has no previous holder and is not counted.
	Handoffs [NumHandoffClasses]int64

	// Generations counts barrier departures by this processor (barrier
	// primitive only; every processor departs every generation).
	Generations int64
}

// add accumulates o into s.
func (s *SyncStat) add(o *SyncStat) {
	s.Acquires += o.Acquires
	s.Contended += o.Contended
	s.WaitCycles += o.WaitCycles
	s.HoldCycles += o.HoldCycles
	for c := range s.Handoffs {
		s.Handoffs[c] += o.Handoffs[c]
	}
	s.Generations += o.Generations
}

// NumLatencyBuckets is the number of power-of-two latency histogram buckets.
// Bucket b counts samples in [2^(b-1), 2^b) cycles (bucket 0 counts
// zero-cycle samples); the last bucket absorbs everything above 2^26 cycles
// (~0.22 virtual seconds), far beyond any single miss round trip.
const NumLatencyBuckets = 28

// LatencyBucket maps a cycle count to its histogram bucket. The buckets are
// fixed powers of two, so histograms of identical runs are byte-identical
// regardless of the latency values' spread.
func LatencyBucket(cycles int64) int {
	if cycles <= 0 {
		return 0
	}
	b := bits.Len64(uint64(cycles))
	if b >= NumLatencyBuckets {
		b = NumLatencyBuckets - 1
	}
	return b
}

// BucketRange describes bucket b's half-open cycle interval [lo, hi) for
// report labels; the top bucket's hi is -1 (unbounded).
func BucketRange(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 1
	}
	if b == NumLatencyBuckets-1 {
		return 1 << uint(b-1), -1
	}
	return 1 << uint(b-1), 1 << uint(b)
}

// Proc accumulates the statistics of a single processor.
type Proc struct {
	// TimeBy breaks the processor's virtual execution time into the
	// paper's categories, in cycles.
	TimeBy [NumTimeCategories]int64

	// Misses counts shared misses that generated a protocol request,
	// classified by request type and by whether the reply came from the
	// home processor (2 hops) or a third processor (3 hops).
	// Misses[kind][0] is 2-hop, Misses[kind][1] is 3-hop.
	Misses [NumMissKinds][2]int64

	// MergedMisses counts misses that were satisfied by merging with a
	// pending request issued by another processor in the same sharing
	// group (SMP-Shasta request combining).
	MergedMisses int64

	// LocalHits counts protocol entries resolved entirely within the
	// sharing group by upgrading the private state table.
	LocalHits int64

	// Messages counts protocol messages sent by this processor.
	Messages [NumMsgClasses]int64

	// Downgrades[n] counts block downgrades initiated by this processor
	// (as the handler of an incoming request) that required n downgrade
	// messages, for n in [0, MaxDowngradeFanout].
	Downgrades [MaxDowngradeFanout + 1]int64

	// ReadLatencySum and ReadLatencyCount track the average latency of
	// read misses satisfied by the software protocol.
	ReadLatencySum   int64
	ReadLatencyCount int64

	// ChecksExecuted counts inline miss checks executed (loads, stores
	// and batch checks), used by the checking-overhead experiments.
	ChecksExecuted int64

	// FalseMisses counts loads whose value happened to equal the invalid
	// flag while the line was actually valid.
	FalseMisses int64

	// StallEvents counts distinct stall episodes (read stalls, write
	// stalls and sync stalls), for diagnostics.
	StallEvents int64

	// HandlerCycles is the total virtual time this processor spent inside
	// protocol message handlers (top-level dispatches only; nested replays
	// are included in their enclosing dispatch), and HandlerEvents the
	// number of such dispatches. Together they give handler occupancy for
	// the observability snapshots; wakeups are excluded.
	HandlerCycles int64
	HandlerEvents int64

	// LockHoldCycles is the total virtual time this processor held a
	// protocol line lock, and LockAcquires the number of acquisitions
	// (SMP-Shasta only; both stay zero under Base-Shasta, which needs no
	// protocol locking). Spin time waiting for a lock is charged to the
	// time breakdown, not counted here.
	LockHoldCycles int64
	LockAcquires   int64

	// Migrations counts online home migrations this processor decided as
	// the old home (each hands a block's directory entry to a new home),
	// and MigForwards the home-bound messages it relayed along migration
	// tombstones toward a block's live home. Both stay zero unless the
	// protocol's Migrate option is enabled.
	Migrations  int64
	MigForwards int64

	// DowngradeCycles is the virtual time this processor spent on intra-
	// group downgrades: handling downgrade messages plus stalling on a
	// downgrade already in progress. It is a memo sub-component — the same
	// cycles are also charged to the TimeBy categories (message or the
	// enclosing stall) — reported so the profiler can show how much of the
	// protocol overhead the SMP-Shasta downgrade machinery accounts for.
	DowngradeCycles int64

	// MissLatency histograms miss round-trip latency (request issue to
	// reply installation) by request type and home-node distance:
	// MissLatency[kind][0] for a home on this processor's own SMP node,
	// MissLatency[kind][1] for a remote home. Buckets are the fixed
	// power-of-two ranges of LatencyBucket.
	MissLatency [NumMissKinds][2][NumLatencyBuckets]int64

	// Blocks attributes this processor's protocol activity to individual
	// coherence blocks, keyed by block base line. Each processor updates
	// only its own shard, so the per-block counters stay race-free with
	// parallel engine workers and append-only for the determinism contract;
	// the obsv layer aggregates shards across processors at snapshot time.
	// Allocated lazily by Block.
	Blocks map[int]*BlockStat

	// lastBase/lastBlock memoize the most recent Block lookup: protocol
	// handlers touch the same block's shard several times per transaction,
	// so the cache turns most lookups into a pointer compare instead of a
	// map probe. lastBlock nil means no valid cache entry (never key on
	// lastBase alone: its zero value aliases block 0).
	lastBase  int
	lastBlock *BlockStat

	// blockArena chunk-allocates BlockStat values so block-heavy runs do
	// one heap allocation per blockArenaChunk first-touches instead of one
	// each (a measurable share of host allocation churn at high processor
	// counts).
	blockArena []BlockStat

	// Syncs attributes this processor's application synchronization to
	// individual primitives (locks and the barrier), keyed by primitive.
	// Counted on the requester side only, so like Blocks each processor
	// updates its own shard. Cumulative across mid-run resets — see
	// SyncStat. Allocated lazily by Sync.
	Syncs map[SyncID]*SyncStat
}

// blockArenaChunk is the number of BlockStat values one arena chunk holds.
const blockArenaChunk = 64

// BlockStat accumulates one processor's protocol activity on a single
// coherence block. Like every other Proc field the counters are append-only:
// mid-run resets are baseline subtractions (see Sub), never in-place clears.
type BlockStat struct {
	// Misses counts this processor's shared misses on the block,
	// classified like Proc.Misses: by request type, and by whether the
	// reply came in 2 hops (index 0) or 3 hops (index 1).
	Misses [NumMissKinds][2]int64

	// InvalsRecv counts invalidation messages this processor handled for
	// the block; InvalsSent counts invalidations it sent on the block's
	// behalf while serving a request for exclusive ownership.
	InvalsRecv int64
	InvalsSent int64

	// Downgrades counts intra-group block downgrades this processor
	// initiated for the block, and DowngradeMsgs the downgrade messages
	// they required (SMP-Shasta only).
	Downgrades    int64
	DowngradeMsgs int64

	// Migrations counts online home migrations of the block this
	// processor decided as its (old) home.
	Migrations int64

	// ReadMask and WriteMask record which of the block's sub-block slots
	// (see BlockSlots) this processor's missing loads and stores touched.
	// The masks grow monotonically by bitwise OR, which is commutative, so
	// they are identical with one engine worker or many; unlike
	// the counters they are not subtractable and therefore remain
	// cumulative from the start of the run across ResetStats.
	ReadMask  uint64
	WriteMask uint64
}

// MissTotal returns the block's total miss count across kinds and hops.
func (b *BlockStat) MissTotal() int64 {
	var t int64
	for k := range b.Misses {
		t += b.Misses[k][0] + b.Misses[k][1]
	}
	return t
}

// countsZero reports whether every counter (not mask) is zero; such entries
// carry no activity for the measured phase and are dropped by Sub.
func (b *BlockStat) countsZero() bool {
	for k := range b.Misses {
		if b.Misses[k][0] != 0 || b.Misses[k][1] != 0 {
			return false
		}
	}
	return b.InvalsRecv == 0 && b.InvalsSent == 0 &&
		b.Downgrades == 0 && b.DowngradeMsgs == 0 && b.Migrations == 0
}

// Block returns the per-block shard for the block with the given base line,
// allocating it (and the Blocks map) on first touch.
func (p *Proc) Block(base int) *BlockStat {
	if p.lastBlock != nil && p.lastBase == base {
		return p.lastBlock
	}
	b := p.Blocks[base]
	if b == nil {
		if p.Blocks == nil {
			p.Blocks = make(map[int]*BlockStat)
		}
		if len(p.blockArena) == 0 {
			p.blockArena = make([]BlockStat, blockArenaChunk)
		}
		b = &p.blockArena[0]
		p.blockArena = p.blockArena[1:]
		p.Blocks[base] = b
	}
	p.lastBase, p.lastBlock = base, b
	return b
}

// Sync returns the per-primitive shard for one synchronization primitive,
// allocating it (and the Syncs map) on first touch.
func (p *Proc) Sync(kind SyncKind, id int) *SyncStat {
	k := SyncID{Kind: kind, ID: id}
	s := p.Syncs[k]
	if s == nil {
		if p.Syncs == nil {
			p.Syncs = make(map[SyncID]*SyncStat)
		}
		s = &SyncStat{}
		p.Syncs[k] = s
	}
	return s
}

// Clone returns a deep copy of the counters. The statistics fence callback
// must use it when recording baselines: a shallow struct copy would alias the
// live Blocks map and the end-of-run subtraction would then zero itself out.
func (p *Proc) Clone() Proc {
	c := *p
	// The clone gets its own shards; drop the lookup cache and arena so it
	// never aliases the live processor's storage.
	c.lastBase, c.lastBlock, c.blockArena = 0, nil, nil
	if p.Blocks != nil {
		c.Blocks = make(map[int]*BlockStat, len(p.Blocks))
		for base, b := range p.Blocks {
			cb := *b
			c.Blocks[base] = &cb
		}
	}
	if p.Syncs != nil {
		c.Syncs = make(map[SyncID]*SyncStat, len(p.Syncs))
		for k, s := range p.Syncs {
			cs := *s
			c.Syncs[k] = &cs
		}
	}
	return c
}

// BlockSlots returns the sub-block resolution of the per-block access masks
// for a block of blockBytes: the block divides into slots chunks of
// slotBytes each. slotBytes is blockBytes/64 but at least 8 (one longword),
// so a mask always fits in a uint64; at the paper's granularities a 64-byte
// block gets 8 slots of 8 bytes and a 256-byte block 32 slots of 8 bytes.
func BlockSlots(blockBytes int) (slots, slotBytes int) {
	slotBytes = blockBytes / 64
	if slotBytes < 8 {
		slotBytes = 8
	}
	slots = (blockBytes + slotBytes - 1) / slotBytes
	if slots > 64 {
		slots = 64
	}
	return slots, slotBytes
}

// SlotMask returns the access-mask bits covering the block-relative byte
// range [lo, hi) of a block of blockBytes.
func SlotMask(blockBytes int, lo, hi int64) uint64 {
	if hi <= lo {
		return 0
	}
	_, sb := BlockSlots(blockBytes)
	first := int(lo) / sb
	last := int(hi-1) / sb
	if first > 63 {
		first = 63
	}
	if last > 63 {
		last = 63
	}
	var m uint64
	for s := first; s <= last; s++ {
		m |= 1 << uint(s)
	}
	return m
}

// RecordMissLatency adds one miss round trip to the latency histograms.
func (p *Proc) RecordMissLatency(kind MissKind, remoteHome bool, cycles int64) {
	d := 0
	if remoteHome {
		d = 1
	}
	p.MissLatency[kind][d][LatencyBucket(cycles)]++
}

// AddTime attributes cycles to one breakdown category.
func (p *Proc) AddTime(c TimeCategory, cycles int64) {
	p.TimeBy[c] += cycles
}

// Total returns the processor's total accounted time in cycles.
func (p *Proc) Total() int64 {
	var t int64
	for _, v := range p.TimeBy {
		t += v
	}
	return t
}

// Run aggregates the statistics of a full parallel run.
type Run struct {
	Procs []Proc

	// Cycles is the parallel execution time of the run in cycles: the
	// maximum finish time across processors, measured from the point the
	// statistics were last reset (normally the end of initialization).
	Cycles int64

	// CyclesPerMicrosecond converts cycles to wall time (300 for the
	// paper's 300 MHz processors).
	CyclesPerMicrosecond int64

	// Measured, when non-nil, holds the per-processor execution-time
	// breakdown of the measured phase, frozen at the EndMeasured instant
	// (or at the end of the run) and sealed so each processor's components
	// sum exactly to Cycles. See CaptureMeasured and SealMeasured.
	Measured []MeasuredBreakdown
}

// MeasuredBreakdown is one processor's share of the measured parallel time,
// partitioned so that the six TimeBy categories plus Idle sum exactly to
// Run.Cycles. Idle covers the slack between a processor's accounted time and
// the parallel time — chiefly waiting at the final measured barrier after
// finishing early. Downgrade is an overlapping memo (see
// Proc.DowngradeCycles), not part of the sum.
type MeasuredBreakdown struct {
	TimeBy    [NumTimeCategories]int64
	Idle      int64
	Downgrade int64
}

// Total returns the partitioned total: the category sum plus idle time.
func (m *MeasuredBreakdown) Total() int64 {
	t := m.Idle
	for _, v := range m.TimeBy {
		t += v
	}
	return t
}

// CaptureMeasured freezes every processor's accumulated time breakdown at
// this instant. EndMeasured calls it so verification code running after the
// measured phase does not leak into the profile; it is idempotent in the
// sense that SealMeasured only captures if no capture has happened.
func (r *Run) CaptureMeasured() {
	r.Measured = make([]MeasuredBreakdown, len(r.Procs))
	for i := range r.Procs {
		r.Measured[i] = MeasuredBreakdown{
			TimeBy:    r.Procs[i].TimeBy,
			Downgrade: r.Procs[i].DowngradeCycles,
		}
	}
}

// sealOrder is the order categories absorb a (rare) accounting deficit when
// a processor's captured time exceeds the parallel time: a processor can run
// slightly ahead of the EndMeasured instant under the simulator's horizon-
// based run-ahead. The clamp is deterministic, so sealed breakdowns of
// identical runs stay byte-identical.
var sealOrder = [NumTimeCategories]TimeCategory{Sync, Read, Write, Message, Other, Task}

// SealMeasured finalizes the measured breakdown against the run's parallel
// time: capturing now if EndMeasured never did, then assigning each
// processor's residual (Cycles minus accounted time) to Idle. A negative
// residual is clamped by deducting the deficit from the categories in
// sealOrder. After sealing, every processor's TimeBy plus Idle sums exactly
// to Cycles. System.Run calls this once Cycles is known.
func (r *Run) SealMeasured() {
	if r.Measured == nil {
		r.CaptureMeasured()
	}
	for i := range r.Measured {
		m := &r.Measured[i]
		residual := r.Cycles
		for _, v := range m.TimeBy {
			residual -= v
		}
		if residual >= 0 {
			m.Idle = residual
			continue
		}
		m.Idle = 0
		deficit := -residual
		for _, c := range sealOrder {
			if deficit == 0 {
				break
			}
			take := m.TimeBy[c]
			if take > deficit {
				take = deficit
			}
			m.TimeBy[c] -= take
			deficit -= take
		}
	}
}

// NewRun returns a Run with storage for n processors.
func NewRun(n int) *Run {
	return &Run{Procs: make([]Proc, n), CyclesPerMicrosecond: 300}
}

// Microseconds converts a cycle count into microseconds of virtual time.
func (r *Run) Microseconds(cycles int64) float64 {
	return float64(cycles) / float64(r.CyclesPerMicrosecond)
}

// TotalMisses sums misses across processors, kinds and hop counts.
func (r *Run) TotalMisses() int64 {
	var t int64
	for i := range r.Procs {
		for k := 0; k < int(NumMissKinds); k++ {
			t += r.Procs[i].Misses[k][0] + r.Procs[i].Misses[k][1]
		}
	}
	return t
}

// MissesBy returns the total number of misses of the given kind and hop
// class (hops must be 2 or 3).
func (r *Run) MissesBy(kind MissKind, hops int) int64 {
	idx := hops - 2
	var t int64
	for i := range r.Procs {
		t += r.Procs[i].Misses[kind][idx]
	}
	return t
}

// TotalMessages sums protocol messages across processors and classes.
func (r *Run) TotalMessages() int64 {
	var t int64
	for i := range r.Procs {
		for c := 0; c < int(NumMsgClasses); c++ {
			t += r.Procs[i].Messages[c]
		}
	}
	return t
}

// MessagesBy returns the total number of messages of one class.
func (r *Run) MessagesBy(c MsgClass) int64 {
	var t int64
	for i := range r.Procs {
		t += r.Procs[i].Messages[c]
	}
	return t
}

// DowngradeDistribution returns, for n in [0, MaxDowngradeFanout], the
// fraction of block downgrades that required n downgrade messages. The
// second return value is the total number of downgrades; if it is zero the
// fractions are all zero.
func (r *Run) DowngradeDistribution() ([MaxDowngradeFanout + 1]float64, int64) {
	var counts [MaxDowngradeFanout + 1]int64
	var total int64
	for i := range r.Procs {
		for n, c := range r.Procs[i].Downgrades {
			counts[n] += c
			total += c
		}
	}
	var frac [MaxDowngradeFanout + 1]float64
	if total > 0 {
		for n, c := range counts {
			frac[n] = float64(c) / float64(total)
		}
	}
	return frac, total
}

// AvgReadLatencyMicros returns the mean read-miss latency in microseconds,
// or zero if no read misses were recorded.
func (r *Run) AvgReadLatencyMicros() float64 {
	var sum, n int64
	for i := range r.Procs {
		sum += r.Procs[i].ReadLatencySum
		n += r.Procs[i].ReadLatencyCount
	}
	if n == 0 {
		return 0
	}
	return r.Microseconds(sum) / float64(n)
}

// HandlerOccupancy returns total handler cycles and dispatch count across
// processors.
func (r *Run) HandlerOccupancy() (cycles, events int64) {
	for i := range r.Procs {
		cycles += r.Procs[i].HandlerCycles
		events += r.Procs[i].HandlerEvents
	}
	return cycles, events
}

// SyncTotals aggregates the per-primitive synchronization shards across
// processors. The returned primitives are sorted (locks by id, then the
// barrier), each paired with the summed counters; the barrier's Generations
// is the maximum across processors — the number of completed generations —
// rather than the sum of every processor's departures.
func (r *Run) SyncTotals() ([]SyncID, []SyncStat) {
	byID := map[SyncID]*SyncStat{}
	for i := range r.Procs {
		for k, s := range r.Procs[i].Syncs {
			t := byID[k]
			if t == nil {
				t = &SyncStat{}
				byID[k] = t
			}
			gens := t.Generations
			t.add(s)
			if k.Kind == SyncBarrier {
				t.Generations = gens
				if s.Generations > t.Generations {
					t.Generations = s.Generations
				}
			}
		}
	}
	ids := make([]SyncID, 0, len(byID))
	for k := range byID {
		ids = append(ids, k)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	out := make([]SyncStat, len(ids))
	for i, k := range ids {
		out[i] = *byID[k]
	}
	return ids, out
}

// LockHolds returns total line-lock hold cycles and acquisition count
// across processors (zero under Base-Shasta).
func (r *Run) LockHolds() (cycles, acquires int64) {
	for i := range r.Procs {
		cycles += r.Procs[i].LockHoldCycles
		acquires += r.Procs[i].LockAcquires
	}
	return cycles, acquires
}

// TimeBy returns the total cycles in one breakdown category summed across
// processors.
func (r *Run) TimeBy(c TimeCategory) int64 {
	var t int64
	for i := range r.Procs {
		t += r.Procs[i].TimeBy[c]
	}
	return t
}

// BreakdownFractions returns, per category, the fraction of the summed
// per-processor accounted time. Used to render the stacked bars of
// Figures 4 and 5.
func (r *Run) BreakdownFractions() [NumTimeCategories]float64 {
	var total int64
	var by [NumTimeCategories]int64
	for i := range r.Procs {
		for c := 0; c < int(NumTimeCategories); c++ {
			by[c] += r.Procs[i].TimeBy[c]
			total += r.Procs[i].TimeBy[c]
		}
	}
	var frac [NumTimeCategories]float64
	if total > 0 {
		for c := range by {
			frac[c] = float64(by[c]) / float64(total)
		}
	}
	return frac
}

// Reset zeroes every processor's counters. Used at the "start of parallel
// phase" barrier so measurements exclude initialization, as in standard
// SPLASH-2 methodology.
func (r *Run) Reset() {
	for i := range r.Procs {
		r.Procs[i] = Proc{}
	}
	r.Cycles = 0
	r.Measured = nil
}

// Sub subtracts a baseline snapshot from the counters, field-wise. Every
// Proc field is an additive counter, so state(t2).Sub(state(t1)) yields
// exactly the activity accumulated in between. The protocol layer's
// statistics fence uses this to implement mid-run resets as baseline
// subtraction: the reset records a snapshot at the fence position and the
// final counters are differenced once at the end of the run, which keeps
// the live counters append-only and therefore identical with one engine
// worker or many.
func (p *Proc) Sub(base *Proc) {
	for c := range p.TimeBy {
		p.TimeBy[c] -= base.TimeBy[c]
	}
	for k := range p.Misses {
		p.Misses[k][0] -= base.Misses[k][0]
		p.Misses[k][1] -= base.Misses[k][1]
	}
	p.MergedMisses -= base.MergedMisses
	p.LocalHits -= base.LocalHits
	for c := range p.Messages {
		p.Messages[c] -= base.Messages[c]
	}
	for n := range p.Downgrades {
		p.Downgrades[n] -= base.Downgrades[n]
	}
	p.ReadLatencySum -= base.ReadLatencySum
	p.ReadLatencyCount -= base.ReadLatencyCount
	p.ChecksExecuted -= base.ChecksExecuted
	p.FalseMisses -= base.FalseMisses
	p.StallEvents -= base.StallEvents
	p.HandlerCycles -= base.HandlerCycles
	p.HandlerEvents -= base.HandlerEvents
	p.LockHoldCycles -= base.LockHoldCycles
	p.LockAcquires -= base.LockAcquires
	p.Migrations -= base.Migrations
	p.MigForwards -= base.MigForwards
	p.DowngradeCycles -= base.DowngradeCycles
	for k := range p.MissLatency {
		for d := range p.MissLatency[k] {
			for b := range p.MissLatency[k][d] {
				p.MissLatency[k][d][b] -= base.MissLatency[k][d][b]
			}
		}
	}
	// Per-block counters subtract entry-wise; the offset masks are
	// OR-monotone rather than additive and stay cumulative (see BlockStat).
	// Entries with zero net counts and no recorded offsets carry no
	// evidence and are dropped; entries with masks survive even at zero
	// counts — a writer whose stores all hit locally still identifies who
	// writes which offsets, which is exactly the false-sharing evidence.
	// Dropping entries below may orphan the lookup cache; invalidate it.
	p.lastBase, p.lastBlock = 0, nil
	for blk, b := range p.Blocks {
		if bb, ok := base.Blocks[blk]; ok {
			for k := range b.Misses {
				b.Misses[k][0] -= bb.Misses[k][0]
				b.Misses[k][1] -= bb.Misses[k][1]
			}
			b.InvalsRecv -= bb.InvalsRecv
			b.InvalsSent -= bb.InvalsSent
			b.Downgrades -= bb.Downgrades
			b.DowngradeMsgs -= bb.DowngradeMsgs
			b.Migrations -= bb.Migrations
		}
		if b.countsZero() && b.ReadMask == 0 && b.WriteMask == 0 {
			delete(p.Blocks, blk)
		}
	}
	// The per-primitive sync shards are deliberately NOT subtracted: they
	// must reconcile exactly with whole-run traces (see SyncStat), so like
	// the offset masks they stay cumulative across mid-run resets.
}

// MissLatencyBy sums the latency histogram of one miss kind and home
// distance (0 local node, 1 remote) across processors.
func (r *Run) MissLatencyBy(kind MissKind, dist int) (buckets [NumLatencyBuckets]int64, count int64) {
	for i := range r.Procs {
		for b, n := range r.Procs[i].MissLatency[kind][dist] {
			buckets[b] += n
			count += n
		}
	}
	return buckets, count
}

// Summary renders a compact multi-line report of the run, mainly for
// debugging and the CLI's verbose mode.
func (r *Run) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "parallel time: %.1f us (%d cycles)\n",
		r.Microseconds(r.Cycles), r.Cycles)
	fmt.Fprintf(&b, "misses: %d (", r.TotalMisses())
	parts := make([]string, 0, 6)
	for k := MissKind(0); k < NumMissKinds; k++ {
		for _, h := range []int{2, 3} {
			if n := r.MissesBy(k, h); n > 0 {
				parts = append(parts, fmt.Sprintf("%s-%dhop %d", k, h, n))
			}
		}
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(")\n")
	fmt.Fprintf(&b, "messages: %d (remote %d, local %d, downgrade %d)\n",
		r.TotalMessages(), r.MessagesBy(RemoteMsg), r.MessagesBy(LocalMsg),
		r.MessagesBy(DowngradeMsg))
	frac, total := r.DowngradeDistribution()
	if total > 0 {
		fmt.Fprintf(&b, "downgrades: %d (0:%.0f%% 1:%.0f%% 2:%.0f%% 3:%.0f%%)\n",
			total, frac[0]*100, frac[1]*100, frac[2]*100, frac[3]*100)
	}
	fr := r.BreakdownFractions()
	fmt.Fprintf(&b, "breakdown: task %.0f%% read %.0f%% write %.0f%% sync %.0f%% msg %.0f%% other %.0f%%\n",
		fr[Task]*100, fr[Read]*100, fr[Write]*100, fr[Sync]*100,
		fr[Message]*100, fr[Other]*100)
	return b.String()
}

// SortedKeys returns map keys in sorted order; a small helper shared by
// report formatting code.
func SortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
