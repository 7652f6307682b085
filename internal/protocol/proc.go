package protocol

import (
	"fmt"
	"math"

	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Proc is one processor's protocol context. Application code runs on it and
// accesses shared memory through the Load/Store/Batch methods, which model
// Shasta's inline miss checks and invoke the software protocol on misses.
type Proc struct {
	sys *System
	id  int
	sp  *sim.Proc
	grp *group
	st  *stats.Proc

	// priv is the processor's private state table (SMP-Shasta only; nil
	// under Base-Shasta and hardware mode).
	priv memory.PrivateTable

	// dir holds directory entries for blocks homed at this processor.
	dir map[int]*dirEntry

	// migrated holds tombstones for blocks whose directory this
	// processor handed away by online migration, keyed by base line.
	// Until the new home acknowledges installation, requests queue on
	// the tombstone; afterwards they forward. Allocated lazily.
	migrated map[int]*migRec
	// migSeq numbers this processor's outgoing migrations; echoed in the
	// acknowledgement so a stale ack (from before a block re-homed back
	// here and away again) is recognized and ignored.
	migSeq int

	// outstandingStores counts this processor's incomplete store-miss
	// entries, bounded by Config.MaxOutstanding.
	outstandingStores int

	// stalled marks that the processor is inside a stall loop; handler
	// occupancy is then attributed to the stall's category, matching the
	// paper's accounting ("this time is hidden by the read, write, and
	// synchronization times").
	stalled  bool
	stallCat stats.TimeCategory

	// holdingLock is the base line whose protocol line lock this
	// processor holds, or -1. Protocol code must never block on messages
	// while holding a line lock. lockAcquiredAt is the acquisition time of
	// the held lock, for the hold-time statistics.
	holdingLock    int
	lockAcquiredAt int64

	// handlerDepth is the nesting depth of handle() dispatches, so handler
	// occupancy is attributed once per top-level dispatch.
	handlerDepth int

	// free holds this processor's handled messages for its next sends
	// (msg, release), at most msgFreeCap of them.
	free []*pmsg

	// inBatch is the nesting depth of batched sequences being executed, and
	// batches the batch context of each depth, reused from call to call: a
	// batch started inside another's body gets its own requirement table.
	inBatch int
	batches []*Batch

	// events queues this processor's traced events until the engine
	// delivers them (see trace, emitTrace); evHead is the delivered prefix.
	events []TraceEvent
	evHead int

	// Synchronization state.
	lockQueues  map[int][]int // locks homed here: waiting procs; head holds it
	lockHeld    map[int]bool  // locks homed here that are currently held
	lockGranted map[int]bool  // grants received, consumed by LockAcquire
	barCount    int           // arrivals (barrier manager, proc 0)
	barGen      int           // completed barrier generations observed

	// Application sync telemetry. Manager side: lockPrev names each homed
	// lock's previous holder, carried on grants. Requester side:
	// lockGrantPrev/lockGrantHops stage the latest grant's hand-off info
	// for LockAcquire, and lockHeldFrom the grant-completion time of each
	// held lock for the hold-cycle statistics. All are own-proc state, so
	// the per-primitive counters stay domain-local under the parallel
	// scheduler.
	lockPrev      map[int]int
	lockGrantPrev map[int]int
	lockGrantHops map[int]int
	lockHeldFrom  map[int]int64
}

// ID returns the processor's index.
func (p *Proc) ID() int { return p.id }

// NumProcs returns the total processor count.
func (p *Proc) NumProcs() int { return p.sys.cfg.NumProcs }

// Now returns the processor's virtual time in cycles.
func (p *Proc) Now() int64 { return p.sp.Now() }

// System returns the owning system.
func (p *Proc) System() *System { return p.sys }

// Compute charges cycles of application work to task time. Applications
// use it to model their computation between shared accesses.
func (p *Proc) Compute(cycles int64) {
	p.sp.Advance(stats.Task, cycles)
}

// charge attributes protocol cycles, redirecting message-handling time into
// the current stall category while stalled.
func (p *Proc) charge(cat stats.TimeCategory, cycles int64) {
	if p.stalled && cat == stats.Message {
		cat = p.stallCat
	}
	p.sp.Advance(cat, cycles)
}

// poll drains and handles every deliverable message, charging the poll
// cost. It is invoked at the start of every shared access — the analogue of
// Shasta's loop-backedge polling — so no message is ever handled between a
// successful inline check and its load or store.
func (p *Proc) poll() {
	p.charge(stats.Task, p.sys.checks.poll)
	for {
		m, ok := p.sp.TryRecv()
		if !ok {
			return
		}
		pm := m.Payload.(*pmsg)
		p.handle(pm)
		p.release(pm)
	}
}

// Poll gives the protocol a chance to handle incoming messages; apps with
// long computation stretches call it at loop backedges.
func (p *Proc) Poll() { p.poll() }

// stallUntil parks the processor until cond holds, handling protocol
// messages while waiting and attributing the time to cat.
func (p *Proc) stallUntil(cat stats.TimeCategory, where string, cond func() bool) {
	if cond() {
		return
	}
	if p.holdingLock >= 0 {
		panic(fmt.Sprintf("protocol: proc %d stalls at %s while holding line lock %d",
			p.id, where, p.holdingLock))
	}
	p.st.StallEvents++
	wasStalled, wasCat := p.stalled, p.stallCat
	p.stalled, p.stallCat = true, cat
	for !cond() {
		pm := p.sp.WaitRecv(cat, where).Payload.(*pmsg)
		p.handle(pm)
		p.release(pm)
	}
	p.stalled, p.stallCat = wasStalled, wasCat
}

// lockBlock acquires the protocol line lock for a block (SMP-Shasta only;
// Base-Shasta has one processor per group and needs no protocol locking).
// Lock sections are always bounded — no protocol code blocks on messages
// while holding a lock — so spinning terminates.
func (p *Proc) lockBlock(baseLine int) {
	if !p.sys.cfg.SMP() {
		return
	}
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Other, c.LockAcquire)
	for {
		holder, held := p.grp.locks[baseLine]
		if !held {
			p.grp.locks[baseLine] = p.id
			p.holdingLock = baseLine
			p.lockAcquiredAt = p.sp.Now()
			p.st.LockAcquires++
			return
		}
		if holder == p.id {
			panic(fmt.Sprintf("protocol: proc %d re-locks block %d", p.id, baseLine))
		}
		p.charge(stats.Other, c.LockSpin)
	}
}

// unlockBlock releases the line lock.
func (p *Proc) unlockBlock(baseLine int) {
	if !p.sys.cfg.SMP() {
		return
	}
	if p.grp.locks[baseLine] != p.id {
		panic(fmt.Sprintf("protocol: proc %d unlocks block %d it does not hold", p.id, baseLine))
	}
	delete(p.grp.locks, baseLine)
	p.holdingLock = -1
	p.st.LockHoldCycles += p.sp.Now() - p.lockAcquiredAt
	p.charge(stats.Other, p.sys.cfg.Cal.Costs.LockRelease)
}

// privState returns the state consulted by inline store checks: the private
// state table under SMP-Shasta, the (single-member) group's shared table
// under Base-Shasta.
func (p *Proc) privState(li int) memory.State {
	if p.priv != nil {
		return p.priv.Get(li)
	}
	s := p.grp.img.State(li)
	if s == memory.Shared || s == memory.Exclusive {
		return s
	}
	return memory.Invalid
}

// setPrivBlock updates the processor's private state for a block (no-op
// under Base-Shasta, where the shared table is authoritative). Raising the
// private state emits a privup trace event: private-state upgrades are
// otherwise invisible in the trace (local hits generate no miss or install
// event), and the replay invariant checker needs them to know which
// processors hold a block when a downgrade message targets them.
func (p *Proc) setPrivBlock(baseLine int, st memory.State) {
	if p.priv == nil {
		return
	}
	if st.Valid() {
		p.trace("privup", "", baseLine, TraceFields{To: st})
	}
	p.priv.SetBlock(p.sys.lay, baseLine, st)
}

// --- Loads ---

// LoadF64 performs a checked shared load of a float64. The check uses the
// invalid-flag technique; under SMP-Shasta the floating-point variant costs
// extra cycles to make the flag comparison atomic (Section 3.4.1).
func (p *Proc) LoadF64(addr memory.Addr) float64 {
	return math.Float64frombits(p.load(addr, 8, true))
}

// LoadU64 performs a checked shared load of a 64-bit integer.
func (p *Proc) LoadU64(addr memory.Addr) uint64 {
	return p.load(addr, 8, false)
}

// LoadU32 performs a checked shared load of a 32-bit integer.
func (p *Proc) LoadU32(addr memory.Addr) uint32 {
	return uint32(p.load(addr, 4, false))
}

func (p *Proc) load(addr memory.Addr, size int, fp bool) uint64 {
	p.checkHeap(addr, size, "reads")
	if p.sys.cfg.Hardware {
		return p.rawRead(addr, size)
	}
	p.poll()
	p.charge(stats.Task, p.sys.checks.load[variant(fp)])
	p.st.ChecksExecuted++
	v := p.rawRead(addr, size)
	if !flagHit(v, size) {
		return v
	}
	return p.loadMiss(addr, size)
}

// flagHit reports whether the loaded value's low longword matches the
// invalid flag — the inline comparison.
func flagHit(v uint64, size int) bool {
	return uint32(v) == memory.FlagWord
}

// checkHeap panics unless [addr, addr+size) lies inside an allocation. Every
// access passes through it first: the layout, the images and the state
// tables cover only the allocated heap, so nothing may be indexed before it.
func (p *Proc) checkHeap(addr memory.Addr, size int, verb string) {
	if !p.sys.lay.InHeap(addr, size) {
		panic(fmt.Sprintf("protocol: proc %d %s %d bytes at %d outside the allocated heap (%d bytes used)",
			p.id, verb, size, addr, p.sys.lay.Used()))
	}
}

func (p *Proc) rawRead(addr memory.Addr, size int) uint64 {
	if size == 4 {
		return uint64(p.grp.img.ReadU32(addr))
	}
	return p.grp.img.ReadU64(addr)
}

func (p *Proc) rawWrite(addr memory.Addr, size int, v uint64) {
	if size == 4 {
		p.grp.img.WriteU32(addr, uint32(v))
	} else {
		p.grp.img.WriteU64(addr, v)
	}
}

// loadMiss is the load miss handler: it distinguishes false misses, merges
// with pending requests, serves from pending-downgrade blocks, or issues a
// read request and stalls.
func (p *Proc) loadMiss(addr memory.Addr, size int) uint64 {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Task, c.Entry)
	base, lines := p.sys.lay.BlockOf(addr)
	mask := p.markAccess(base, lines, addr, size, false)
	for {
		p.lockBlock(base)
		// An existing miss entry takes precedence over the state table:
		// the block may transiently read Invalid while a reply is in
		// flight (e.g. after an invalidation raced with our request).
		if entry := p.grp.miss[base]; entry != nil && !entry.complete {
			if entry.dataArrived {
				// The entry's data is present right now (e.g. the valid
				// shared copy underneath a pending upgrade); read it
				// under the lock.
				v := p.rawRead(addr, size)
				p.unlockBlock(base)
				return v
			}
			entry.waiters.add(p.id)
			p.st.MergedMisses++
			p.unlockBlock(base)
			// Once the entry's data arrives — or the entry completes,
			// since a completed entry's block may already have been
			// served away again — loop and re-dispatch on the current
			// state instead of trusting the (possibly re-invalidated)
			// data.
			p.stallUntil(stats.Read, "load-merge", func() bool {
				return entry.dataArrived || entry.complete
			})
			continue
		}
		st := p.grp.img.State(base)
		switch st {
		case memory.Shared, memory.Exclusive:
			// The data is valid: either a false miss (the application
			// data genuinely contains the flag value) or a merged miss
			// re-dispatched after its fetch completed.
			v := p.rawRead(addr, size)
			if flagHit(v, size) {
				p.st.FalseMisses++
				if debugBatchFlagReads && size == 8 && uint32(v>>32) == memory.FlagWord {
					panic(fmt.Sprintf("false miss returns full flag: proc %d addr %d block %d state %v copySeq %d",
						p.id, addr, base, st, p.grp.copySeq[base]))
				}
			}
			p.unlockBlock(base)
			return v

		case memory.PendingDowngrade:
			dg := p.grp.downgrades[base]
			if dg != nil && dg.preState.Valid() {
				// The pre-downgrade state suffices for a load; serve it
				// while holding the lock (Section 3.4.3).
				v := p.rawRead(addr, size)
				if debugBatchFlagReads && uint32(v) == memory.FlagWord && (size == 4 || uint32(v>>32) == memory.FlagWord) {
					panic(fmt.Sprintf("load-during-downgrade returned flag: proc %d block %d pre %v", p.id, base, dg.preState))
				}
				p.unlockBlock(base)
				p.charge(stats.Other, c.MissTableOp)
				return v
			}
			p.unlockBlock(base)
			p.waitDowngrade(base)

		case memory.Invalid:
			entry := p.newMissEntry(base, stats.ReadMiss, mask, 0, false)
			p.grp.img.SetBlockState(base, memory.PendingRead)
			home := p.homeOf(base)
			p.sendHome(home, p.msg(pmsg{kind: mReadReq, baseLine: base, requester: p.id,
				issueTime: p.sp.Now()}), stats.Read)
			p.unlockBlock(base)
			p.stallUntil(stats.Read, "load-miss", func() bool {
				return entry.dataArrived || entry.complete
			})
			if entry.dataArrived {
				// The reply handler ran in this processor's own stall
				// loop, so the data is still in place.
				return p.rawRead(addr, size)
			}
			// The request was superseded by a later transaction before
			// its reply arrived; re-fetch.
			continue

		default:
			panic(fmt.Sprintf("protocol: load saw state %v with no miss entry", st))
		}
	}
}

// waitDowngrade stalls until the block's in-progress downgrade completes.
// The wait is charged to Other as before; the duration is also recorded in
// the DowngradeCycles memo for the profiler.
func (p *Proc) waitDowngrade(base int) {
	dg := p.grp.downgrades[base]
	if dg == nil {
		return
	}
	dg.waiters.add(p.id)
	start := p.sp.Now()
	p.stallUntil(stats.Other, "downgrade-wait", func() bool { return dg.done })
	p.st.DowngradeCycles += p.sp.Now() - start
}

// --- Stores ---

// StoreF64 performs a checked shared store of a float64. Stores are
// non-blocking: on a miss the protocol records the store in the miss entry
// and lets the processor continue (release consistency).
func (p *Proc) StoreF64(addr memory.Addr, v float64) {
	p.store(addr, 8, math.Float64bits(v))
}

// StoreU64 performs a checked shared store of a 64-bit integer.
func (p *Proc) StoreU64(addr memory.Addr, v uint64) { p.store(addr, 8, v) }

// StoreU32 performs a checked shared store of a 32-bit integer.
func (p *Proc) StoreU32(addr memory.Addr, v uint32) { p.store(addr, 4, uint64(v)) }

func (p *Proc) store(addr memory.Addr, size int, v uint64) {
	p.checkHeap(addr, size, "writes")
	if p.sys.cfg.Hardware {
		p.rawWrite(addr, size, v)
		return
	}
	p.poll()
	p.charge(stats.Task, p.sys.checks.store)
	p.st.ChecksExecuted++
	li := p.sys.lay.LineOf(addr)
	if p.privState(li) == memory.Exclusive {
		p.rawWrite(addr, size, v)
		return
	}
	p.storeMiss(addr, size, v)
}

// storeMiss is the store miss handler.
func (p *Proc) storeMiss(addr memory.Addr, size int, v uint64) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Task, c.Entry)
	base, lines := p.sys.lay.BlockOf(addr)
	mask := p.markAccess(base, lines, addr, size, true)
	for {
		p.lockBlock(base)
		// Merge with an existing pending request for the block: record
		// the store in the shared miss entry and continue without
		// stalling (the protocol's non-blocking store support). Entries
		// waiting only for acknowledgements are excluded: they receive
		// no further data replies, so a store recorded there would be
		// lost if the block is invalidated meanwhile.
		if entry := p.grp.miss[base]; entry != nil && !entry.complete && !entry.acksOnly() {
			p.charge(stats.Other, c.MissTableOp)
			p.rawWrite(addr, size, v)
			entry.stores = append(entry.stores, storeRec{addr: addr, size: size, val: v, proc: p.id})
			if !entry.hasStores {
				entry.hasStores = true
				p.sys.procs[entry.issuer].outstandingStores++
			}
			entry.wantExcl = true
			p.unlockBlock(base)
			return
		}
		st := p.grp.img.State(base)
		switch st {
		case memory.Exclusive:
			// The group already holds the block exclusively; only this
			// processor's private state needs upgrading.
			p.charge(stats.Other, c.PrivateUpgrade)
			p.setPrivBlock(base, memory.Exclusive)
			p.st.LocalHits++
			p.rawWrite(addr, size, v)
			p.unlockBlock(base)
			return

		case memory.PendingDowngrade:
			dg := p.grp.downgrades[base]
			if dg != nil && dg.preState == memory.Exclusive {
				// Pre-downgrade exclusive state suffices; the store is
				// performed under the lock and is included in whatever
				// data the deferred action sends (Section 3.4.3).
				p.rawWrite(addr, size, v)
				p.unlockBlock(base)
				p.charge(stats.Other, c.MissTableOp)
				return
			}
			p.unlockBlock(base)
			p.waitDowngrade(base)

		case memory.Shared:
			if p.outstandingStores >= p.sys.cfg.MaxOutstanding {
				p.unlockBlock(base)
				p.stallOutstanding()
				continue
			}
			entry := p.newMissEntry(base, stats.UpgradeMiss, 0, mask, false)
			// An upgrade's data is the already-present shared copy;
			// dataArrived is cleared if an invalidation takes it away
			// while the upgrade is in flight.
			entry.dataArrived = true
			entry.hasStores = true
			p.outstandingStores++
			p.rawWrite(addr, size, v)
			entry.stores = append(entry.stores, storeRec{addr: addr, size: size, val: v, proc: p.id})
			entry.wantExcl = true
			p.grp.img.SetBlockState(base, memory.PendingExcl)
			home := p.homeOf(base)
			p.sendHome(home, p.msg(pmsg{kind: mUpgradeReq, baseLine: base, requester: p.id,
				issueTime: p.sp.Now()}), stats.Other)
			p.unlockBlock(base)
			return

		case memory.Invalid:
			if p.outstandingStores >= p.sys.cfg.MaxOutstanding {
				p.unlockBlock(base)
				p.stallOutstanding()
				continue
			}
			entry := p.newMissEntry(base, stats.WriteMiss, 0, mask, false)
			entry.hasStores = true
			p.outstandingStores++
			p.rawWrite(addr, size, v)
			entry.stores = append(entry.stores, storeRec{addr: addr, size: size, val: v, proc: p.id})
			entry.wantExcl = true
			p.grp.img.SetBlockState(base, memory.PendingExcl)
			home := p.homeOf(base)
			p.sendHome(home, p.msg(pmsg{kind: mReadExclReq, baseLine: base, requester: p.id,
				issueTime: p.sp.Now()}), stats.Other)
			p.unlockBlock(base)
			return

		default:
			panic(fmt.Sprintf("protocol: store saw state %v with no miss entry", st))
		}
	}
}

// stallOutstanding blocks (write time) until one of this processor's store
// misses completes, enforcing the outstanding-store limit the paper cites
// as the residual source of write stall time.
func (p *Proc) stallOutstanding() {
	// Register on every incomplete entry this processor issued so any
	// completion wakes us.
	for _, e := range p.grp.miss {
		if e.issuer == p.id && e.hasStores && !e.complete {
			e.waiters.add(p.id)
		}
	}
	p.stallUntil(stats.Write, "store-limit", func() bool {
		return p.outstandingStores < p.sys.cfg.MaxOutstanding
	})
}

// newMissEntry creates and registers a miss entry for a block. rdMask and
// wrMask are the sub-block slots the triggering access touches; they ride in
// the miss event as the race detector's offset evidence (see
// internal/obsv/races.go). Batch misses pass declared=true: their masks are
// the batch's conservatively declared reference ranges, not actual accesses
// (the batch emits touch events with the exact slots instead), and the event
// marks them so the detector does not mistake them for evidence.
func (p *Proc) newMissEntry(base int, kind stats.MissKind, rdMask, wrMask uint64, declared bool) *missEntry {
	p.charge(stats.Other, p.sys.cfg.Cal.Costs.MissTableOp)
	if p.sys.tracer != nil {
		p.trace("miss", "", base, TraceFields{Kind: kind, Declared: declared, HasMasks: true,
			Rd: rdMask, Wr: wrMask, HasBlock: true, Block: p.blockState(base)})
	}
	e := &missEntry{
		baseLine:  base,
		kind:      kind,
		issuer:    p.id,
		issueTime: p.sp.Now(),
		epoch:     p.grp.epoch,
	}
	p.grp.miss[base] = e
	return e
}

// blockStat returns this processor's per-block counter shard for a block.
// Every per-block update goes through the executing processor's own
// stats.Proc, which keeps the counters race-free under the parallel
// scheduler and append-only for the determinism contract.
func (p *Proc) blockStat(base int) *stats.BlockStat {
	return p.st.Block(base)
}

// markAccess records the sub-block slots a missing access touched in the
// block's read or write mask, the observatory's false-sharing evidence, and
// returns the slot mask so the miss event can carry the same evidence.
// Aligned scalar accesses are at most 8 bytes, so an access marks one slot
// (or two when it straddles a slot boundary).
func (p *Proc) markAccess(base, lines int, addr memory.Addr, size int, write bool) uint64 {
	blockBytes := lines * p.sys.lay.LineSize()
	lo := int64(addr - p.sys.lay.LineAddr(base))
	m := stats.SlotMask(blockBytes, lo, lo+int64(size))
	b := p.blockStat(base)
	if write {
		b.WriteMask |= m
	} else {
		b.ReadMask |= m
	}
	return m
}
