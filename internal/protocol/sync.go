package protocol

import (
	"fmt"

	"repro/internal/stats"
)

// Application synchronization: message-based queue locks (each lock is
// managed by a home processor) and a centralized barrier managed by
// processor 0. The paper notes its SMP-Shasta lock and barrier primitives
// were not yet tuned; these follow the same message-based design.
//
// Shasta implements eager release consistency: a processor stalls at a
// release point until its previous requests have completed. SMP-Shasta
// complicates this because other group processors may use data whose
// invalidation acknowledgements are outstanding; the epoch-based solution
// (Section 3.4.2) starts a new epoch at each release and waits only for
// store misses issued in earlier epochs, which also guarantees the wait
// terminates while other group members keep issuing stores.

// syncCost returns handler occupancy for sync messages: cheap in hardware
// mode (the ANL-macro comparison) and on a single processor, where lock and
// barrier operations are uncontended local bookkeeping — the Table 1
// checking-overhead measurement must not be polluted by multiprocessor
// synchronization costs.
func (p *Proc) syncCost() int64 {
	if p.sys.cfg.Hardware || p.sys.cfg.NumProcs == 1 {
		return p.sys.cfg.Cal.Costs.HWLock
	}
	return p.sys.cfg.Cal.Costs.SyncHandler
}

// releaseStores performs the release-side wait: all store misses of this
// processor's group issued in earlier epochs must complete. Waiting is
// attributed to write time, matching the paper's breakdown.
func (p *Proc) releaseStores() {
	if p.sys.cfg.Hardware {
		return
	}
	g := p.grp
	myEpoch := g.epoch
	g.epoch++
	qualifies := func(e *missEntry) bool {
		return e.hasStores && !e.complete && e.epoch <= myEpoch
	}
	clear := func() bool {
		for _, e := range g.miss {
			if qualifies(e) {
				return false
			}
		}
		for _, lst := range g.detached {
			for _, e := range lst {
				if qualifies(e) {
					return false
				}
			}
		}
		return true
	}
	if clear() {
		return
	}
	register := func(e *missEntry) { e.waiters.add(p.id) }
	for _, e := range g.miss {
		if qualifies(e) {
			register(e)
		}
	}
	for _, lst := range g.detached {
		for _, e := range lst {
			if qualifies(e) {
				register(e)
			}
		}
	}
	p.stallUntil(stats.Write, "release", clear)
}

// LockAcquire acquires application lock id, stalling in sync time until the
// lock manager grants it.
//
// The acquire brackets itself in the trace: a "lock-acquire id=<id>" sync
// event at the stall's start and a "lock-acquired id=<id> prev=<p> hops=<h>"
// event at the grant, naming the previous holder (-1 for the first grant)
// and the acquire's hop count (2 = granted immediately by the manager,
// 3 = handed off from a release). The per-primitive sync counters record
// the same instants, so the trace-derived wait and the counted WaitCycles
// reconcile exactly.
func (p *Proc) LockAcquire(id int) {
	p.poll()
	t0 := p.sp.Now()
	p.trace("sync", "", -1, TraceFields{Sync: SyncLockAcquire, ID: int32(id)})
	home := p.sys.lockHome(id)
	p.send(home, p.msg(pmsg{kind: mLockReq, baseLine: -1, id: id, requester: p.id}), stats.Sync)
	p.stallUntil(stats.Sync, fmt.Sprintf("lock-%d", id), func() bool {
		return p.lockGranted[id]
	})
	p.lockGranted[id] = false
	prev, hops := p.lockGrantPrev[id], p.lockGrantHops[id]
	t1 := p.sp.Now()
	p.trace("sync", "", -1, TraceFields{Sync: SyncLockAcquired, ID: int32(id), Prev: int32(prev), Hops: int32(hops)})
	st := p.st.Sync(stats.SyncLock, id)
	st.Acquires++
	if hops == 3 {
		st.Contended++
	}
	st.WaitCycles += t1 - t0
	if prev >= 0 {
		st.Handoffs[p.handoffClass(prev)]++
	}
	p.lockHeldFrom[id] = t1
}

// handoffClass classifies a lock hand-off by the previous holder's
// topological distance from this processor.
func (p *Proc) handoffClass(prev int) int {
	switch {
	case prev == p.id:
		return stats.HandoffSelf
	case p.sys.net.SameNode(prev, p.id):
		return stats.HandoffNode
	case p.sys.net.Topology().SameNodeGroup(prev, p.id):
		return stats.HandoffGroup
	default:
		return stats.HandoffRemote
	}
}

// LockRelease releases application lock id, first performing the
// release-consistency store wait.
func (p *Proc) LockRelease(id int) {
	p.poll()
	t := p.sp.Now()
	p.trace("sync", "", -1, TraceFields{Sync: SyncLockRelease, ID: int32(id)})
	if from, ok := p.lockHeldFrom[id]; ok {
		p.st.Sync(stats.SyncLock, id).HoldCycles += t - from
		delete(p.lockHeldFrom, id)
	}
	p.releaseStores()
	home := p.sys.lockHome(id)
	p.send(home, p.msg(pmsg{kind: mLockRel, baseLine: -1, id: id, requester: p.id}), stats.Sync)
}

// Barrier synchronizes all processors. Arrival has release semantics.
//
// With the FastSync extension the barrier is hierarchical: group members
// synchronize through a shared-memory arrival counter, only the last
// arriver of each group exchanges messages with the barrier manager, and
// the group's representative releases its members through shared memory —
// the paper's planned SMP-aware synchronization.
//
// The arrival traces "barrier gen=<g>" and the release "barrier-depart
// gen=<g>", bracketing each processor's wait; the barrier's per-primitive
// counters record the same two instants, so the trace-derived arrival and
// departure skews reconcile exactly with the counted WaitCycles.
func (p *Proc) Barrier() {
	p.poll()
	t0 := p.sp.Now()
	gen := p.barGen
	p.trace("sync", "", -1, TraceFields{Sync: SyncBarrier, ID: int32(gen)})
	p.releaseStores()
	if p.sys.cfg.FastSync && p.sys.cfg.SMP() && !p.sys.cfg.Hardware {
		g := p.grp
		p.charge(stats.Sync, p.sys.cfg.Cal.Costs.HWBarrierPerProc)
		g.fsArrived++
		if g.fsArrived == len(g.members) {
			g.fsArrived = 0
			p.send(0, p.msg(pmsg{kind: mBarArrive, baseLine: -1, id: gen, requester: p.id}), stats.Sync)
		}
		p.stallUntil(stats.Sync, "barrier", func() bool { return p.barGen > gen })
	} else {
		p.send(0, p.msg(pmsg{kind: mBarArrive, baseLine: -1, id: gen, requester: p.id}), stats.Sync)
		p.stallUntil(stats.Sync, "barrier", func() bool { return p.barGen > gen })
	}
	t1 := p.sp.Now()
	p.trace("sync", "", -1, TraceFields{Sync: SyncBarrierDepart, ID: int32(gen)})
	st := p.st.Sync(stats.SyncBarrier, 0)
	st.Generations++
	st.WaitCycles += t1 - t0
}

// handleSync processes lock and barrier messages.
func (p *Proc) handleSync(m *pmsg) {
	p.charge(stats.Message, p.syncCost())
	switch m.kind {
	case mLockReq:
		q := p.lockQueues[m.id]
		if !p.lockHeld[m.id] && len(q) == 0 {
			p.lockHeld[m.id] = true
			p.lockQueues[m.id] = []int{m.requester}
			p.sendGrant(m.id, m.requester, 2)
			return
		}
		p.lockQueues[m.id] = append(q, m.requester)

	case mLockRel:
		q := p.lockQueues[m.id]
		if len(q) == 0 || q[0] != m.requester {
			panic(fmt.Sprintf("protocol: lock %d released by %d which does not hold it", m.id, m.requester))
		}
		q = q[1:]
		p.lockQueues[m.id] = q
		if len(q) > 0 {
			p.sendGrant(m.id, q[0], 3)
		} else {
			p.lockHeld[m.id] = false
		}

	case mLockGrant:
		p.lockGrantPrev[m.id], p.lockGrantHops[m.id] = m.prev, m.hops
		p.lockGranted[m.id] = true

	case mBarArrive:
		p.barCount++
		if p.barCount == p.sys.barrierArrivals() {
			p.barCount = 0
			// The manager's own barGen is the generation being completed
			// (it has not departed yet); releases carry it as the
			// primitive id.
			gen := p.barGen
			if p.sys.fastSyncBarrier() {
				// Release one representative per group; it releases its
				// group members through shared memory.
				for _, g := range p.sys.groups {
					p.send(g.members[0], p.msg(pmsg{kind: mBarGo, baseLine: -1, id: gen}), stats.Message)
				}
				return
			}
			for q := 0; q < p.sys.cfg.NumProcs; q++ {
				if q == p.id {
					continue
				}
				p.send(q, p.msg(pmsg{kind: mBarGo, baseLine: -1, id: gen}), stats.Message)
			}
			p.barGen++ // the manager's own arrival completes locally
		}

	case mBarGo:
		if p.sys.fastSyncBarrier() {
			for _, mem := range p.grp.members {
				p.sys.procs[mem].barGen++
				p.wake(mem)
			}
			return
		}
		p.barGen++
	}
}

// sendGrant grants lock id to dst, naming the lock's previous holder (-1
// for the first grant) and the acquire's hop count: 2 when the manager
// granted the request immediately, 3 when the grant rode on a release.
func (p *Proc) sendGrant(id, dst, hops int) {
	prev, ok := p.lockPrev[id]
	if !ok {
		prev = -1
	}
	p.lockPrev[id] = dst
	p.send(dst, p.msg(pmsg{kind: mLockGrant, baseLine: -1, id: id,
		requester: dst, prev: prev, hops: hops}), stats.Message)
}

// ResetStats zeroes the statistics and marks the start of the measured
// parallel phase. Call it from exactly one processor immediately after a
// barrier, per standard SPLASH-2 methodology.
//
// The reset runs through a simulator fence, which observes every
// processor's counters exactly as of the fence's cut — this call's
// position plus one network lookahead, identical at any worker count
// (see sim.Proc.Fence). Because all counters are additive, the reset does
// not clear them in place; it records the observed values as per-processor
// baselines that System.Run subtracts once at the end of the run. Live
// counters therefore stay append-only, which is what keeps the two
// schedulers bit-identical.
func (p *Proc) ResetStats() {
	sys := p.sys
	t := p.sp.Now()
	p.sp.Fence(func(q int, at *stats.Proc) {
		// Clone, not a struct copy: the baseline must not alias the live
		// per-block counter map.
		sys.statBase[q] = at.Clone()
		if q == p.id {
			sys.stats.Cycles = 0
			sys.stats.Measured = nil
			sys.startTime = t
			sys.endTime = 0
		}
	})
}

// EndMeasured marks the end of the measured parallel phase, so verification
// code that runs afterwards is excluded from the reported parallel time.
// Call it from exactly one processor immediately after a barrier. The
// per-processor time breakdown is frozen here too (see stats.Run.Measured),
// so post-measurement verification does not pollute the profile. Like
// ResetStats, the capture runs through a simulator fence and reads each
// processor's counters as of this call's position plus one network
// lookahead, net of the reset baseline.
func (p *Proc) EndMeasured() {
	sys := p.sys
	t := p.sp.Now()
	p.sp.Fence(func(q int, at *stats.Proc) {
		if q == p.id {
			sys.endTime = t
		}
		if sys.stats.Measured == nil {
			sys.stats.Measured = make([]stats.MeasuredBreakdown, len(sys.stats.Procs))
		}
		var m stats.MeasuredBreakdown
		base := &sys.statBase[q]
		for c := range at.TimeBy {
			m.TimeBy[c] = at.TimeBy[c] - base.TimeBy[c]
		}
		m.Downgrade = at.DowngradeCycles - base.DowngradeCycles
		sys.stats.Measured[q] = m
	})
}
