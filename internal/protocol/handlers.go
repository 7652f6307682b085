package protocol

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/stats"
)

// send transmits a protocol message, charging send occupancy to cat and
// classifying the message for the Figure 7 statistics. Wake messages model
// intra-group notification through shared memory and are not counted.
//
// Miss-lifecycle messages (requests, forwards, replies) additionally emit
// an xmit trace event carrying the interconnect's timing decomposition of
// this delivery — destination, span requester, arrival cycle, and the
// queue/wire/serialization split — immediately after the send event, so
// the span layer (internal/obsv, OBSERVABILITY.md §10) can attribute each
// request's latency to its protocol stages. The components telescope:
// arrive - (send event time) = queue + wire + xfer, exactly.
func (p *Proc) send(dst int, m *pmsg, cat stats.TimeCategory) {
	c := p.sys.cfg.Cal.Costs
	p.charge(cat, c.SendOverhead)
	if m.kind != mWake {
		if p.sys.tracer != nil {
			// Sync messages name their primitive (lock id, or barrier
			// generation) so the sync analyzer and race witnesses can
			// attribute them.
			f := TraceFields{Peer: int32(dst), MsgSeq: m.seq, Acks: int32(m.acks)}
			if m.kind.syncMsg() {
				f.HasID, f.ID = true, int32(m.id)
			}
			p.trace("send", m.kind.String(), m.baseLine, f)
		}
		switch {
		case m.kind == mDowngradeToShared || m.kind == mDowngradeToInvalid:
			p.st.Messages[stats.DowngradeMsg]++
		case p.sys.net.SameNode(p.id, dst):
			p.st.Messages[stats.LocalMsg]++
		default:
			p.st.Messages[stats.RemoteMsg]++
		}
	}
	// The message belongs to its receiver once sent: read it first.
	kind, r, base := m.kind, m.requester, m.baseLine
	if kind.spanReply() {
		r = dst
	}
	info := p.sys.net.Send(p.sp, dst, m.sizeBytes(), m)
	if p.sys.tracer != nil && kind.spanLeg() {
		p.trace("xmit", kind.String(), base, TraceFields{Peer: int32(dst), Req: int32(r), Xmit: info})
	}
}

// sendHome routes a request to its block's home processor: as a protocol
// message normally, or — with the ShareDirectory extension, when the home
// is in the requester's own sharing group — through direct access to the
// shared directory, avoiding the internal message entirely (Section 3.1's
// "eliminating intra-node messages" optimization). The direct path enqueues
// the request on the requester itself with zero latency; any group member
// may execute home handlers when the directory is shared.
func (p *Proc) sendHome(home int, m *pmsg, cat stats.TimeCategory) {
	if p.sys.cfg.ShareDirectory && p.sys.cfg.SMP() && !p.sys.cfg.Hardware &&
		p.sys.procs[home].grp == p.grp {
		p.charge(cat, p.sys.cfg.Cal.Costs.MissTableOp)
		p.sys.net.Send(p.sp, p.id, 0, m)
		return
	}
	p.send(home, m, cat)
}

// wakeMsg is the one wake-up message every wake sends: a wake-up carries
// nothing but its kind, and neither send nor handle writes to it.
var wakeMsg = &pmsg{kind: mWake}

// wake nudges a stalled processor to re-evaluate its stall condition. It
// models the shared-memory visibility of protocol state within a group.
func (p *Proc) wake(dst int) {
	if dst == p.id {
		return
	}
	p.sys.net.Send(p.sp, dst, 0, wakeMsg)
}

// wakeAll wakes every waiter in the set, in processor order so the
// simulation schedule stays deterministic.
func (p *Proc) wakeAll(waiters procSet) {
	waiters.forEach(func(w int) { p.wake(w) })
}

// handle dispatches one protocol message, measuring handler occupancy for
// top-level dispatches (nested replays are part of their enclosing
// dispatch; wakeups are free and not counted).
func (p *Proc) handle(m *pmsg) {
	if m.kind == mRecycled {
		panic(fmt.Sprintf("protocol: proc %d handled a recycled message", p.id))
	}
	if m.kind != mWake {
		if p.sys.tracer != nil {
			f := TraceFields{Req: int32(m.requester), MsgSeq: m.seq}
			if m.baseLine >= 0 {
				f.HasBlock, f.Block = true, p.blockState(m.baseLine)
			} else if m.kind.syncMsg() {
				f.HasID, f.ID = true, int32(m.id)
			}
			p.trace("handle", m.kind.String(), m.baseLine, f)
		}
		if p.handlerDepth == 0 {
			start := p.sp.Now()
			p.handlerDepth++
			defer func() {
				p.handlerDepth--
				p.st.HandlerCycles += p.sp.Now() - start
				p.st.HandlerEvents++
			}()
		}
	}
	if p.sys.cfg.Migrate {
		switch m.kind {
		case mReadReq, mReadExclReq, mUpgradeReq, mSharingUpdate:
			// Home-bound traffic for a block whose directory migrated
			// away chases the live home along the tombstone chain.
			if rec := p.migrated[m.baseLine]; rec != nil {
				p.divertMigrated(rec, m)
				return
			}
		}
	}
	switch m.kind {
	case mWake:
		// Pure notification; the stall loop re-checks its condition.
	case mReadReq:
		p.handleReadReq(m)
	case mReadExclReq:
		p.handleReadExclReq(m)
	case mUpgradeReq:
		p.handleUpgradeReq(m)
	case mReadFwd:
		p.handleReadFwd(m)
	case mReadExclFwd:
		p.handleReadExclFwd(m)
	case mDataReply:
		p.handleDataReply(m)
	case mDataExclReply:
		p.handleDataExclReply(m)
	case mUpgradeAck:
		p.handleUpgradeAck(m)
	case mInval:
		p.handleInval(m)
	case mInvalAck:
		p.handleInvalAck(m)
	case mSharingUpdate:
		p.handleSharingUpdate(m)
	case mDowngradeToShared:
		p.handleDowngrade(m, memory.Shared)
	case mDowngradeToInvalid:
		p.handleDowngrade(m, memory.Invalid)
	case mLockReq, mLockGrant, mLockRel, mBarArrive, mBarGo:
		p.handleSync(m)
	case mMigrate:
		p.handleMigrate(m)
	case mMigrateAck:
		p.handleMigrateAck(m)
	default:
		panic(fmt.Sprintf("protocol: proc %d got unexpected message %v", p.id, m.kind))
	}
}

// --- Home handlers ---

// handleReadReq processes a read request at the home processor. The
// directory — not the group's local state table — decides how to serve it:
// the local state can lag the directory when the home's own copy has an
// invalidation still queued (the directory entry was already updated when
// that invalidation was sent), and serving from such a stale copy would
// leak pre-transaction data.
func (p *Proc) handleReadReq(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.HomeHandler)
	base, R := m.baseLine, m.requester
	sameGroup := p.grp == p.sys.procs[R].grp
	defer p.maybeMigrate(base)
	p.lockBlock(base)
	de := p.getDir(base)
	m.homeHint = p.migHint()
	p.noteHomeMiss(m, de, false)
	issue, hint := m.issueTime, m.homeHint
	ownerInGroup := p.grp == p.sys.procs[de.owner].grp
	homeIsSharer := p.groupSharer(de.sharers) >= 0
	st := p.grp.img.State(base)
	// A granted upgrade waiting only for acknowledgements no longer
	// represents pending block state; serving this request will change
	// the block under it, so detach it first (new accesses then issue
	// fresh requests while releases still await its acks).
	var replay []pmsg
	if entry := p.grp.miss[base]; entry != nil && !entry.complete && entry.acksOnly() {
		replay = p.detachEntry(entry)
	}
	defer func() { p.replayQueued(replay) }()
	switch {
	case sameGroup:
		// Requester and home are colocated; the data is not on this
		// node (or the requester would not have missed), so forward.
		de.sharers.add(R)
		p.send(de.owner, p.msg(pmsg{kind: mReadFwd, baseLine: base, requester: R,
			seq: de.seq, issueTime: issue, homeHint: hint}), stats.Message)
		p.unlockBlock(base)

	case homeIsSharer && st == memory.Shared:
		// The home node has a clean copy: serve directly (2 hops),
		// avoiding the forward to the owner.
		de.sharers.add(R)
		p.replyData(R, base, de.seq, issue, hint, 2)
		p.unlockBlock(base)

	case ownerInGroup && st == memory.Exclusive:
		// The home group is the owner: downgrade exclusive-to-shared
		// locally and serve (still 2 hops). The data is clean from here
		// on.
		de.sharers.add(R)
		de.dirty = false
		seq := de.seq
		p.startDowngrade(base, memory.Shared, memory.Exclusive, func(h *Proc) {
			h.grp.img.SetBlockState(base, memory.Shared)
			h.replyData(R, base, seq, issue, hint, 2)
		})
		p.unlockBlock(base)

	case (homeIsSharer || ownerInGroup) && st == memory.PendingDowngrade:
		dg := p.grp.downgrades[base]
		dg.queued = queue(dg.queued, m)
		p.unlockBlock(base)

	case homeIsSharer && p.grp.miss[base] != nil && !p.grp.miss[base].complete &&
		p.grp.miss[base].kind == stats.UpgradeMiss && p.grp.miss[base].dataArrived:
		// The home group holds a valid shared copy while its own
		// upgrade is outstanding; the read was serialized at the home
		// before the upgrade, so serve the current data.
		de.sharers.add(R)
		p.replyData(R, base, de.seq, issue, hint, 2)
		p.unlockBlock(base)

	case ownerInGroup && p.grp.miss[base] != nil && !p.grp.miss[base].complete:
		// The home group is the owner-to-be: its own fetch of the
		// block is in flight. Serialize the read after it.
		entry := p.grp.miss[base]
		entry.queued = queue(entry.queued, m)
		p.unlockBlock(base)

	default:
		// The data is elsewhere (whatever the lagging local state
		// says): forward to the owner.
		de.sharers.add(R)
		p.send(de.owner, p.msg(pmsg{kind: mReadFwd, baseLine: base, requester: R,
			seq: de.seq, issueTime: issue, homeHint: hint}), stats.Message)
		p.unlockBlock(base)
	}
}

// handleReadExclReq processes a read-exclusive request at the home. As with
// reads, the directory decides; the group's local state only distinguishes
// sub-cases within a directory-confirmed branch.
func (p *Proc) handleReadExclReq(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.HomeHandler)
	base, R := m.baseLine, m.requester
	sameGroup := p.grp == p.sys.procs[R].grp
	defer p.maybeMigrate(base)
	p.lockBlock(base)
	de := p.getDir(base)
	m.homeHint = p.migHint()
	p.noteHomeMiss(m, de, true)
	issue, hint := m.issueTime, m.homeHint
	ownerInGroup := p.grp == p.sys.procs[de.owner].grp
	homeSharer := p.groupSharer(de.sharers)
	st := p.grp.img.State(base)
	var replay []pmsg
	if e := p.grp.miss[base]; e != nil && !e.complete && e.acksOnly() {
		replay = p.detachEntry(e)
	}
	defer func() { p.replayQueued(replay) }()
	entry := p.grp.miss[base]
	forward := func() {
		owner := de.owner
		targets := de.sharers.andNot(p.sys.groupMask(R).or(bit(owner)))
		acks := targets.count()
		de.seq++
		p.send(owner, p.msg(pmsg{kind: mReadExclFwd, baseLine: base, requester: R,
			seq: de.seq, acks: acks, issueTime: issue, homeHint: hint}), stats.Message)
		p.sendInvals(base, targets, R, de.seq)
		de.owner, de.sharers = R, bit(R)
	}
	switch {
	case sameGroup:
		// Requester colocated with the home; the node has no copy.
		forward()
		p.unlockBlock(base)

	case ownerInGroup && st == memory.Exclusive:
		// Home group is the dirty owner; downgrade to invalid locally
		// and serve with no external invalidations.
		de.seq++
		seq := de.seq
		p.startDowngrade(base, memory.Invalid, memory.Exclusive, func(h *Proc) {
			h.replyExcl(R, base, seq, 0, issue, hint, 2)
		})
		de.owner, de.sharers, de.dirty = R, bit(R), true
		p.unlockBlock(base)

	case homeSharer >= 0 && st == memory.Shared:
		// Home group has a clean copy confirmed by the directory:
		// capture and send the data, invalidate every other sharer,
		// and invalidate the home group's own copy locally.
		external := de.sharers.andNot(bit(R).or(bit(homeSharer)))
		acks := external.count()
		de.seq++
		p.send(R, p.msg(pmsg{kind: mDataExclReply, baseLine: base, data: p.grp.img.BlockData(base),
			seq: de.seq, acks: acks, hops: 2, issueTime: issue, homeHint: hint}), stats.Message)
		p.sendInvals(base, external, R, de.seq)
		p.startDowngrade(base, memory.Invalid, memory.Shared, func(h *Proc) {
			h.invalidateLocal(base)
		})
		de.owner, de.sharers, de.dirty = R, bit(R), true
		p.unlockBlock(base)

	case (homeSharer >= 0 || ownerInGroup) && st == memory.PendingDowngrade:
		dg := p.grp.downgrades[base]
		dg.queued = queue(dg.queued, m)
		p.unlockBlock(base)

	case ownerInGroup && entry != nil && !entry.complete:
		// The home group's own request for the block is outstanding and
		// it is the registered owner; serialize after it completes.
		entry.queued = queue(entry.queued, m)
		p.unlockBlock(base)

	default:
		forward()
		p.unlockBlock(base)
	}
}

// handleUpgradeReq processes an upgrade (exclusive) request at the home.
// The decision is directory-only — no data moves on an upgrade — and the
// sharer check is group-wide: the home records the one processor of a node
// that originally requested the block, which may differ from the group
// member now upgrading.
func (p *Proc) handleUpgradeReq(m *pmsg) {
	base, R := m.baseLine, m.requester
	defer p.maybeMigrate(base)
	de := p.getDir(base)
	m.homeHint = p.migHint()
	p.noteHomeMiss(m, de, true)
	gm := p.sys.groupMask(R)
	if de.sharers.and(gm).empty() ||
		(de.dirty && p.sys.procs[de.owner].grp != p.sys.procs[R].grp) {
		// Convert to a read-exclusive when the node's copy was
		// invalidated while the upgrade was in flight (it lost the race
		// at the home), or when another group's owner holds dirty data:
		// a plain upgrade acknowledgement would lose the owner's
		// pending stores, which only travel with a data reply.
		//
		// The conversion invalidates the requester's own stale copy
		// along with the other sharers (its pending stores are replayed
		// when the owner's data reply arrives); until then the
		// requester's pending entry must not satisfy loads or serve
		// forwards from the outdated data.
		c := p.sys.cfg.Cal.Costs
		p.charge(stats.Message, c.HomeHandler)
		p.lockBlock(base)
		owner := de.owner
		targets := de.sharers.andNot(bit(owner))
		acks := targets.count()
		de.seq++
		p.send(owner, p.msg(pmsg{kind: mReadExclFwd, baseLine: base, requester: R,
			seq: de.seq, acks: acks, issueTime: m.issueTime, homeHint: m.homeHint}), stats.Message)
		p.sendInvals(base, targets, R, de.seq)
		de.owner, de.sharers, de.dirty = R, bit(R), true
		p.unlockBlock(base)
		return
	}
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.HomeHandler)
	p.lockBlock(base)
	targets := de.sharers.andNot(gm)
	acks := targets.count()
	de.seq++
	p.send(R, p.msg(pmsg{kind: mUpgradeAck, baseLine: base, seq: de.seq, acks: acks,
		hops: 2, issueTime: m.issueTime, homeHint: m.homeHint}), stats.Message)
	p.sendInvals(base, targets, R, de.seq)
	de.owner, de.sharers, de.dirty = R, bit(R), true
	p.unlockBlock(base)
}

// groupSharer returns the processor ID in p's group present in the sharer
// set, or -1.
func (p *Proc) groupSharer(sharers procSet) int {
	for _, mem := range p.grp.members {
		if sharers.has(mem) {
			return mem
		}
	}
	return -1
}

// sendInvals sends invalidations to every processor in the target set, with
// acknowledgements directed to the requester and the granting transaction's
// sequence number attached.
func (p *Proc) sendInvals(base int, targets procSet, requester int, seq int64) {
	if targets.empty() {
		return
	}
	p.blockStat(base).InvalsSent += int64(targets.count())
	targets.forEach(func(t int) {
		p.send(t, p.msg(pmsg{kind: mInval, baseLine: base, requester: requester,
			seq: seq, homeHint: p.migHint()}), stats.Message)
	})
}

// replyData sends a shared-data reply for a block. The sequence number,
// issue time and home hint come from the request (the hint is set by the
// home, even when an owner serves 3-hop).
func (p *Proc) replyData(R, base int, seq, issue int64, hint, hops int) {
	p.send(R, p.msg(pmsg{kind: mDataReply, baseLine: base, data: p.grp.img.BlockData(base),
		hops: hops, seq: seq, issueTime: issue, homeHint: hint}), stats.Message)
}

// replyExcl is a downgrade's deferred exclusive-data reply: it takes the
// block's data, then invalidates the group's copy and sends the data.
func (p *Proc) replyExcl(R, base int, seq int64, acks int, issue int64, hint, hops int) {
	r := p.msg(pmsg{kind: mDataExclReply, baseLine: base, data: p.grp.img.BlockData(base),
		seq: seq, acks: acks, hops: hops, issueTime: issue, homeHint: hint})
	p.invalidateLocal(base)
	p.send(R, r, stats.Message)
}

// --- Owner handlers ---

// handleReadFwd processes a read request forwarded to the owner.
func (p *Proc) handleReadFwd(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.OwnerHandler)
	base, R := m.baseLine, m.requester
	seq, issue, hint := m.seq, m.issueTime, m.homeHint
	p.lockBlock(base)
	entry := p.grp.miss[base]
	st := p.grp.img.State(base)
	switch {
	case entry != nil && !entry.complete && entry.acksOnly():
		// Our granted exclusivity is being read: downgrade to shared
		// and detach the acknowledgement-waiting entry so a later store
		// issues a fresh upgrade (the reader must be invalidated then).
		replay := p.detachEntry(entry)
		p.startDowngrade(base, memory.Shared, st, func(h *Proc) {
			h.grp.img.SetBlockState(base, memory.Shared)
			h.replyData(R, base, seq, issue, hint, 3)
			h.notifyClean(base, seq)
		})
		p.unlockBlock(base)
		p.replayQueued(replay)
		return
	case entry != nil && !entry.complete && entry.kind == stats.UpgradeMiss && entry.dataArrived:
		// Valid shared data underneath a pending, not-yet-granted
		// upgrade; the read was serialized before the upgrade at the
		// home.
		p.replyData(R, base, seq, issue, hint, 3)
	case entry != nil && !entry.complete:
		entry.queued = queue(entry.queued, m)
	case st == memory.Exclusive:
		p.startDowngrade(base, memory.Shared, memory.Exclusive, func(h *Proc) {
			h.grp.img.SetBlockState(base, memory.Shared)
			h.replyData(R, base, seq, issue, hint, 3)
			h.notifyClean(base, seq)
		})
	case st == memory.Shared:
		// Already downgraded by an earlier read; serve directly.
		p.replyData(R, base, seq, issue, hint, 3)
		p.notifyClean(base, seq)
	case st == memory.PendingDowngrade:
		dg := p.grp.downgrades[base]
		dg.queued = queue(dg.queued, m)
	default:
		panic(fmt.Sprintf("protocol: read forward found owner %d with state %v for block %d",
			p.id, st, base))
	}
	p.unlockBlock(base)
}

// handleReadExclFwd processes a read-exclusive request forwarded to the
// owner.
func (p *Proc) handleReadExclFwd(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.OwnerHandler)
	base, R := m.baseLine, m.requester
	seq, acks, issue, hint := m.seq, m.acks, m.issueTime, m.homeHint
	p.lockBlock(base)
	entry := p.grp.miss[base]
	st := p.grp.img.State(base)
	serve := func(pre memory.State) {
		p.startDowngrade(base, memory.Invalid, pre, func(h *Proc) {
			h.replyExcl(R, base, seq, acks, issue, hint, 3)
		})
	}
	switch {
	case entry != nil && !entry.complete && entry.acksOnly():
		// Our exclusivity was granted and only acknowledgements are
		// outstanding, but this transaction (serialized after ours at
		// the home) takes the block away. Serve the data — it includes
		// our merged stores — and detach the entry so later accesses
		// issue fresh requests instead of merging with it.
		pre := memory.Shared
		if st == memory.Exclusive {
			pre = memory.Exclusive
		}
		replay := p.detachEntry(entry)
		serve(pre)
		p.unlockBlock(base)
		p.replayQueued(replay)
		return
	case entry != nil && !entry.complete && entry.kind == stats.UpgradeMiss && entry.dataArrived:
		// Shared data underneath a pending, not-yet-granted upgrade; we
		// lost the race: serve the current data and invalidate. Our
		// upgrade will be converted to a read-exclusive at the home, and
		// until that data reply arrives the entry no longer has usable
		// data (the serve is about to flag-fill the block).
		entry.dataArrived = false
		serve(memory.Shared)
	case entry != nil && !entry.complete:
		entry.queued = queue(entry.queued, m)
	case st == memory.Exclusive:
		serve(memory.Exclusive)
	case st == memory.Shared:
		serve(memory.Shared)
	case st == memory.PendingDowngrade:
		dg := p.grp.downgrades[base]
		dg.queued = queue(dg.queued, m)
	default:
		panic(fmt.Sprintf("protocol: read-excl forward found owner %d with state %v for block %d",
			p.id, st, base))
	}
	p.unlockBlock(base)
}

// bumpCopySeq raises the group's transaction floor for a block: the group
// has observed (served or been invalidated by) the transaction with this
// sequence number, so any reply tagged with an older sequence is
// superseded.
func (p *Proc) bumpCopySeq(base int, seq int64) {
	if seq > p.grp.copySeq[base] {
		p.grp.copySeq[base] = seq
	}
}

// superseded handles a reply whose transaction was overtaken before its
// data arrived: a later transaction already took the block (capturing this
// group's merged stores with it), so nothing is installed; the entry
// completes so stalled processors re-dispatch and releases stop waiting.
// Must be called with the block lock held; returns the messages to replay.
func (p *Proc) superseded(entry *missEntry) []pmsg {
	entry.complete = true
	delete(p.grp.miss, entry.baseLine)
	if entry.hasStores {
		p.sys.procs[entry.issuer].outstandingStores--
	}
	// The block belongs to the later transaction's owner now; whatever
	// pending state this entry had left behind becomes invalid.
	if !p.grp.img.State(entry.baseLine).Valid() {
		p.invalidateLocal(entry.baseLine)
	}
	p.wakeAll(entry.waiters)
	queued := entry.queued
	entry.queued = nil
	return queued
}

// notifyClean tells the block's home that the owner's copy has been
// downgraded to shared: the data is clean and plain upgrades may be granted
// again. The sequence number identifies the transaction epoch; the home
// ignores the update if a newer exclusivity grant has intervened.
func (p *Proc) notifyClean(base int, seq int64) {
	home := p.homeOf(base)
	if home == p.id && p.sys.cfg.Migrate && p.migrated[base] != nil {
		// The directory migrated away from us; chase it like any other
		// sharing update. The self-send is traced, so the eventual handle
		// at the live home has a matching send event.
		p.send(p.id, p.msg(pmsg{kind: mSharingUpdate, baseLine: base, seq: seq}), stats.Message)
		return
	}
	if home == p.id || (p.sys.cfg.ShareDirectory && p.sys.procs[home].grp == p.grp) {
		de := p.getDir(base)
		if seq == de.seq {
			de.dirty = false
		}
		return
	}
	p.send(home, p.msg(pmsg{kind: mSharingUpdate, baseLine: base, seq: seq}), stats.Message)
}

// handleSharingUpdate processes an owner's clean notification at the home.
func (p *Proc) handleSharingUpdate(m *pmsg) {
	p.charge(stats.Message, p.sys.cfg.Cal.Costs.MissTableOp)
	de := p.getDir(m.baseLine)
	if m.seq == de.seq {
		de.dirty = false
	}
}

// invalidateLocal fills the invalid flag and marks the block invalid in the
// group, deferring the flag store if a batch has the block marked
// (Section 3.4.4).
func (p *Proc) invalidateLocal(base int) {
	p.trace("invalidate", "", base, TraceFields{Deferred: p.grp.batchMarks[base] > 0})
	if p.grp.batchMarks[base] > 0 {
		// The flag store is deferred until the batch ends; state becomes
		// invalid immediately so new protocol entries behave correctly.
		p.grp.img.SetBlockState(base, memory.Invalid)
		return
	}
	p.grp.img.FillFlag(base)
	p.grp.img.SetBlockState(base, memory.Invalid)
}

// --- Invalidation handlers ---

// handleInval processes an invalidation at a sharer.
func (p *Proc) handleInval(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.InvalHandler)
	p.applyHomeHint(m)
	base, R := m.baseLine, m.requester
	p.blockStat(base).InvalsRecv++
	p.lockBlock(base)
	if m.seq <= p.grp.copySeq[base] {
		// Stale invalidation: it belongs to a write transaction
		// serialized before the copy this group currently holds was
		// granted (the copy arrived on a faster channel). Acknowledge
		// without invalidating.
		p.send(R, p.msg(pmsg{kind: mInvalAck, baseLine: base}), stats.Message)
		p.unlockBlock(base)
		return
	}
	p.bumpCopySeq(base, m.seq)
	entry := p.grp.miss[base]
	st := p.grp.img.State(base)
	switch {
	case entry != nil && !entry.complete && entry.acksOnly() && st.Valid():
		// The invalidation belongs to a transaction serialized after our
		// grant, whose acknowledgements are still outstanding. Detach
		// the entry (new accesses must re-fetch) and invalidate the copy
		// properly — state and flag together, never one without the
		// other.
		replay := p.detachEntry(entry)
		p.startDowngrade(base, memory.Invalid, st, func(h *Proc) {
			h.invalidateLocal(base)
			h.send(R, h.msg(pmsg{kind: mInvalAck, baseLine: base}), stats.Message)
		})
		p.unlockBlock(base)
		p.replayQueued(replay)
		return
	case st == memory.Shared:
		p.startDowngrade(base, memory.Invalid, memory.Shared, func(h *Proc) {
			h.invalidateLocal(base)
			h.send(R, h.msg(pmsg{kind: mInvalAck, baseLine: base}), stats.Message)
		})
	case st == memory.PendingDowngrade:
		dg := p.grp.downgrades[base]
		dg.queued = queue(dg.queued, m)
	case entry != nil && !entry.complete:
		// Our own request is in flight and our stale copy must go: fill
		// the flag (pending stores are replayed on the reply), downgrade
		// private states, keep the pending state, and acknowledge. A
		// pending upgrade loses its underlying data: it will be
		// converted to a read-exclusive at the home, and until that data
		// arrives the entry must not satisfy loads or serve forwards.
		entry.dataArrived = false
		p.startDowngrade(base, memory.Invalid, memory.Invalid, func(h *Proc) {
			h.grp.img.FillFlag(base)
			h.send(R, h.msg(pmsg{kind: mInvalAck, baseLine: base}), stats.Message)
		})
	default:
		// Already invalid (stale invalidation); just acknowledge.
		p.send(R, p.msg(pmsg{kind: mInvalAck, baseLine: base}), stats.Message)
	}
	p.unlockBlock(base)
}

// handleInvalAck processes an invalidation acknowledgement at the
// requester.
func (p *Proc) handleInvalAck(m *pmsg) {
	p.charge(stats.Message, p.sys.cfg.Cal.Costs.MissTableOp)
	base := m.baseLine
	p.lockBlock(base)
	// Acknowledgements are indistinguishable, and transactions for a
	// block are serialized at the home, so credit the oldest detached
	// entry first.
	if lst := p.grp.detached[base]; len(lst) > 0 {
		e := lst[0]
		e.acksReceived++
		if e.acksReceived >= e.acksExpected {
			e.complete = true
			if e.hasStores {
				p.sys.procs[e.issuer].outstandingStores--
			}
			if len(lst) == 1 {
				delete(p.grp.detached, base)
			} else {
				p.grp.detached[base] = lst[1:]
			}
			p.wakeAll(e.waiters)
		}
		p.unlockBlock(base)
		return
	}
	entry := p.grp.miss[base]
	if entry == nil || entry.complete {
		p.unlockBlock(base)
		return
	}
	entry.acksReceived++
	done := p.completeIfDone(entry)
	p.unlockBlock(base)
	if done {
		p.replayQueued(entry.queued)
	}
}

// --- Reply handlers (at the requester) ---

// mergeStores replays the entry's pending stores over freshly installed
// data, implementing the non-blocking store merge.
func (p *Proc) mergeStores(entry *missEntry) {
	for _, s := range entry.stores {
		p.rawWrite(s.addr, s.size, s.val)
	}
}

// recordMissLatency files one completed miss round trip into the latency
// histograms, keyed by request type and by whether the block's home is on
// this processor's own SMP node. It only reads the clock.
func (p *Proc) recordMissLatency(kind stats.MissKind, base int, issueTime int64) {
	home := p.homeOf(base)
	p.st.RecordMissLatency(kind, !p.sys.net.SameNode(p.id, home), p.sp.Now()-issueTime)
}

// handleDataReply installs shared data at the requester.
func (p *Proc) handleDataReply(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.ReplyHandler)
	p.applyHomeHint(m)
	base := m.baseLine
	p.lockBlock(base)
	entry := p.grp.miss[base]
	if entry == nil || entry.complete {
		panic(fmt.Sprintf("protocol: unexpected data reply for block %d at proc %d", base, p.id))
	}
	p.st.Misses[stats.ReadMiss][m.hops-2]++
	p.blockStat(base).Misses[stats.ReadMiss][m.hops-2]++
	if m.seq < p.grp.copySeq[base] {
		queued := p.superseded(entry)
		p.unlockBlock(base)
		p.replayQueued(queued)
		return
	}
	p.grp.img.CopyBlockIn(base, m.data)
	p.mergeStores(entry)
	p.grp.copySeq[base] = m.seq
	entry.dataArrived = true
	p.trace("install", "", base, TraceFields{Grant: GrantShared, MsgSeq: m.seq, Hops: int32(m.hops)})
	p.st.ReadLatencySum += p.sp.Now() - m.issueTime
	p.st.ReadLatencyCount++
	p.recordMissLatency(stats.ReadMiss, base, m.issueTime)
	var done bool
	if entry.wantExcl && !entry.upgradeSent {
		// Stores were merged into a read miss; now that the shared copy
		// is here, request exclusivity.
		entry.upgradeSent = true
		p.grp.img.SetBlockState(base, memory.PendingExcl)
		home := p.homeOf(base)
		p.sendHome(home, p.msg(pmsg{kind: mUpgradeReq, baseLine: base, requester: p.id,
			issueTime: p.sp.Now()}), stats.Message)
	} else {
		p.grp.img.SetBlockState(base, memory.Shared)
		if entry.issuer == p.id {
			p.setPrivBlock(base, memory.Shared)
		}
		done = p.completeIfDone(entry)
	}
	p.wakeAll(entry.waiters)
	p.unlockBlock(base)
	if done {
		p.replayQueued(entry.queued)
	}
}

// handleDataExclReply installs exclusive data at the requester.
func (p *Proc) handleDataExclReply(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.ReplyHandler)
	p.applyHomeHint(m)
	base := m.baseLine
	p.lockBlock(base)
	entry := p.grp.miss[base]
	if entry == nil || entry.complete {
		panic(fmt.Sprintf("protocol: unexpected exclusive reply for block %d at proc %d", base, p.id))
	}
	p.st.Misses[entry.kind][m.hops-2]++
	p.blockStat(base).Misses[entry.kind][m.hops-2]++
	if m.seq < p.grp.copySeq[base] {
		queued := p.superseded(entry)
		p.unlockBlock(base)
		p.replayQueued(queued)
		return
	}
	p.grp.img.CopyBlockIn(base, m.data)
	p.mergeStores(entry)
	p.grp.copySeq[base] = m.seq
	entry.dataArrived = true
	entry.exclGranted = true
	entry.acksExpected = m.acks
	p.trace("install", "", base, TraceFields{Grant: GrantExclusive, MsgSeq: m.seq, Hops: int32(m.hops), Acks: int32(m.acks)})
	if entry.kind == stats.ReadMiss {
		p.st.ReadLatencySum += p.sp.Now() - m.issueTime
		p.st.ReadLatencyCount++
	}
	p.recordMissLatency(entry.kind, base, m.issueTime)
	p.grp.img.SetBlockState(base, memory.Exclusive)
	if entry.issuer == p.id {
		p.setPrivBlock(base, memory.Exclusive)
	}
	done := p.completeIfDone(entry)
	p.wakeAll(entry.waiters)
	p.unlockBlock(base)
	if done {
		p.replayQueued(entry.queued)
	}
}

// handleUpgradeAck grants exclusivity at the requester (data was already
// valid locally).
func (p *Proc) handleUpgradeAck(m *pmsg) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.ReplyHandler)
	p.applyHomeHint(m)
	base := m.baseLine
	p.lockBlock(base)
	entry := p.grp.miss[base]
	if entry == nil || entry.complete {
		panic(fmt.Sprintf("protocol: unexpected upgrade ack for block %d at proc %d", base, p.id))
	}
	p.st.Misses[stats.UpgradeMiss][m.hops-2]++
	p.blockStat(base).Misses[stats.UpgradeMiss][m.hops-2]++
	if m.seq < p.grp.copySeq[base] {
		queued := p.superseded(entry)
		p.unlockBlock(base)
		p.replayQueued(queued)
		return
	}
	entry.dataArrived = true
	entry.exclGranted = true
	entry.acksExpected = m.acks
	p.grp.copySeq[base] = m.seq
	p.trace("install", "", base, TraceFields{Grant: GrantUpgrade, MsgSeq: m.seq, Acks: int32(m.acks)})
	p.recordMissLatency(stats.UpgradeMiss, base, m.issueTime)
	p.grp.img.SetBlockState(base, memory.Exclusive)
	if entry.issuer == p.id {
		p.setPrivBlock(base, memory.Exclusive)
	}
	p.mergeStores(entry)
	done := p.completeIfDone(entry)
	p.wakeAll(entry.waiters)
	p.unlockBlock(base)
	if done {
		p.replayQueued(entry.queued)
	}
}

// completeIfDone finishes a miss entry once data and all acknowledgements
// have arrived; it reports whether completion happened. Must be called with
// the block lock held.
func (p *Proc) completeIfDone(entry *missEntry) bool {
	if !entry.dataArrived || (entry.wantExcl && !entry.exclGranted) ||
		entry.acksReceived < entry.acksExpected {
		return false
	}
	entry.complete = true
	delete(p.grp.miss, entry.baseLine)
	if entry.hasStores {
		p.sys.procs[entry.issuer].outstandingStores--
	}
	p.wakeAll(entry.waiters)
	return true
}

// detachEntry removes an acknowledgement-waiting entry from the miss table
// once the group has lost (or downgraded) the block it covers: the entry no
// longer describes the block's state, so new accesses must issue fresh
// requests, but releases still wait for its outstanding acknowledgements.
// Queued messages serialized behind it are returned for replay. Must be
// called with the block lock held; the caller replays after unlocking.
func (p *Proc) detachEntry(entry *missEntry) []pmsg {
	delete(p.grp.miss, entry.baseLine)
	p.grp.detached[entry.baseLine] = append(p.grp.detached[entry.baseLine], entry)
	queued := entry.queued
	entry.queued = nil
	p.wakeAll(entry.waiters)
	return queued
}

// acksOnly reports whether the entry waits only for invalidation
// acknowledgements (its data and exclusivity have arrived).
func (e *missEntry) acksOnly() bool {
	return e.dataArrived && (!e.wantExcl || e.exclGranted) &&
		e.acksReceived < e.acksExpected
}

// replayQueued re-dispatches protocol messages that were serialized behind
// a completed entry or downgrade. Must be called without the block lock.
// Home-bound requests must execute at the home processor (the directory is
// not shared within a group), so if the completing processor is not the
// home they are re-injected into the home's queue; everything else operates
// on group-level state and can run right here.
func (p *Proc) replayQueued(queued []pmsg) {
	for i := range queued {
		q := &queued[i]
		switch q.kind {
		case mReadReq, mReadExclReq, mUpgradeReq:
			home := p.homeOf(q.baseLine)
			canHandle := home == p.id ||
				(p.sys.cfg.ShareDirectory && p.sys.procs[home].grp == p.grp)
			if !canHandle {
				// Internal requeue, not a new protocol message: bypass
				// the send-side statistics. Under migration a stale view
				// is fine — the addressee's tombstone chases the live
				// home, and a local re-dispatch diverts the same way.
				p.sys.net.Send(p.sp, home, 0, p.msg(*q))
				continue
			}
			p.handle(q)
		default:
			p.handle(q)
		}
	}
}

// --- Downgrades (Section 3.3 / 3.4.3) ---

// startDowngrade begins downgrading a block within the group. The caller
// holds the block's line lock. Downgrade messages are sent selectively to
// the local processors whose private state tables show they have accessed
// the block; the deferred action (the normal protocol behaviour for the
// triggering request) runs immediately if no messages are needed, otherwise
// on the processor that handles the last downgrade message.
//
// preState records the block's pre-downgrade state: while the downgrade is
// in progress, local accesses compatible with preState are still served.
func (p *Proc) startDowngrade(base int, target, preState memory.State, action func(*Proc)) {
	if p.grp.downgrades[base] != nil {
		panic(fmt.Sprintf("protocol: overlapping downgrades for block %d", base))
	}
	var recipients procSet
	for _, mem := range p.grp.members {
		if mem == p.id {
			continue
		}
		q := p.sys.procs[mem]
		if q.priv == nil {
			continue // Base-Shasta: single-member groups
		}
		if p.sys.cfg.BroadcastDowngrades {
			// SoftFLASH-style shootdown: every other processor of the
			// node is downgraded regardless of whether it accessed the
			// block (the ablation of the private state tables).
			recipients.add(mem)
			continue
		}
		ps := q.priv.Get(base)
		need := false
		if target == memory.Shared {
			need = ps == memory.Exclusive
		} else {
			need = ps.Valid()
		}
		if need {
			recipients.add(mem)
		}
	}
	nr := recipients.count()
	p.trace("downgrade", "", base, TraceFields{To: target, N: int32(nr), Pre: preState})
	// Downgrade our own private state immediately.
	p.downgradePriv(base, target)
	if p.sys.cfg.SMP() {
		n := nr
		if n > stats.MaxDowngradeFanout {
			n = stats.MaxDowngradeFanout
		}
		p.st.Downgrades[n]++
		bs := p.blockStat(base)
		bs.Downgrades++
		bs.DowngradeMsgs += int64(nr)
	}
	if nr == 0 {
		action(p)
		return
	}
	if preState.Valid() {
		p.grp.img.SetBlockState(base, memory.PendingDowngrade)
	}
	dg := &dgEntry{
		baseLine:  base,
		remaining: nr,
		preState:  preState,
		action:    action,
	}
	p.grp.downgrades[base] = dg
	kind := mDowngradeToInvalid
	if target == memory.Shared {
		kind = mDowngradeToShared
	}
	recipients.forEach(func(r int) {
		p.send(r, p.msg(pmsg{kind: kind, baseLine: base}), stats.Message)
	})
}

// downgradePriv lowers this processor's private state for a block.
func (p *Proc) downgradePriv(base int, target memory.State) {
	if p.priv == nil {
		return
	}
	if target == memory.Shared {
		if p.priv.Get(base) == memory.Exclusive {
			p.priv.SetBlock(p.sys.lay, base, memory.Shared)
		}
		return
	}
	p.priv.SetBlock(p.sys.lay, base, memory.Invalid)
}

// handleDowngrade processes an intra-group downgrade message. The processor
// that handles the last one executes the deferred protocol action
// (Section 3.4.3); processors are never stalled by downgrades.
func (p *Proc) handleDowngrade(m *pmsg, target memory.State) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Message, c.DowngradeHandler)
	p.st.DowngradeCycles += c.DowngradeHandler
	base := m.baseLine
	p.lockBlock(base)
	dg := p.grp.downgrades[base]
	if dg == nil {
		panic(fmt.Sprintf("protocol: downgrade message for block %d with no entry at proc %d", base, p.id))
	}
	p.downgradePriv(base, target)
	dg.remaining--
	var finished bool
	if dg.remaining == 0 {
		dg.action(p)
		dg.done = true
		delete(p.grp.downgrades, base)
		p.wakeAll(dg.waiters)
		finished = true
	}
	p.unlockBlock(base)
	if finished {
		p.replayQueued(dg.queued)
	}
}
