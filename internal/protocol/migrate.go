package protocol

import "repro/internal/stats"

// Online home migration.
//
// Every home keeps, per migratable block, an incremental hop-weighted miss
// model — the same cost model the offline advisor applies to a finished
// run's per-block counters (internal/obsv adviseHome) — and re-evaluates it
// every Config.MigrateInterval home requests. When another node would have
// served the window's observed misses more cheaply by more than the
// (hysteresis-scaled) Config.MigrateThreshold, the home hands the directory
// entry to the first processor of that node with an mMigrate message and
// leaves a tombstone behind: requests that still arrive at the old home are
// queued until the new home acknowledges installation (mMigrateAck), then
// forwarded. Requesters learn the new home from a hint piggybacked on
// replies and invalidations, so steady-state traffic goes direct.
//
// Determinism: decisions read only the home's own directory state, which
// the protocol serializes per block, and every handshake or forward crosses
// SMP nodes (a migration target is always on a different node than the
// deciding home), so the messages carry at least the interconnect's
// remote-wire latency — the engine's lookahead bound. One-worker and
// parallel runs therefore migrate identically.
//
// Liveness: a tombstone always points one step along the block's migration
// chain, whose final element is the live home; a processor that re-becomes
// home deletes its tombstone (re-handling anything queued on it), so
// forwarding chains terminate. A hand-off's acknowledgement can arrive
// after the block has already migrated back and away again; the per-
// processor migSeq carried in mMigrate and echoed in mMigrateAck
// disambiguates, and a stale ack is ignored.

// LocalLegCycles and RemoteLegCycles weigh one hop of the migration cost
// model and of the offline placement advisor (internal/obsv adviseHome),
// which reads them from here. A remote leg crosses the Memory Channel
// (1200-cycle wire plus send and handler occupancy); a local leg stays
// within an SMP node. What both minimize is the number of remote legs
// weighted by traffic, so the ratio matters more than the values. They are
// fixed, not part of Calibration: the advisor also reads metrics files,
// which carry no calibration.
const (
	LocalLegCycles  = 600
	RemoteLegCycles = 1800
)

// migRec is the tombstone an old home keeps for a block it migrated away.
type migRec struct {
	// to is the processor the directory entry was handed to.
	to int
	// seq is the hand-off's migSeq, echoed in the acknowledgement.
	seq int
	// acked is set once the new home confirmed installation; until then
	// arriving requests queue here instead of forwarding (a forward could
	// otherwise outrun the directory transfer).
	acked  bool
	queued []pmsg
}

// migModel is a home's incremental per-node miss model for one block: the
// evidence window behind migration decisions.
type migModel struct {
	// misses[n] counts home requests (of any kind) from node n this
	// window; writes[n] counts the exclusive/upgrade subset. They mirror
	// the Misses and WriteMisses columns the offline advisor reads from
	// the per-block statistics.
	misses, writes []int64
	// reqs counts requests since the last evaluation.
	reqs int
	// moved counts the block's completed migrations, doubling the
	// effective threshold each time (hysteresis against ping-pong).
	moved int
}

// migPPN returns the node size used for migration node arithmetic, clamped
// exactly like the offline advisor clamps it (buildBlocks).
func (p *Proc) migPPN() int {
	ppn := p.sys.cfg.ProcsPerNode
	if ppn < 1 {
		ppn = 1
	}
	if p.sys.cfg.NumProcs < ppn {
		ppn = p.sys.cfg.NumProcs
	}
	return ppn
}

// migNodeOf returns the SMP node of processor q for the cost model.
func (p *Proc) migNodeOf(q int) int { return q / p.migPPN() }

// migNumNodes returns the node count for the cost model.
func (p *Proc) migNumNodes() int {
	ppn := p.migPPN()
	return (p.sys.cfg.NumProcs + ppn - 1) / ppn
}

// migHint returns the home hint this processor attaches to replies and
// invalidations it issues as a block's home: its own id plus one, or 0 when
// migration is off (no hint).
func (p *Proc) migHint() int {
	if p.sys.cfg.Migrate {
		return p.id + 1
	}
	return 0
}

// homeOf returns the processor this group should address home traffic for
// the block to: the group's learned home view under migration, else the
// configured page home. A stale view is harmless — the old home's
// tombstone forwards — and is corrected by the hint on the eventual reply.
func (p *Proc) homeOf(base int) int {
	if p.grp.homeView != nil {
		if h, ok := p.grp.homeView[base]; ok {
			return h
		}
	}
	return p.sys.homeProc(p.sys.lay.LineAddr(base))
}

// applyHomeHint updates the group's home view from a reply's or
// invalidation's piggybacked hint.
func (p *Proc) applyHomeHint(m *pmsg) {
	if m.homeHint == 0 || p.grp.homeView == nil {
		return
	}
	h := m.homeHint - 1
	if h == p.sys.homeProc(p.sys.lay.LineAddr(m.baseLine)) {
		delete(p.grp.homeView, m.baseLine)
	} else {
		p.grp.homeView[m.baseLine] = h
	}
}

// noteHomeMiss feeds one home request into the block's miss model. The
// counted flag keeps requests that get queued and re-dispatched (behind
// downgrades, pending entries or tombstones) from being counted twice.
func (p *Proc) noteHomeMiss(m *pmsg, de *dirEntry, write bool) {
	if !p.sys.cfg.Migrate || m.counted || !p.sys.lay.Migratable(m.baseLine) {
		return
	}
	m.counted = true
	mm := de.mig
	if mm == nil {
		n := p.migNumNodes()
		mm = &migModel{misses: make([]int64, n), writes: make([]int64, n)}
		de.mig = mm
	}
	rn := p.migNodeOf(m.requester)
	mm.misses[rn]++
	if write {
		mm.writes[rn]++
	}
	mm.reqs++
}

// maybeMigrate evaluates the block's miss model once per MigrateInterval
// requests and triggers a hand-off when the advised node's estimated
// saving clears the hysteresis threshold. Deferred by the home request
// handlers so it runs after the block lock is released; it reads only this
// processor's directory, so no lock is needed.
//
// The cost computation is the advisor's, aggregated by node (the leg cost
// depends only on nodes, so summing per-processor counts per node first is
// exact): with observed writers, a miss from node rn costs the request leg
// to the home plus — weighted by where the owner probably is — either the
// home's reply leg (owner at home, 2 hops) or the forward and reply legs
// through the owner's node (3 hops); with no writers every miss is a
// 2-hop round trip. Tie-break as in adviseHome: the current home wins
// ties, then the lowest node id, so advice and migration never flap
// between equal-cost homes.
func (p *Proc) maybeMigrate(base int) {
	cfg := &p.sys.cfg
	if !cfg.Migrate {
		return
	}
	de, ok := p.dir[base]
	if !ok || de.mig == nil || de.mig.reqs < cfg.MigrateInterval {
		return
	}
	mm := de.mig
	n := len(mm.misses)
	var w int64
	for _, x := range mm.writes {
		w += x
	}
	leg := func(a, b int) int64 {
		if a == b {
			return LocalLegCycles
		}
		return RemoteLegCycles
	}
	cost := func(h int) int64 {
		var c int64
		for rn := 0; rn < n; rn++ {
			miss := mm.misses[rn]
			if miss == 0 {
				continue
			}
			if w == 0 {
				c += miss * (leg(rn, h) + leg(h, rn))
				continue
			}
			for on := 0; on < n; on++ {
				wm := mm.writes[on]
				if wm == 0 {
					continue
				}
				path := leg(rn, h)
				if on == h {
					path += leg(h, rn)
				} else {
					path += leg(h, on) + leg(on, rn)
				}
				c += miss * wm * path
			}
		}
		return c
	}
	raw := make([]int64, n)
	for h := 0; h < n; h++ {
		raw[h] = cost(h)
	}
	homeNode := p.migNodeOf(p.id)
	bestNode := homeNode
	for h := 0; h < n; h++ {
		if raw[h] < raw[bestNode] {
			bestNode = h
		}
	}
	homeCost, bestCost := raw[homeNode], raw[bestNode]
	if w > 0 {
		homeCost /= w
		bestCost /= w
	}
	// Start a fresh evidence window whatever the decision.
	for i := range mm.misses {
		mm.misses[i], mm.writes[i] = 0, 0
	}
	mm.reqs = 0
	shift := mm.moved
	if shift > 6 {
		shift = 6
	}
	thresh := cfg.MigrateThreshold << uint(shift)
	if bestNode == homeNode || homeCost-bestCost <= thresh {
		return
	}
	p.migrateTo(base, de, bestNode*p.migPPN(), homeCost, bestCost, thresh)
}

// migrateTo hands the block's directory entry to the target processor and
// tombstones it locally. The target is always on another SMP node (the
// trigger requires the advised node to differ from the current home's).
func (p *Proc) migrateTo(base int, de *dirEntry, target int, homeCost, bestCost, thresh int64) {
	p.st.Migrations++
	p.blockStat(base).Migrations++
	f := TraceFields{Peer: int32(target), N: int32(de.mig.moved)}
	f.Cost.Home, f.Cost.Best, f.Cost.Thresh = homeCost, bestCost, thresh
	p.trace("migrate", "", base, f)
	p.migSeq++
	if p.migrated == nil {
		p.migrated = make(map[int]*migRec)
	}
	p.migrated[base] = &migRec{to: target, seq: p.migSeq}
	moved := de.mig.moved + 1
	delete(p.dir, base)
	p.send(target, p.msg(pmsg{kind: mMigrate, baseLine: base, requester: p.id,
		id: p.migSeq, mig: &migPayload{owner: de.owner, sharers: de.sharers,
			seq: de.seq, dirty: de.dirty, moved: moved}}), stats.Message)
}

// handleMigrate installs a migrated directory entry at the new home. If the
// block had previously migrated away from here and came back, the local
// tombstone is dropped and anything queued on it is re-handled right here —
// this processor is the live home again.
func (p *Proc) handleMigrate(m *pmsg) {
	p.charge(stats.Message, p.sys.cfg.Cal.Costs.HomeHandler)
	base := m.baseLine
	var replay []pmsg
	if rec := p.migrated[base]; rec != nil {
		// The hand-off's ack may still be in flight; when it arrives its
		// sequence number will no longer match and it is ignored.
		replay = rec.queued
		delete(p.migrated, base)
	}
	de := &dirEntry{owner: m.mig.owner, sharers: m.mig.sharers,
		seq: m.mig.seq, dirty: m.mig.dirty}
	if p.sys.lay.Migratable(base) {
		n := p.migNumNodes()
		de.mig = &migModel{misses: make([]int64, n), writes: make([]int64, n),
			moved: m.mig.moved}
	}
	p.dir[base] = de
	// Publish the new placement: the group's own view, the global live-
	// home table (distinct slot per block; same-block writes are ordered
	// by the handshake chain) and the layout's migration epoch.
	if p.grp.homeView != nil {
		if p.id == p.sys.homeProc(p.sys.lay.LineAddr(base)) {
			delete(p.grp.homeView, base)
		} else {
			p.grp.homeView[base] = p.id
		}
	}
	p.sys.liveHome[base] = int32(p.id)
	p.sys.lay.BumpMigEpoch(base)
	p.trace("migrate", "", base, TraceFields{Installed: true, Peer: int32(m.requester), N: int32(m.mig.moved)})
	p.send(m.requester, p.msg(pmsg{kind: mMigrateAck, baseLine: base, id: m.id}), stats.Message)
	for i := range replay {
		p.handle(&replay[i])
	}
}

// handleMigrateAck completes a hand-off at the old home: the tombstone
// starts forwarding, beginning with everything queued on it (FIFO, so
// per-block request order through the old home is preserved).
func (p *Proc) handleMigrateAck(m *pmsg) {
	p.charge(stats.Message, p.sys.cfg.Cal.Costs.MissTableOp)
	rec := p.migrated[m.baseLine]
	if rec == nil || rec.seq != m.id || rec.acked {
		return // stale ack, superseded by a re-home
	}
	rec.acked = true
	queued := rec.queued
	rec.queued = nil
	for i := range queued {
		p.forwardMigrated(rec, &queued[i])
	}
}

// divertMigrated intercepts a home-bound message that arrived at a
// tombstoned block: queued until the hand-off is acknowledged, forwarded
// afterwards.
func (p *Proc) divertMigrated(rec *migRec, m *pmsg) {
	p.charge(stats.Message, p.sys.cfg.Cal.Costs.MissTableOp)
	if !rec.acked {
		rec.queued = queue(rec.queued, m)
		return
	}
	p.forwardMigrated(rec, m)
}

// forwardMigrated relays a copy of a diverted message one step along the
// migration chain. The relay is an internal re-injection (no fresh send
// event; the original request's send still accounts for it in the trace),
// but it does occupy the wire, so it is counted in the message statistics
// and as a MigForward.
func (p *Proc) forwardMigrated(rec *migRec, m *pmsg) {
	p.st.MigForwards++
	p.trace("migfwd", m.kind.String(), m.baseLine, TraceFields{Peer: int32(rec.to), Req: int32(m.requester)})
	if p.sys.net.SameNode(p.id, rec.to) {
		p.st.Messages[stats.LocalMsg]++
	} else {
		p.st.Messages[stats.RemoteMsg]++
	}
	p.sys.net.Send(p.sp, rec.to, 0, p.msg(*m))
}
