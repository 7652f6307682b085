package protocol

import (
	"fmt"
	"math"

	"repro/internal/memory"
	"repro/internal/stats"
)

// Batching (Sections 2.3 and 3.4.4): when a sequence of loads and stores
// covers a bounded range off a set of base addresses, Shasta emits one
// check per (line, base register) pair instead of one per access. The batch
// miss handler fetches every missing block and the batched code then runs
// without further checks.
//
// Because the batched accesses are not atomic with their checks,
// SMP-Shasta batch checks always consult the private state table (the flag
// technique is unsafe), which the paper identifies as the largest source of
// extra checking overhead. And because blocks can be invalidated while the
// handler waits for replies, blocks touched by a batch are marked:
// invalidation of a marked block is deferred until the batch ends, keeping
// batched loads correct.

// BatchRef describes one base register of a batch: the address range
// [Base, Base+Bytes) it can touch and whether any batched access through it
// is a store.
type BatchRef struct {
	Base  memory.Addr
	Bytes int
	Store bool
}

// Batch is the access context passed to a batched code sequence; its
// operations perform no per-access checks.
type Batch struct {
	p *Proc
	// rows is the batch's requirement table: one row per block its
	// references cover, sorted by base line. The context and the table's
	// storage belong to the processor (Proc.batches) and serve every batch
	// it starts at this nesting depth.
	rows []batchRow
	// noting is set while the body of a batch that missed under an attached
	// tracer runs: the miss events carry the batch's declared ranges, which
	// over-approximate, so the rows accumulate the slots the body actually
	// accesses and the batch emits touch events with these exact masks as
	// the race detector's access evidence (see internal/obsv/races.go).
	noting bool
}

// batchRow carries one block's batched requirements: whether any reference
// stores to it, the sub-block slots the batch's reference ranges cover
// (recorded into the per-block access masks when the batch misses), and the
// slots its body accessed (see Batch.noting).
type batchRow struct {
	base           int
	store          bool
	rdMask, wrMask uint64
	rd, wr         uint64
}

// row returns the table's row for a block, inserting an empty one in base
// order if the block is new. References usually arrive in ascending address
// order, so the search runs from the end.
func (b *Batch) row(base int) *batchRow {
	i := len(b.rows)
	for i > 0 && b.rows[i-1].base > base {
		i--
	}
	if i > 0 && b.rows[i-1].base == base {
		return &b.rows[i-1]
	}
	b.rows = append(b.rows, batchRow{})
	copy(b.rows[i+1:], b.rows[i:])
	b.rows[i] = batchRow{base: base}
	return &b.rows[i]
}

// note records the slots one batched access touches (no-op unless the
// batch is accumulating access evidence). An access outside the declared
// references has no row and leaves no evidence.
func (b *Batch) note(addr memory.Addr, size int, write bool) {
	if !b.noting {
		return
	}
	lay := b.p.sys.lay
	base, lines := lay.BlockOf(addr)
	lo := int64(addr - lay.LineAddr(base))
	m := stats.SlotMask(lines*lay.LineSize(), lo, lo+int64(size))
	for i := range b.rows {
		if r := &b.rows[i]; r.base == base {
			if write {
				r.wr |= m
			} else {
				r.rd |= m
			}
			return
		}
	}
}

// LoadF64 reads a float64 without a per-access check.
func (b *Batch) LoadF64(addr memory.Addr) float64 {
	b.p.checkHeap(addr, 8, "reads")
	b.note(addr, 8, false)
	v := b.p.rawRead(addr, 8)
	if debugBatchFlagReads && uint32(v) == memory.FlagWord && uint32(v>>32) == memory.FlagWord {
		base, _ := b.p.sys.lay.BlockOf(addr)
		panic(fmt.Sprintf("batched load of flag value at addr %d (proc %d, block %d state %v, marks %d, inBatch %d)",
			addr, b.p.id, base, b.p.grp.img.State(base), b.p.grp.batchMarks[base], b.p.inBatch))
	}
	return math.Float64frombits(v)
}

// debugBatchFlagReads enables a diagnostic panic when a batched load reads
// the invalid-flag bit pattern, which almost always indicates a protocol
// bug rather than real application data.
var debugBatchFlagReads = false

// LoadU64 reads a 64-bit integer without a per-access check.
func (b *Batch) LoadU64(addr memory.Addr) uint64 {
	b.p.checkHeap(addr, 8, "reads")
	b.note(addr, 8, false)
	return b.p.rawRead(addr, 8)
}

// LoadU32 reads a 32-bit integer without a per-access check.
func (b *Batch) LoadU32(addr memory.Addr) uint32 {
	b.p.checkHeap(addr, 4, "reads")
	b.note(addr, 4, false)
	return uint32(b.p.rawRead(addr, 4))
}

// StoreF64 writes a float64 without a per-access check.
func (b *Batch) StoreF64(addr memory.Addr, v float64) {
	b.p.checkHeap(addr, 8, "writes")
	b.note(addr, 8, true)
	b.p.rawWrite(addr, 8, math.Float64bits(v))
}

// StoreU64 writes a 64-bit integer without a per-access check.
func (b *Batch) StoreU64(addr memory.Addr, v uint64) {
	b.p.checkHeap(addr, 8, "writes")
	b.note(addr, 8, true)
	b.p.rawWrite(addr, 8, v)
}

// StoreU32 writes a 32-bit integer without a per-access check.
func (b *Batch) StoreU32(addr memory.Addr, v uint32) {
	b.p.checkHeap(addr, 4, "writes")
	b.note(addr, 4, true)
	b.p.rawWrite(addr, 4, uint64(v))
}

// Compute charges application work inside the batch.
func (b *Batch) Compute(cycles int64) { b.p.Compute(cycles) }

// Batch executes f as a batched access sequence over the given references.
// The inline batch checks are charged; if every referenced block is in a
// sufficient state the sequence runs immediately, otherwise the batch miss
// handler fetches the missing blocks first.
func (p *Proc) Batch(refs []BatchRef, f func(*Batch)) {
	// A batch started inside another's body runs one level deeper, with a
	// context and requirement table of its own.
	if p.inBatch == len(p.batches) {
		p.batches = append(p.batches, &Batch{p: p})
	}
	b := p.batches[p.inBatch]
	if p.sys.cfg.Hardware {
		f(b)
		return
	}
	p.poll()
	lay := p.sys.lay

	// Collect the (block, needStore) requirements and count line pairs
	// for check-cost purposes.
	linePairs := 0
	loadOnly := true
	b.rows = b.rows[:0]
	for _, r := range refs {
		if r.Bytes <= 0 {
			continue
		}
		p.checkHeap(r.Base, r.Bytes, "batches")
		first := lay.LineOf(r.Base)
		last := lay.LineOf(r.Base + memory.Addr(r.Bytes) - 1)
		linePairs += last - first + 1
		if r.Store {
			loadOnly = false
		}
		for li := first; li <= last; {
			base, lines := lay.BlockOf(lay.LineAddr(li))
			n := b.row(base)
			n.store = n.store || r.Store
			// The slots this reference's range covers within the block,
			// for the observatory's access masks. A reference is declared
			// conservatively, so this over-approximates the accesses the
			// batched body actually performs — deterministically so.
			bs := lay.LineAddr(base)
			be := bs + memory.Addr(lines*lay.LineSize())
			lo, hi := r.Base, r.Base+memory.Addr(r.Bytes)
			if lo < bs {
				lo = bs
			}
			if hi > be {
				hi = be
			}
			m := stats.SlotMask(lines*lay.LineSize(), int64(lo-bs), int64(hi-bs))
			if r.Store {
				n.wrMask |= m
			} else {
				n.rdMask |= m
			}
			li = base + lines
		}
	}
	p.charge(stats.Task, int64(linePairs)*p.sys.checks.batchLine[variant(loadOnly)])
	p.st.ChecksExecuted++

	ok := true
	for i := range b.rows {
		if !p.batchStateOK(b.rows[i].base, b.rows[i].store) {
			ok = false
			break
		}
	}
	if !ok {
		p.batchMiss(b.rows)
		b.noting = p.sys.tracer != nil
	}
	p.inBatch++
	f(b)
	p.inBatch--
	if !ok {
		// The exact slots the body accessed, per fetched block. The body
		// does not poll, so the touch events' position still reflects the
		// processor's synchronization state when the accesses ran.
		b.noting = false
		for i := range b.rows {
			if r := &b.rows[i]; (r.rd | r.wr) != 0 {
				p.trace("touch", "", r.base, TraceFields{Rd: r.rd, Wr: r.wr})
			}
		}
		// Markers exist only when the miss handler ran; a batch whose
		// checks all passed proceeds without them (its body performs no
		// message handling, and in SMP mode any concurrent downgrade
		// waits on this processor's downgrade message, which it handles
		// only after the body).
		p.batchEnd(b.rows)
	}
}

// batchStateOK reports whether the processor may access the block within a
// batch without protocol intervention: the inline batch check.
func (p *Proc) batchStateOK(base int, store bool) bool {
	st := p.privState(base)
	if store {
		return st == memory.Exclusive
	}
	return st.Valid()
}

// batchMiss is the batch miss handler: it marks every block of the batch,
// issues requests for all insufficient blocks — pipelined, like the real
// handler, which "sends out requests for any missing blocks" and only then
// waits for the replies — and stalls until every block is available.
func (p *Proc) batchMiss(rows []batchRow) {
	c := p.sys.cfg.Cal.Costs
	p.charge(stats.Task, c.Entry)
	p.trace("batch", "", -1, TraceFields{N: int32(len(rows))})
	for i := range rows {
		b := p.blockStat(rows[i].base)
		b.ReadMask |= rows[i].rdMask
		b.WriteMask |= rows[i].wrMask
	}
	// Mark all blocks first so the invalid-flag store for any block
	// invalidated while the handler waits is deferred until the batch
	// ends, keeping batched loads correct (the paper's batch markers).
	for i := range rows {
		p.grp.batchMarks[rows[i].base]++
	}
	// Issue-then-wait rounds. While waiting the handler services
	// incoming requests, so an earlier-acquired store block may be
	// downgraded again; the outer loop re-checks until one pass finds
	// every block sufficient. (Load blocks invalidated during the wait
	// need no re-fetch: their data stays until the deferred flag store.)
	// Once a pass succeeds the batch body is safe: this processor's
	// private state makes it a recipient of any downgrade, and it does
	// not poll again until the body has completed, so a downgrade's data
	// capture cannot precede the batched stores.
	for round := 0; ; round++ {
		if round > 0 {
			// Stagger retries so two batches stealing each other's
			// store blocks cannot alternate forever — the deterministic
			// analogue of the timing jitter that resolves such duels on
			// real hardware. Higher processor IDs and later rounds back
			// off longer, so some batch always completes a full pass.
			backoff := int64((p.id+1)*151 + round*977)
			if backoff > 60000 {
				backoff = 60000
			}
			p.charge(stats.Other, backoff)
		}
		if round > 0 && round%1000 == 0 {
			var detail string
			for i := range rows {
				b := rows[i].base
				e := p.grp.miss[b]
				es := "-"
				if e != nil {
					es = fmt.Sprintf("%v(iss%d,da%v,eg%v,acks%d/%d,det? n)", e.kind, e.issuer, e.dataArrived, e.exclGranted, e.acksReceived, e.acksExpected)
				}
				detail += fmt.Sprintf(" [%d st=%v priv=%v entry=%s dg=%v]", b, p.grp.img.State(b), p.privState(b), es, p.grp.downgrades[b] != nil)
			}
			panic(fmt.Sprintf("protocol: proc %d batch re-check round %d:%s", p.id, round, detail))
		}
		type waitItem struct {
			base   int
			store  bool
			entry  *missEntry
			dgWait bool
		}
		var waits []waitItem
		for i := range rows {
			base, store := rows[i].base, rows[i].store
			if round > 0 && !store && p.batchStateOK(base, false) {
				continue
			}
			if p.batchStateOK(base, store) {
				continue
			}
			entry, dgWait := p.batchIssue(&rows[i])
			if entry != nil || dgWait {
				waits = append(waits, waitItem{base, store, entry, dgWait})
			}
		}
		if len(waits) == 0 {
			return
		}
		for _, wi := range waits {
			if wi.dgWait {
				p.waitDowngrade(wi.base)
				continue
			}
			entry := wi.entry
			store := wi.store
			cat := stats.Read
			if store {
				cat = stats.Write
			}
			p.stallUntil(cat, "batch-miss", func() bool {
				return entry.complete ||
					(entry.dataArrived && (!store || entry.exclGranted))
			})
			p.upgradePrivate(wi.base, store)
		}
	}
}

// batchIssue brings one block's fetch in flight (or satisfies it locally)
// without stalling, so a batch's misses overlap. It returns the entry to
// wait on (nil if no wait is needed) and whether the block is mid-downgrade
// and must be waited out instead. The row carries the batch's declared
// sub-block ranges so an issued miss event records them as offset evidence.
func (p *Proc) batchIssue(need *batchRow) (*missEntry, bool) {
	base, store := need.base, need.store
	p.lockBlock(base)
	defer p.unlockBlock(base)
	if entry := p.grp.miss[base]; entry != nil && !entry.complete && !entry.acksOnly() {
		// Merge with the pending request. (Acknowledgement-waiting
		// entries are skipped: their data phase is over, so the state
		// switch below decides instead.)
		entry.waiters.add(p.id)
		if store {
			entry.wantExcl = true
		}
		p.st.MergedMisses++
		return entry, false
	}
	st := p.grp.img.State(base)
	switch {
	case st == memory.Exclusive:
		p.charge(stats.Other, p.sys.cfg.Cal.Costs.PrivateUpgrade)
		p.setPrivBlock(base, memory.Exclusive)
		p.st.LocalHits++
		return nil, false

	case st == memory.Shared && !store:
		p.charge(stats.Other, p.sys.cfg.Cal.Costs.PrivateUpgrade)
		p.setPrivBlock(base, memory.Shared)
		p.st.LocalHits++
		return nil, false

	case st == memory.Shared && store:
		entry := p.newMissEntry(base, stats.UpgradeMiss, need.rdMask, need.wrMask, true)
		entry.dataArrived = true // the shared copy is the data
		entry.hasStores = true
		entry.wantExcl = true
		p.outstandingStores++
		p.grp.img.SetBlockState(base, memory.PendingExcl)
		p.sendHome(p.homeOf(base), p.msg(pmsg{kind: mUpgradeReq, baseLine: base,
			requester: p.id, issueTime: p.sp.Now()}), stats.Write)
		return entry, false

	case st == memory.PendingDowngrade:
		return nil, true

	case st == memory.Invalid:
		kind := stats.ReadMiss
		mk := mReadReq
		if store {
			kind = stats.WriteMiss
			mk = mReadExclReq
		}
		entry := p.newMissEntry(base, kind, need.rdMask, need.wrMask, true)
		if store {
			entry.hasStores = true
			entry.wantExcl = true
			p.outstandingStores++
			p.grp.img.SetBlockState(base, memory.PendingExcl)
		} else {
			p.grp.img.SetBlockState(base, memory.PendingRead)
		}
		p.sendHome(p.homeOf(base), p.msg(pmsg{kind: mk, baseLine: base,
			requester: p.id, issueTime: p.sp.Now()}), stats.Read)
		return entry, false

	default:
		// A transient state; treat like a downgrade wait and re-check.
		return nil, true
	}
}

// upgradePrivate raises the private state after a batch fetch completes.
func (p *Proc) upgradePrivate(base int, store bool) {
	st := p.grp.img.State(base)
	if st == memory.Exclusive {
		p.setPrivBlock(base, memory.Exclusive)
	} else if st == memory.Shared && !store {
		p.setPrivBlock(base, memory.Shared)
	}
}

// batchEnd removes the batch markers and completes any invalid-flag stores
// that were deferred while the batch ran.
func (p *Proc) batchEnd(rows []batchRow) {
	for i := range rows {
		base := rows[i].base
		p.grp.batchMarks[base]--
		if p.grp.batchMarks[base] == 0 {
			delete(p.grp.batchMarks, base)
			// Complete any flag fill that invalidateLocal deferred.
			if p.grp.img.State(base) == memory.Invalid && !p.grp.img.HasFlagWord(p.sys.lay.LineAddr(base)) {
				p.grp.img.FillFlag(base)
			}
		}
	}
}

// SetDebugBatchFlagReads toggles the batched-load flag-value diagnostic.
func SetDebugBatchFlagReads(on bool) { debugBatchFlagReads = on }
