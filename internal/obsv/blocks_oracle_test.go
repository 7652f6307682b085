package obsv

import (
	"fmt"
	"sort"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// OldBuildBlocks exposes the oracle below to the external tests, which can
// run the applications this package's own tests cannot import.
var OldBuildBlocks = oldBuildBlocks

// oldBuildBlocks is the blocks-section builder as it stood before the
// compact pass: a full row for every active block, sorted, then cut to
// BlocksCap. It is kept verbatim as the oracle the snapshot's blocks
// section must equal byte for byte, renamed and with one line patched
// (marked PATCHED): the size-hint loop no longer skips a block its
// predecessor already marked "larger", so a run of odd length keeps its
// last block's hint.
func oldBuildBlocks(sys *protocol.System) ([]BlockMetrics, int) {
	run := sys.Stats()
	lay := sys.Layout()
	cfg := sys.Config()
	ppn := cfg.ProcsPerNode
	if ppn < 1 {
		ppn = 1
	}
	if cfg.NumProcs < ppn {
		ppn = cfg.NumProcs
	}
	numNodes := (cfg.NumProcs + ppn - 1) / ppn

	byBlock := map[int]map[int]*stats.BlockStat{}
	for pid := range run.Procs {
		for blk, b := range run.Procs[pid].Blocks {
			m := byBlock[blk]
			if m == nil {
				m = map[int]*stats.BlockStat{}
				byBlock[blk] = m
			}
			m[pid] = b
		}
	}
	if len(byBlock) == 0 {
		return nil, 0
	}

	ids := make([]int, 0, len(byBlock))
	for blk := range byBlock {
		ids = append(ids, blk)
	}
	sort.Ints(ids)

	entries := make([]BlockMetrics, 0, len(ids))
	byID := map[int]*BlockMetrics{}
	for _, blk := range ids {
		shards := byBlock[blk]
		_, lines := lay.BlockOf(lay.LineAddr(blk))
		home := sys.HomeOf(blk)
		e := BlockMetrics{
			Block:    blk,
			Bytes:    lines * lay.LineSize(),
			Home:     home,
			HomeNode: home / ppn,
			Misses:   map[string]int64{},
		}
		pids := make([]int, 0, len(shards))
		for pid := range shards {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		var wmasks []uint64
		var upgrades int64
		for _, pid := range pids {
			b := shards[pid]
			var miss, wmiss int64
			for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
				for i, hops := range []int{2, 3} {
					n := b.Misses[k][i]
					if n == 0 {
						continue
					}
					miss += n
					e.Misses[fmt.Sprintf("%s-%dhop", k, hops)] += n
					if k != stats.ReadMiss {
						wmiss += n
					}
					if k == stats.UpgradeMiss {
						upgrades += n
					}
				}
			}
			e.TotalMisses += miss
			e.InvalsRecv += b.InvalsRecv
			e.InvalsSent += b.InvalsSent
			e.Downgrades += b.Downgrades
			e.DowngradeMsgs += b.DowngradeMsgs
			e.Accesses = append(e.Accesses, BlockAccess{
				Proc:        pid,
				Misses:      miss,
				WriteMisses: wmiss,
				InvalsRecv:  b.InvalsRecv,
				ReadMask:    maskHex(b.ReadMask),
				WriteMask:   maskHex(b.WriteMask),
			})
			if b.ReadMask != 0 || miss-wmiss > 0 {
				e.Readers = append(e.Readers, pid)
			}
			if b.WriteMask != 0 || wmiss > 0 {
				e.Writers = append(e.Writers, pid)
				wmasks = append(wmasks, b.WriteMask)
			}
		}
		e.Pattern = classifyBlock(e.Readers, e.Writers, wmasks,
			e.TotalMisses, e.InvalsRecv+e.InvalsSent, upgrades)
		e.HomeCost, e.AdvisedCost, e.AdvisedNode =
			adviseHome(e.Accesses, e.HomeNode, numNodes, ppn)
		if e.AdvisedNode != e.HomeNode && e.HomeCost > e.AdvisedCost {
			e.SavingsCycles = e.HomeCost - e.AdvisedCost
		} else {
			// Ties keep the configured home; report it as optimal.
			e.AdvisedNode = e.HomeNode
			e.AdvisedCost = e.HomeCost
		}
		if e.Pattern == PatternFalselyShared {
			e.SizeHint = "smaller"
		}
		entries = append(entries, e)
		byID[blk] = &entries[len(entries)-1]
	}

	// Adjacent blocks with the same stable pattern and identical sharer
	// sets would amortize miss overhead under a coarser granularity.
	for _, e := range entries {
		if e.SizeHint == "smaller" { // PATCHED: was != "", which dropped the last block of an odd-length run
			continue
		}
		switch e.Pattern {
		case PatternReadOnly, PatternSingleWriter, PatternProducerConsumer:
		default:
			continue
		}
		next := byID[e.Block+e.Bytes/lay.LineSize()]
		if next == nil || next.SizeHint == "smaller" || next.Pattern != e.Pattern ||
			!sameInts(next.Readers, e.Readers) || !sameInts(next.Writers, e.Writers) {
			continue
		}
		byID[e.Block].SizeHint = "larger"
		next.SizeHint = "larger"
	}

	total := len(entries)
	sort.SliceStable(entries, func(i, j int) bool {
		ai := entries[i].TotalMisses + entries[i].InvalsRecv + entries[i].InvalsSent + entries[i].Downgrades
		aj := entries[j].TotalMisses + entries[j].InvalsRecv + entries[j].InvalsSent + entries[j].Downgrades
		if ai != aj {
			return ai > aj
		}
		return entries[i].Block < entries[j].Block
	})
	if len(entries) > BlocksCap {
		entries = entries[:BlocksCap]
	}
	return entries, total
}

// sameInts is the set comparison the oracle was written against.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
