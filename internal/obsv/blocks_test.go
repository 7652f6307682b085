package obsv

import (
	"testing"

	"repro/internal/stats"
)

// TestAdviseHomeTieBreak pins the advisor's documented tie-break on
// constructed equal-cost candidates: the configured home wins a tie, and
// among strictly cheaper candidates of equal cost the lowest node id wins.
// The migration trigger reuses this contract, so a flapping tie here would
// mean oscillating homes there.
func TestAdviseHomeTieBreak(t *testing.T) {
	const ppn = 4
	const numNodes = 4
	// Read-only traffic (no write misses): cost(h) = sum of 2-hop round
	// trips. Equal reader miss counts on nodes 0 and 1 make those two
	// candidates tie, and the all-remote nodes 2 and 3 tie above them.
	accesses := []BlockAccess{
		{Proc: 0, Misses: 10}, // node 0
		{Proc: 4, Misses: 10}, // node 1
	}

	// Home on node 1: node 0 has exactly equal cost, so the configured home
	// must be kept (no migration advice on a tie).
	homeCost, bestCost, bestNode := adviseHome(accesses, 1, numNodes, ppn)
	if bestNode != 1 {
		t.Errorf("home=1: bestNode = %d, want the configured home 1 on an equal-cost tie", bestNode)
	}
	if homeCost != bestCost {
		t.Errorf("home=1: homeCost %d != bestCost %d on a tie", homeCost, bestCost)
	}

	// Home on node 3: nodes 0 and 1 are strictly cheaper and tie with each
	// other; the advisor must deterministically pick the lowest id.
	homeCost, bestCost, bestNode = adviseHome(accesses, 3, numNodes, ppn)
	if bestNode != 0 {
		t.Errorf("home=3: bestNode = %d, want lowest-id node 0 among tied improvements", bestNode)
	}
	if bestCost >= homeCost {
		t.Errorf("home=3: bestCost %d not below homeCost %d", bestCost, homeCost)
	}

	// Repeatability: the same inputs can never flap.
	for i := 0; i < 5; i++ {
		if _, _, n := adviseHome(accesses, 3, numNodes, ppn); n != 0 {
			t.Fatalf("advice flapped to node %d on identical inputs", n)
		}
	}
}

// TestSizeHintRuns pins the "larger" rule of the compact pass: every block
// of a run of adjacent blocks with the same stable pattern and identical
// sharer sets is hinted, whatever the run's length. A falsely-shared block
// or a gap in block IDs ends a run, as does a change of sharers.
func TestSizeHintRuns(t *testing.T) {
	read := func(blk, pid int) blockShard {
		b := &stats.BlockStat{ReadMask: 1}
		b.Misses[stats.ReadMiss][0] = 1
		return blockShard{uint64(blk)<<32 | uint64(pid), b}
	}
	write := func(blk, pid int, mask uint64) blockShard {
		b := &stats.BlockStat{WriteMask: mask, InvalsRecv: 1}
		b.Misses[stats.WriteMiss][0] = 1
		return blockShard{uint64(blk)<<32 | uint64(pid), b}
	}
	// Blocks below 40 are one line long, the rest two.
	linesOf := func(blk int) int {
		if blk >= 40 {
			return 2
		}
		return 1
	}
	var shards []blockShard
	readRun := func(pid int, blks ...int) {
		for _, blk := range blks {
			shards = append(shards, read(blk, pid))
		}
	}
	readRun(1, 0, 1)               // run of 2
	readRun(2, 3, 4, 5)            // run of 3
	readRun(3, 7, 8, 9, 10)        // run of 4
	readRun(4, 12, 13, 14, 15, 16) // run of 5
	readRun(5, 18, 19)
	shards = append(shards, write(20, 5, 0x1), write(20, 6, 0x2)) // falsely shared
	readRun(5, 21, 22, 23)
	readRun(6, 25, 26, 28) // a gap at 27
	readRun(6, 30)         // alone
	readRun(1, 32)
	readRun(2, 33) // adjacent, other reader
	readRun(7, 40, 42, 44, 47)
	want := map[int]bool{}
	for _, blk := range []int{0, 1, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 15, 16,
		18, 19, 21, 22, 23, 25, 26, 40, 42, 44} {
		want[blk] = true
	}

	rows := compactRows(shards, linesOf)
	if len(rows) != 30 {
		t.Fatalf("%d rows, want one per block (30)", len(rows))
	}
	for _, r := range rows {
		if r.larger != want[r.blk] {
			t.Errorf("block %d: larger = %t, want %t", r.blk, r.larger, want[r.blk])
		}
	}
}
