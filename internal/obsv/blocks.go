package obsv

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// The sharing-pattern observatory: aggregates the per-processor per-block
// counter shards into a classified view of how each hot block is shared,
// plus a placement advisor estimating the best home node for its observed
// miss traffic. Everything here is derived purely from the append-only
// counters, so the analysis of identical runs is byte-identical regardless
// of the simulation scheduler.

// BlocksCap bounds the snapshot's blocks section: the BlocksCap most active
// blocks are kept (sorted by activity descending, block ascending) and
// BlocksTotal records how many distinct blocks had attributed activity.
const BlocksCap = 128

// The sharing-pattern labels the classifier assigns.
const (
	PatternReadOnly         = "read-only"
	PatternSingleWriter     = "single-writer"
	PatternProducerConsumer = "producer-consumer"
	PatternMigratory        = "migratory"
	PatternPingPong         = "ping-pong"
	PatternFalselyShared    = "falsely-shared"
	PatternMultiWriter      = "multi-writer"
)

// BlockAccess is one processor's attributed activity on a block. The masks
// are the sub-block slot sets of stats.BlockSlots, rendered as hex strings.
type BlockAccess struct {
	Proc        int    `json:"proc"`
	Misses      int64  `json:"misses"`
	WriteMisses int64  `json:"write_misses"`
	InvalsRecv  int64  `json:"invals_recv,omitempty"`
	ReadMask    string `json:"read_mask,omitempty"`
	WriteMask   string `json:"write_mask,omitempty"`
}

// BlockMetrics is one coherence block's row of the metrics document's
// blocks section: aggregated counters, the classified sharing pattern, and
// the placement advisor's verdict. Added in a compatible extension of
// metrics v1.
type BlockMetrics struct {
	// Block is the block's base line index and Bytes its size.
	Block int `json:"block"`
	Bytes int `json:"bytes"`
	// Home is the configured home processor, HomeNode its SMP node.
	Home     int `json:"home"`
	HomeNode int `json:"home_node"`
	// Pattern is the classified sharing pattern (see OBSERVABILITY.md §7).
	Pattern string `json:"pattern"`
	// Misses maps "<kind>-<hops>hop" to miss counts (non-zero entries
	// only), TotalMisses their sum.
	Misses      map[string]int64 `json:"misses"`
	TotalMisses int64            `json:"total_misses"`

	InvalsRecv    int64 `json:"invals_recv"`
	InvalsSent    int64 `json:"invals_sent"`
	Downgrades    int64 `json:"downgrades"`
	DowngradeMsgs int64 `json:"downgrade_msgs"`

	// Readers and Writers are the distinct processors whose missing loads
	// (resp. stores or ownership requests) touched the block.
	Readers []int `json:"readers,omitempty"`
	Writers []int `json:"writers,omitempty"`
	// Accesses breaks the activity down per processor, with the sub-block
	// offset masks that are the false-sharing evidence.
	Accesses []BlockAccess `json:"accesses,omitempty"`

	// The placement advisor: AdvisedNode is the home node minimizing the
	// hop-weighted cost of the block's observed misses, HomeCost and
	// AdvisedCost the estimated cycle costs under the configured and
	// advised homes, and SavingsCycles their difference (zero when the
	// configured home is already optimal).
	AdvisedNode   int   `json:"advised_node"`
	HomeCost      int64 `json:"home_cost"`
	AdvisedCost   int64 `json:"advised_cost"`
	SavingsCycles int64 `json:"savings_cycles"`
	// SizeHint flags blocks whose pattern predicts a different block size
	// would win: "smaller" for falsely-shared blocks, "larger" for runs of
	// adjacent blocks with identical stable sharing.
	SizeHint string `json:"size_hint,omitempty"`
}

// maskHex renders an access mask for the JSON document; zero masks are
// omitted entirely (omitempty).
func maskHex(m uint64) string {
	if m == 0 {
		return ""
	}
	return fmt.Sprintf("0x%x", m)
}

// ParseMask is the inverse of maskHex: it decodes a snapshot's hex access
// mask (empty or malformed strings decode to zero, matching omitempty).
func ParseMask(s string) uint64 {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// disjointMasks reports whether at least two masks are non-zero and all
// non-zero masks are pairwise disjoint — the offset-level evidence that
// writers share the block's coherence unit but not its data.
func disjointMasks(masks []uint64) bool {
	var seen uint64
	n := 0
	for _, m := range masks {
		if m == 0 {
			continue
		}
		if seen&m != 0 {
			return false
		}
		seen |= m
		n++
	}
	return n >= 2
}

// classifyBlock assigns the sharing pattern from the aggregated evidence.
// readers and writers are sorted distinct processor sets; wmasks the
// writers' offset masks; upgrades the block's upgrade-miss total.
func classifyBlock(readers, writers []int, wmasks []uint64, misses, invals, upgrades int64) string {
	switch {
	case len(writers) == 0:
		return PatternReadOnly
	case len(writers) == 1:
		if len(readers) == 0 || (len(readers) == 1 && readers[0] == writers[0]) {
			return PatternSingleWriter
		}
		return PatternProducerConsumer
	}
	// Multiple writers invalidating each other. Disjoint offsets mean the
	// contention is an artifact of the block size: false sharing.
	if disjointMasks(wmasks) && (invals > 0 || misses > 0) {
		return PatternFalselyShared
	}
	// Every writer also reads and vice versa: ownership migrates with a
	// read-modify-write pattern (locks, reduction cells).
	if slices.Equal(readers, writers) {
		return PatternMigratory
	}
	if invals > 0 || upgrades > 0 {
		return PatternPingPong
	}
	return PatternMultiWriter
}

// adviseHome estimates, for each candidate home node, the hop-weighted cost
// of the block's observed misses, and returns the configured home's cost,
// the best node and its cost. A miss travels requester→home, then either
// home→requester (the owner is at home: 2 hops) or home→owner→requester
// (3 hops); each leg costs protocol.RemoteLegCycles across nodes,
// protocol.LocalLegCycles within one. The probability the owner sits on a
// given node is estimated from the per-processor write/upgrade miss counts
// (a block's owner is its last writer); with no observed writers the block
// is read-only after init and every miss is served by the home in 2 hops.
//
// Tie-breaking is part of the advisor's contract: when candidate homes have
// equal hop-weighted cost, the configured home wins, then the lowest node
// id. The protocol's online migration trigger evaluates the same model with
// the same tie-break (see internal/protocol), so advice and migration
// decisions can never flap between equal-cost homes.
func adviseHome(accesses []BlockAccess, homeNode, numNodes, ppn int) (homeCost, bestCost int64, bestNode int) {
	nodeOf := func(p int) int { return p / ppn }
	leg := func(a, b int) int64 {
		if a == b {
			return protocol.LocalLegCycles
		}
		return protocol.RemoteLegCycles
	}
	var w int64
	for _, a := range accesses {
		w += a.WriteMisses
	}
	cost := func(h int) int64 {
		var c int64
		for _, r := range accesses {
			if r.Misses == 0 {
				continue
			}
			rn := nodeOf(r.Proc)
			if w == 0 {
				c += r.Misses * (leg(rn, h) + leg(h, rn))
				continue
			}
			for _, o := range accesses {
				if o.WriteMisses == 0 {
					continue
				}
				on := nodeOf(o.Proc)
				path := leg(rn, h)
				if on == h {
					path += leg(h, rn)
				} else {
					path += leg(h, on) + leg(on, rn)
				}
				c += r.Misses * o.WriteMisses * path
			}
		}
		return c
	}
	raw := make([]int64, numNodes)
	for h := 0; h < numNodes; h++ {
		raw[h] = cost(h)
	}
	// Deterministic tie-break: start from the configured home and displace
	// it only for a strictly cheaper candidate; scanning in ascending node
	// order with a strict comparison keeps the lowest id among equal-cost
	// strict improvements.
	bestNode = homeNode
	if bestNode < 0 || bestNode >= numNodes {
		bestNode = 0
	}
	for h := 0; h < numNodes; h++ {
		if raw[h] < raw[bestNode] {
			bestNode = h
		}
	}
	homeCost, bestCost = raw[homeNode], raw[bestNode]
	if w > 0 {
		// The owner weights scaled every term by the total write count;
		// normalize so costs read as cycles over the block's misses.
		homeCost /= w
		bestCost /= w
	}
	return homeCost, bestCost, bestNode
}

// blockShard is one processor's counter shard on one block; its key,
// block<<32 | processor, orders shards by (block, processor).
type blockShard struct {
	key uint64
	b   *stats.BlockStat
}

func (s blockShard) block() int { return int(s.key >> 32) }
func (s blockShard) proc() int  { return int(uint32(s.key)) }

// blockRow is one active block reduced to what ordering and the size hint
// need; its shards are shards[lo:lo+n] of the sorted shard list.
type blockRow struct {
	blk      int
	activity int64
	lo, n    int32
	larger   bool
}

// sharing is a block's classification evidence. Its slices are reused from
// one block to the next, so the compact pass allocates nothing per block.
type sharing struct {
	readers, writers []int
	wmasks           []uint64

	misses, invals, upgrades, activity int64
	pattern                            string
}

// shardMisses returns one shard's miss total and its write-side (write and
// upgrade) misses.
func shardMisses(b *stats.BlockStat) (miss, wmiss int64) {
	miss = b.MissTotal()
	return miss, miss - b.Misses[stats.ReadMiss][0] - b.Misses[stats.ReadMiss][1]
}

// reduce fills s from one block's shards, given in processor order.
func (s *sharing) reduce(shards []blockShard) {
	*s = sharing{readers: s.readers[:0], writers: s.writers[:0], wmasks: s.wmasks[:0]}
	for _, sh := range shards {
		b := sh.b
		miss, wmiss := shardMisses(b)
		s.misses += miss
		s.upgrades += b.Misses[stats.UpgradeMiss][0] + b.Misses[stats.UpgradeMiss][1]
		s.invals += b.InvalsRecv + b.InvalsSent
		s.activity += miss + b.InvalsRecv + b.InvalsSent + b.Downgrades
		if b.ReadMask != 0 || miss-wmiss > 0 {
			s.readers = append(s.readers, sh.proc())
		}
		if b.WriteMask != 0 || wmiss > 0 {
			s.writers = append(s.writers, sh.proc())
			s.wmasks = append(s.wmasks, b.WriteMask)
		}
	}
	s.pattern = classifyBlock(s.readers, s.writers, s.wmasks, s.misses, s.invals, s.upgrades)
}

// sameRun reports whether a block continues its predecessor's run for the
// "larger" size hint: the same stable pattern and identical sharer sets.
func (s *sharing) sameRun(prev *sharing) bool {
	switch s.pattern {
	case PatternReadOnly, PatternSingleWriter, PatternProducerConsumer:
	default:
		return false
	}
	return s.pattern == prev.pattern &&
		slices.Equal(s.readers, prev.readers) && slices.Equal(s.writers, prev.writers)
}

// compactRows makes one pass over the shards, sorted by (block, processor),
// and returns one row per active block in block order. linesOf gives a
// block's length in lines, which locates its adjacent successor.
func compactRows(shards []blockShard, linesOf func(blk int) int) []blockRow {
	nblocks := 0
	for i := range shards {
		if i == 0 || shards[i].block() != shards[i-1].block() {
			nblocks++
		}
	}
	rows := make([]blockRow, 0, nblocks)
	var cur, prev sharing
	next := -1 // the block that would be adjacent to the previous one
	for lo := 0; lo < len(shards); {
		blk := shards[lo].block()
		hi := lo + 1
		for hi < len(shards) && shards[hi].block() == blk {
			hi++
		}
		cur.reduce(shards[lo:hi])
		r := blockRow{blk: blk, activity: cur.activity, lo: int32(lo), n: int32(hi - lo)}
		// Adjacent blocks with the same stable pattern and identical sharer
		// sets would amortize miss overhead under a coarser granularity.
		if blk == next && cur.sameRun(&prev) {
			rows[len(rows)-1].larger = true
			r.larger = true
		}
		rows = append(rows, r)
		next = blk + linesOf(blk)
		cur, prev = prev, cur
		lo = hi
	}
	return rows
}

// buildBlocks aggregates the per-processor block shards into the snapshot's
// blocks section. It returns the BlocksCap most active blocks and the total
// number of active blocks. Every active block is reduced to a compact row;
// only the reported rows get their misses map, accesses and placement advice.
func buildBlocks(sys *protocol.System) ([]BlockMetrics, int) {
	run := sys.Stats()
	lay := sys.Layout()
	cfg := sys.Config()
	ppn := min(max(cfg.ProcsPerNode, 1), cfg.NumProcs)
	numNodes := (cfg.NumProcs + ppn - 1) / ppn

	n := 0
	for pid := range run.Procs {
		n += len(run.Procs[pid].Blocks)
	}
	if n == 0 {
		return nil, 0
	}
	shards := make([]blockShard, 0, n)
	for pid := range run.Procs {
		for blk, b := range run.Procs[pid].Blocks {
			shards = append(shards, blockShard{uint64(blk)<<32 | uint64(pid), b})
		}
	}
	slices.SortFunc(shards, func(a, b blockShard) int { return cmp.Compare(a.key, b.key) })
	linesOf := func(blk int) int {
		_, lines := lay.BlockOf(lay.LineAddr(blk))
		return lines
	}

	rows := compactRows(shards, linesOf)
	total := len(rows)
	slices.SortFunc(rows, func(a, b blockRow) int {
		if a.activity != b.activity {
			return cmp.Compare(b.activity, a.activity)
		}
		return cmp.Compare(a.blk, b.blk)
	})
	rows = rows[:min(len(rows), BlocksCap)]

	entries := make([]BlockMetrics, len(rows))
	var s sharing
	for i, r := range rows {
		sh := shards[r.lo : r.lo+r.n]
		s.reduce(sh)
		home := sys.HomeOf(r.blk)
		e := &entries[i]
		*e = BlockMetrics{
			Block:       r.blk,
			Bytes:       linesOf(r.blk) * lay.LineSize(),
			Home:        home,
			HomeNode:    home / ppn,
			Pattern:     s.pattern,
			Misses:      map[string]int64{},
			TotalMisses: s.misses,
			Readers:     append([]int(nil), s.readers...),
			Writers:     append([]int(nil), s.writers...),
			Accesses:    make([]BlockAccess, 0, len(sh)),
		}
		for _, x := range sh {
			b := x.b
			addMisses(e.Misses, &b.Misses)
			e.InvalsRecv += b.InvalsRecv
			e.InvalsSent += b.InvalsSent
			e.Downgrades += b.Downgrades
			e.DowngradeMsgs += b.DowngradeMsgs
			miss, wmiss := shardMisses(b)
			e.Accesses = append(e.Accesses, BlockAccess{
				Proc:        x.proc(),
				Misses:      miss,
				WriteMisses: wmiss,
				InvalsRecv:  b.InvalsRecv,
				ReadMask:    maskHex(b.ReadMask),
				WriteMask:   maskHex(b.WriteMask),
			})
		}
		e.HomeCost, e.AdvisedCost, e.AdvisedNode =
			adviseHome(e.Accesses, e.HomeNode, numNodes, ppn)
		if e.AdvisedNode != e.HomeNode && e.HomeCost > e.AdvisedCost {
			e.SavingsCycles = e.HomeCost - e.AdvisedCost
		} else {
			// Ties keep the configured home; report it as optimal.
			e.AdvisedNode = e.HomeNode
			e.AdvisedCost = e.HomeCost
		}
		switch {
		case e.Pattern == PatternFalselyShared:
			e.SizeHint = "smaller"
		case r.larger:
			e.SizeHint = "larger"
		}
	}
	return entries, total
}

func intList(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// maskSlots renders a slot mask as a fixed-width occupancy string ('x' for
// touched slots), the falseshare report's visual evidence.
func maskSlots(m uint64, slots int) string {
	var b strings.Builder
	for s := 0; s < slots; s++ {
		if m&(1<<uint(s)) != 0 {
			b.WriteByte('x')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// FormatBlocks renders the top-n rows of the snapshot's blocks section as an
// aligned table (n <= 0 means all). Deterministic for identical snapshots.
func FormatBlocks(s *Snapshot, n int) string {
	blocks := s.Blocks
	if n > 0 && n < len(blocks) {
		blocks = blocks[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %6s %-5s %-17s %8s %7s %7s %7s %5s  %s\n",
		"block", "bytes", "home", "pattern", "misses", "invalR", "invalS", "dgrade", "hint", "readers|writers")
	for i := range blocks {
		e := &blocks[i]
		hint := e.SizeHint
		if hint == "" {
			hint = "-"
		}
		fmt.Fprintf(&b, "b%-6d %6d p%-4d %-17s %8d %7d %7d %7d %5s  %s|%s\n",
			e.Block, e.Bytes, e.Home, e.Pattern, e.TotalMisses,
			e.InvalsRecv, e.InvalsSent, e.Downgrades, hint,
			intList(e.Readers), intList(e.Writers))
	}
	fmt.Fprintf(&b, "%d of %d active blocks shown\n", len(blocks), s.BlocksTotal)
	return b.String()
}

// FormatFalseShare renders the offset-overlap evidence for every block the
// classifier flagged as falsely shared: each writer's sub-block slot map,
// which by construction are pairwise disjoint.
func FormatFalseShare(s *Snapshot) string {
	var b strings.Builder
	flagged := 0
	for i := range s.Blocks {
		e := &s.Blocks[i]
		if e.Pattern != PatternFalselyShared {
			continue
		}
		flagged++
		slots, slotBytes := stats.BlockSlots(e.Bytes)
		fmt.Fprintf(&b, "block %d (%d B, home p%d): %d misses, %d invals received; %d slots of %d B\n",
			e.Block, e.Bytes, e.Home, e.TotalMisses, e.InvalsRecv, slots, slotBytes)
		for _, a := range e.Accesses {
			wm := ParseMask(a.WriteMask)
			if wm == 0 {
				continue
			}
			fmt.Fprintf(&b, "  p%-3d writes %s  (%d misses)\n", a.Proc, maskSlots(wm, slots), a.Misses)
		}
	}
	if flagged == 0 {
		return "no falsely-shared blocks: no block has disjoint per-writer sub-block offsets\n"
	}
	return fmt.Sprintf("%d falsely-shared block(s): writers touch disjoint sub-block offsets yet invalidate each other\n%s",
		flagged, b.String())
}

// FormatAdvice renders the placement advisor's recommendations: blocks whose
// observed miss traffic would be cheaper under a different home node, and
// blocks whose pattern predicts a different block size.
func FormatAdvice(s *Snapshot) string {
	var b strings.Builder
	rows := 0
	for i := range s.Blocks {
		e := &s.Blocks[i]
		if e.SavingsCycles <= 0 && e.SizeHint == "" {
			continue
		}
		if rows == 0 {
			fmt.Fprintf(&b, "%-7s %6s %-17s %5s %8s %12s  %s\n",
				"block", "bytes", "pattern", "home", "advised", "est.savings", "size-hint")
		}
		rows++
		adv := "keep"
		if e.SavingsCycles > 0 {
			adv = fmt.Sprintf("node%d", e.AdvisedNode)
		}
		hint := e.SizeHint
		if hint == "" {
			hint = "-"
		}
		fmt.Fprintf(&b, "b%-6d %6d %-17s node%-2d %7s %12d  %s\n",
			e.Block, e.Bytes, e.Pattern, e.HomeNode, adv, e.SavingsCycles, hint)
	}
	if rows == 0 {
		return "no placement advice: configured homes already minimize hop-weighted miss cost\n"
	}
	fmt.Fprintf(&b, "%d block(s) with advice; savings are estimated cycles over the block's observed misses\n", rows)
	return b.String()
}
