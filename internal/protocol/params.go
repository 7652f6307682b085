// Package protocol implements the Shasta software distributed shared
// memory protocols on the simulated cluster: the Base-Shasta directory
// protocol (per-processor coherence with message passing between all
// processors) and the SMP-Shasta extension that is the paper's
// contribution, in which the processors of a sharing group keep application
// data, the shared state table and the miss table coherent through the SMP
// hardware, and the race conditions between inline checks and protocol
// downgrades are eliminated with explicit intra-node downgrade messages and
// per-processor private state tables.
package protocol

import (
	"fmt"

	"repro/internal/checks"
	"repro/internal/memchan"
)

// Costs are protocol cycle costs (300 cycles = 1 us), calibrated so the
// simulated latencies match the paper's measurements: ~20 us to fetch a
// 64-byte block from a remote node (two hops) and ~11 us from another
// processor on the same node under Base-Shasta.
type Costs struct {
	// Entry is the cost of entering the protocol on a miss (saving
	// registers and dispatching), part of task time per the paper.
	Entry int64
	// HomeHandler is the occupancy of a request handler at the home
	// (directory lookup and update).
	HomeHandler int64
	// OwnerHandler is the occupancy of a forwarded-request handler at
	// the owner.
	OwnerHandler int64
	// ReplyHandler is the occupancy of a reply handler at the requester
	// (copying data, updating states, waking waiters).
	ReplyHandler int64
	// InvalHandler is the occupancy of an invalidation handler at a
	// sharer.
	InvalHandler int64
	// DowngradeHandler is the occupancy of an intra-node downgrade
	// message handler (SMP-Shasta).
	DowngradeHandler int64
	// SendOverhead is per-message send occupancy at the sender.
	SendOverhead int64
	// LockAcquire and LockRelease are the per-operation costs of the
	// protocol line locks (SMP-Shasta only; Base-Shasta needs none).
	LockAcquire, LockRelease int64
	// LockSpin is the busy-wait step while a line lock is held.
	LockSpin int64
	// PrivateUpgrade is the cost of upgrading a private state table
	// entry when the block is already valid in the group.
	PrivateUpgrade int64
	// MissTableOp is the cost of creating or updating a miss entry.
	MissTableOp int64
	// HWLock and HWBarrierPerProc are the synchronization costs of
	// hardware mode (the ANL-macro comparison runs).
	HWLock, HWBarrierPerProc int64
	// SyncHandler is the occupancy of lock-manager and barrier-manager
	// message handlers.
	SyncHandler int64
}

// DefaultCosts returns costs calibrated to the prototype (see package
// comment).
func DefaultCosts() Costs {
	return Costs{
		Entry:            300, // ~1 us: register save + dispatch
		HomeHandler:      900, // ~3 us
		OwnerHandler:     900,
		ReplyHandler:     900,
		InvalHandler:     600,
		DowngradeHandler: 900,
		SendOverhead:     200,
		LockAcquire:      50, // several per protocol op give the paper's
		LockRelease:      50, // "few us" latency increase on misses
		LockSpin:         30,
		PrivateUpgrade:   60,
		MissTableOp:      80,
		HWLock:           60,
		HWBarrierPerProc: 30,
		SyncHandler:      300,
	}
}

// Config describes one simulated run.
type Config struct {
	// NumProcs is the total processor count (1..16 in the paper).
	NumProcs int
	// ProcsPerNode is the SMP node size (4 on the AlphaServer 4100s).
	ProcsPerNode int
	// NodesPerGroup switches the interconnect to a hierarchical topology:
	// nodes are grouped in clusters of this many under a shared uplink,
	// and messages between node groups pay the uplink latency and
	// bandwidth on top of the node link (see memchan.Topology). 0 or 1
	// keeps the historical flat network. Scale experiments beyond ~16
	// processors use this to model realistic switch hierarchies.
	NodesPerGroup int
	// Clustering is the sharing-group size: 1 reproduces Base-Shasta
	// (each processor runs the protocol privately, though intra-node
	// messages still use the fast shared-memory queues); 2 or 4 runs
	// SMP-Shasta with groups of that size. Must divide ProcsPerNode.
	Clustering int
	// LineSize is the coherence line size in bytes (64 in the paper's
	// experiments).
	LineSize int
	// HeapBytes is the shared heap capacity.
	HeapBytes int64
	// Hardware runs without any software protocol or checks: every
	// access hits, and synchronization uses fast hardware primitives.
	// Used for the paper's ANL-macro efficiency comparison.
	Hardware bool
	// Parallel asks the engine for more than one worker: within a
	// lookahead window (the inter-node wire latency) the processors of
	// different SMP nodes execute concurrently on real goroutines when
	// the host process has a second core to run them on, instead of one
	// node after another. Results — cycles, statistics, traces, metrics
	// — are identical either way; only host wall-clock time changes.
	Parallel bool
	// ForceSMPChecks makes the inline checks use the SMP-Shasta code
	// sequences even when Clustering is 1. The Table 1 checking-overhead
	// experiment measures SMP-Shasta checks on a single processor.
	ForceSMPChecks bool
	// ShareDirectory enables the paper's proposed (Section 3.1, "we plan
	// to exploit") optimization of sharing directory state among the
	// processors of a group: a requester colocated with the home
	// consults and updates the directory directly instead of sending an
	// internal message. Only meaningful with Clustering > 1.
	ShareDirectory bool
	// FastSync enables the paper's planned SMP-aware synchronization: a
	// hierarchical barrier in which group members synchronize through
	// shared memory and only one representative per group exchanges
	// messages with the barrier manager. Only meaningful with
	// Clustering > 1.
	FastSync bool
	// BroadcastDowngrades disables the private-state-table selectivity
	// and sends downgrade messages to every other processor of the group
	// on each downgrade, the behaviour of SoftFLASH's TLB shootdowns
	// (Section 5). Used as an ablation to quantify what the private
	// state tables save.
	BroadcastDowngrades bool
	// Migrate enables online home migration: every home keeps a
	// hop-weighted miss model per block (the same cost model as the
	// offline advisor, internal/obsv adviseHome) and, when another node
	// would serve the observed traffic more cheaply by more than
	// MigrateThreshold cycles, transfers the directory entry to the first
	// processor of that node. In-flight requests addressed to the old
	// home are forwarded along a tombstone; requesters learn the new home
	// from a hint piggybacked on replies. Decisions derive only from
	// virtual-time-ordered handler state, so serial and parallel runs
	// migrate identically. No-op under Hardware; incompatible with
	// ShareDirectory (a group reading the directory in place cannot
	// observe a re-home).
	Migrate bool
	// MigrateInterval is the number of home requests per block between
	// migration evaluations (default 16). Smaller reacts faster but
	// decides on noisier windows.
	MigrateInterval int
	// MigrateThreshold is the minimum estimated saving, in hop-weighted
	// cycles per evaluation window, before a migration triggers (default
	// 600, one local leg). Each completed migration of a block doubles
	// its effective threshold (up to 64x) — hysteresis against ping-pong
	// re-homing of genuinely shared blocks.
	MigrateThreshold int64
	// MaxOutstanding is the per-processor limit on outstanding store
	// misses before the processor stalls (write time).
	MaxOutstanding int
	// Net carries the interconnect parameters.
	Net memchan.Params
	// Costs carries protocol costs.
	Costs Costs
	// CheckCosts carries inline-check costs.
	CheckCosts checks.Costs
}

// WithDefaults fills unset fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.NumProcs == 0 {
		c.NumProcs = 16
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 4
	}
	if c.Clustering == 0 {
		c.Clustering = 1
	}
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 16 << 20
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 4
	}
	if c.MigrateInterval == 0 {
		c.MigrateInterval = 16
	}
	if c.MigrateThreshold == 0 {
		c.MigrateThreshold = 600
	}
	if c.Net == (memchan.Params{}) {
		c.Net = memchan.DefaultParams()
	}
	if c.Costs == (Costs{}) {
		c.Costs = DefaultCosts()
	}
	if c.CheckCosts == (checks.Costs{}) {
		c.CheckCosts = checks.Default()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumProcs <= 0 {
		return fmt.Errorf("protocol: NumProcs %d", c.NumProcs)
	}
	if c.NumProcs > MaxProcs {
		return fmt.Errorf("protocol: NumProcs %d exceeds the %d-processor limit (raise procSetWords)",
			c.NumProcs, MaxProcs)
	}
	if c.Clustering > c.ProcsPerNode {
		return fmt.Errorf("protocol: clustering %d exceeds node size %d",
			c.Clustering, c.ProcsPerNode)
	}
	if c.ProcsPerNode%c.Clustering != 0 {
		return fmt.Errorf("protocol: clustering %d does not divide node size %d",
			c.Clustering, c.ProcsPerNode)
	}
	if c.NumProcs > c.Clustering && c.NumProcs%c.Clustering != 0 {
		return fmt.Errorf("protocol: %d processors not divisible into groups of %d",
			c.NumProcs, c.Clustering)
	}
	if c.LineSize < 8 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("protocol: line size %d is not a power of two of at least 8 bytes", c.LineSize)
	}
	if c.HeapBytes <= 0 || c.HeapBytes%int64(c.LineSize) != 0 {
		return fmt.Errorf("protocol: heap size %d is not a positive multiple of the %d-byte line size",
			c.HeapBytes, c.LineSize)
	}
	if c.Migrate && c.ShareDirectory {
		return fmt.Errorf("protocol: Migrate is incompatible with ShareDirectory" +
			" (in-place directory access cannot observe a re-home)")
	}
	return nil
}

// CheckMode returns the checking mode the configuration implies.
func (c Config) CheckMode() checks.Mode {
	switch {
	case c.Hardware:
		return checks.ModeOff
	case c.Clustering > 1 || c.ForceSMPChecks:
		return checks.ModeSMP
	default:
		return checks.ModeBase
	}
}

// SMP reports whether the run uses the SMP-Shasta protocol.
func (c Config) SMP() bool { return c.Clustering > 1 }
