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

	"repro/internal/memchan"
)

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
	// Cal carries the interconnect, protocol and inline-check constants; the
	// zero value selects DefaultCalibration.
	Cal Calibration
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
	if c.Cal == (Calibration{}) {
		c.Cal = DefaultCalibration()
	}
	return c
}

// Validate reports configuration errors: it is the one gate, so a config it
// accepts builds a System and runs.
func (c Config) Validate() error {
	if c.NumProcs <= 0 {
		return fmt.Errorf("protocol: NumProcs %d", c.NumProcs)
	}
	if c.NumProcs > MaxProcs {
		return fmt.Errorf("protocol: NumProcs %d exceeds the %d-processor limit (raise procSetWords)",
			c.NumProcs, MaxProcs)
	}
	if err := c.topology().Validate(); err != nil {
		return err
	}
	if err := c.Cal.Validate(); err != nil {
		return err
	}
	// WithDefaults replaces a zero, so only a negative value reaches here.
	if c.Clustering < 1 || c.MaxOutstanding < 1 || c.MigrateInterval < 1 || c.MigrateThreshold < 1 {
		return fmt.Errorf("protocol: Clustering %d, MaxOutstanding %d, MigrateInterval %d and "+
			"MigrateThreshold %d must all be positive",
			c.Clustering, c.MaxOutstanding, c.MigrateInterval, c.MigrateThreshold)
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

// topology is the interconnect's view of the configuration: a run with fewer
// processors than a node fills one partial node.
func (c Config) topology() memchan.Topology {
	t := memchan.Topology{NumProcs: c.NumProcs, ProcsPerNode: c.ProcsPerNode,
		NodesPerGroup: c.NodesPerGroup}
	if c.NumProcs < c.ProcsPerNode {
		t.ProcsPerNode = c.NumProcs
	}
	return t
}

// SMP reports whether the run uses the SMP-Shasta protocol.
func (c Config) SMP() bool { return c.Clustering > 1 }
