// Package shasta is a library-level reproduction of the Shasta fine-grain
// software distributed shared memory system and its SMP-cluster extension,
// from "Fine-Grain Software Distributed Shared Memory on SMP Clusters"
// (Scales, Gharachorloo, Aggarwal; WRL 97/3, HPCA 1998).
//
// Shasta supports a shared address space across cluster nodes entirely in
// software, at a fine (and per-data-structure variable) coherence
// granularity, by inserting state checks before loads and stores.
// SMP-Shasta — the paper's contribution — lets the processors of one SMP
// node share application data and protocol state through the hardware
// cache coherence, eliminating software protocol intervention for
// intra-node sharing while avoiding the race conditions between the
// non-atomic inline checks and protocol downgrades. It does so without
// putting any synchronization in the inline checks, using explicit
// intra-node downgrade messages delivered by polling, per-block protocol
// locking, and per-processor private state tables that make downgrades
// selective.
//
// Because a managed runtime cannot instrument its own loads and stores,
// this package runs programs on a deterministic discrete-event cluster
// simulator calibrated to the paper's prototype (four 4-processor
// 300 MHz AlphaServer 4100s on a Memory Channel network). Programs access
// shared memory through explicit Load/Store/Batch operations that perform
// exactly the checks Shasta's inline code performs and charge their
// documented costs to virtual 300 MHz clocks. Protocol behaviour — misses,
// message traffic, downgrades, stall time breakdowns — is reproduced
// faithfully and deterministically.
//
// # Quick start
//
//	cluster, err := shasta.NewCluster(shasta.Config{Procs: 8, Clustering: 4})
//	if err != nil { ... }
//	arr := cluster.Alloc(1024, 64) // 1 KiB of shared data, 64-byte blocks
//	result := cluster.Run(func(p *shasta.Proc) {
//	    p.StoreF64(arr+shasta.Addr(p.ID()*8), float64(p.ID()))
//	    p.Barrier()
//	    sum := 0.0
//	    for i := 0; i < p.NumProcs(); i++ {
//	        sum += p.LoadF64(arr + shasta.Addr(i*8))
//	    }
//	    _ = sum
//	})
//	fmt.Println(result.Stats.Summary())
package shasta

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/obsv"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Addr is a virtual address in the shared heap.
type Addr = memory.Addr

// Proc is a processor context. Application code receives one per processor
// from Cluster.Run and uses it for all shared-memory accesses,
// synchronization and (virtual) computation. See the methods of
// protocol.Proc: LoadF64/LoadU64/LoadU32, StoreF64/StoreU64/StoreU32,
// Batch, LockAcquire/LockRelease, Barrier, Compute, Poll, ResetStats.
type Proc = protocol.Proc

// Batch is the unchecked access context passed to batched code sequences.
type Batch = protocol.Batch

// BatchRef describes one base address range of a batched access sequence.
type BatchRef = protocol.BatchRef

// Stats aggregates the statistics of a run: misses by type and hop count,
// message counts by class, downgrade distributions and execution time
// breakdowns.
type Stats = stats.Run

// Tracer receives protocol-level events (requests, forwards, downgrade
// messages, replies) when attached to a cluster with Cluster.SetTracer —
// a filtered single-block trace reads like the protocol walkthroughs in
// the paper. See TracerFunc, WriterTracer and CollectorTracer.
type Tracer = protocol.Tracer

// TraceEvent is one traced protocol event.
type TraceEvent = protocol.TraceEvent

// TraceFields is the typed detail embedded in every TraceEvent.
type TraceFields = protocol.TraceFields

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = protocol.TracerFunc

// WriterTracer streams formatted trace lines to an io.Writer, optionally
// filtered by block.
type WriterTracer = protocol.WriterTracer

// CollectorTracer records trace events in memory.
type CollectorTracer = protocol.CollectorTracer

// TraceSchemaVersion is the version of the JSONL trace schema (see
// OBSERVABILITY.md).
const TraceSchemaVersion = protocol.TraceSchemaVersion

// JSONLSink streams trace events to JSONL trace files with buffering and
// optional rotation; build one with NewTraceSink and attach it with
// Cluster.SetTracer.
type JSONLSink = obsv.JSONLSink

// SinkOptions configure a JSONLSink (rotation threshold, buffer size).
type SinkOptions = obsv.SinkOptions

// TraceFilter forwards only matching events (by processor, op, block range)
// to another tracer, optionally sampling 1-in-N.
type TraceFilter = obsv.Filter

// BlockRange is an inclusive block range for TraceFilter.
type BlockRange = obsv.BlockRange

// Metrics is a frozen counter snapshot of a run (see Cluster.Metrics).
type Metrics = obsv.Snapshot

// NewTraceSink opens a JSONL trace sink writing to path.
func NewTraceSink(path string, opts SinkOptions) (*JSONLSink, error) {
	return obsv.NewJSONLSink(path, opts)
}

// FlagWord is the invalid-flag bit pattern Shasta stores into invalidated
// lines; application data that equals it triggers (correctly handled)
// false misses.
const FlagWord = memory.FlagWord

// Statistics classification constants, re-exported for report code.
const (
	// Message classes (Stats.MessagesBy).
	RemoteMsg    = stats.RemoteMsg
	LocalMsg     = stats.LocalMsg
	DowngradeMsg = stats.DowngradeMsg

	// Miss kinds (Stats.MissesBy).
	ReadMiss    = stats.ReadMiss
	WriteMiss   = stats.WriteMiss
	UpgradeMiss = stats.UpgradeMiss

	// Execution-time breakdown categories (per-processor TimeBy).
	TaskTime    = stats.Task
	ReadTime    = stats.Read
	WriteTime   = stats.Write
	SyncTime    = stats.Sync
	MessageTime = stats.Message
	OtherTime   = stats.Other
)

// Config selects the cluster arrangement and protocol variant.
type Config struct {
	// Procs is the number of processors (the paper uses 1..16).
	Procs int
	// ProcsPerNode is the SMP node size; defaults to 4 (AlphaServer 4100).
	ProcsPerNode int
	// NodesPerGroup switches the interconnect to a hierarchical topology:
	// SMP nodes are clustered in groups of this many under a shared
	// uplink, and messages between node groups pay extra latency and are
	// limited to a per-node share of the uplink bandwidth. 0 or 1 keeps
	// the paper's flat network. Used by the 64-256 processor scale
	// configurations; see PERFORMANCE.md.
	NodesPerGroup int
	// Clustering is the sharing-group size: 1 selects the Base-Shasta
	// protocol (message passing between all processors, but intra-node
	// messages still use fast shared-memory queues); 2 or 4 selects
	// SMP-Shasta with groups of that size. Defaults to 1.
	Clustering int
	// LineSize is the coherence line size in bytes; defaults to 64.
	LineSize int
	// HeapBytes is the shared heap capacity; defaults to 16 MiB. It is a
	// limit, not a cost: every sharing group holds its own image of the
	// heap, but images and state tables are built when Run starts and cover
	// only the pages the program allocated. Raise it when an Alloc reports
	// the heap exhausted.
	HeapBytes int64
	// Hardware disables the software protocol and checks entirely,
	// modelling hardware-coherent execution within one SMP (the paper's
	// ANL-macro comparison baseline).
	Hardware bool
	// MaxOutstanding bounds per-processor outstanding store misses;
	// defaults to 4.
	MaxOutstanding int
	// ForceSMPChecks applies the (costlier) SMP-Shasta inline check code
	// even with Clustering 1; the Table 1 checking-overhead experiment
	// measures SMP checks on one processor.
	ForceSMPChecks bool
	// ShareDirectory lets a requester colocated with a block's home
	// access the directory directly through the SMP shared memory,
	// avoiding the internal request message — one of the paper's
	// proposed extensions (Section 3.1).
	ShareDirectory bool
	// FastSync uses a hierarchical barrier that synchronizes group
	// members through shared memory, with one message-exchanging
	// representative per group — the paper's planned SMP-aware
	// synchronization primitives.
	FastSync bool
	// BroadcastDowngrades sends downgrade messages to every group member
	// on each downgrade instead of only to processors whose private
	// state tables show they accessed the block — the SoftFLASH TLB
	// shootdown behaviour, as an ablation of the private state tables.
	BroadcastDowngrades bool
	// Migrate enables online home migration: each block's home maintains
	// an incremental hop-weighted miss model (the same cost model as the
	// offline placement advisor, see OBSERVABILITY.md §11) and hands the
	// block's directory entry to a better-placed processor when the
	// modelled savings exceed a threshold with hysteresis. Results remain
	// deterministic and serial/parallel bit-identical. Incompatible with
	// ShareDirectory.
	Migrate bool
	// MigrateInterval is the number of home requests per block between
	// migration evaluations; 0 selects the protocol default (16). Lower
	// values react faster to placement skew at the price of more frequent
	// model evaluations.
	MigrateInterval int
	// MigrateThreshold is the minimum modelled per-write saving, in
	// hop-weighted cycles, required to trigger a hand-off; 0 selects the
	// protocol default (600, one node-local leg). Each completed migration
	// of a block doubles its effective threshold (hysteresis).
	MigrateThreshold int64
	// Parallel asks the simulation engine for more than one worker: the
	// processors of different SMP nodes execute concurrently on real cores
	// (when the host process has more than one) instead of one node after
	// another. Every result — cycles, statistics, traces, metrics — is
	// identical either way; only host wall-clock time changes.
	Parallel bool
}

// Cluster is a configured simulated cluster. Allocate shared data and
// application locks, then call Run exactly once; an Alloc call after Run
// has started panics, because the heap images are sized to the allocated
// heap at that point.
type Cluster struct {
	sys *protocol.System
}

// Result reports a completed run.
type Result struct {
	// FinishCycles is the final virtual time (cycles at 300 MHz).
	FinishCycles int64
	// ParallelCycles is the virtual time of the measured phase (from the
	// last Proc.ResetStats call, or the whole run).
	ParallelCycles int64
	// Stats holds the full protocol statistics of the measured phase.
	Stats *Stats
}

// ParallelSeconds converts the measured phase to virtual seconds.
func (r Result) ParallelSeconds() float64 {
	return float64(r.ParallelCycles) / (300 * 1e6)
}

// NewCluster validates the configuration and builds a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	pcfg := protocol.Config{
		NumProcs:            cfg.Procs,
		ProcsPerNode:        cfg.ProcsPerNode,
		NodesPerGroup:       cfg.NodesPerGroup,
		Clustering:          cfg.Clustering,
		LineSize:            cfg.LineSize,
		HeapBytes:           cfg.HeapBytes,
		Hardware:            cfg.Hardware,
		MaxOutstanding:      cfg.MaxOutstanding,
		ForceSMPChecks:      cfg.ForceSMPChecks,
		ShareDirectory:      cfg.ShareDirectory,
		FastSync:            cfg.FastSync,
		BroadcastDowngrades: cfg.BroadcastDowngrades,
		Migrate:             cfg.Migrate,
		MigrateInterval:     cfg.MigrateInterval,
		MigrateThreshold:    cfg.MigrateThreshold,
		Parallel:            cfg.Parallel,
	}.WithDefaults()
	if err := pcfg.Validate(); err != nil {
		return nil, fmt.Errorf("shasta: %w", err)
	}
	return &Cluster{sys: protocol.New(pcfg)}, nil
}

// MustCluster is NewCluster for static configurations; it panics on error.
func MustCluster(cfg Config) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Alloc reserves shared memory kept coherent in blocks of blockSize bytes.
// blockSize 0 selects Shasta's default policy: objects under 1 KiB become a
// single block, larger objects use line-sized blocks. Passing an explicit
// blockSize is the paper's variable-granularity hint (a parameter to a
// modified malloc).
func (c *Cluster) Alloc(size int64, blockSize int) Addr {
	return c.sys.Alloc(size, blockSize)
}

// AllocPlaced is Alloc with every page homed at the given processor (the
// home placement optimization).
func (c *Cluster) AllocPlaced(size int64, blockSize, home int) Addr {
	return c.sys.AllocPlaced(size, blockSize, home)
}

// AllocHomed is Alloc with homes chosen per page by the callback, which
// receives the page-aligned byte offset from the start of the allocation.
func (c *Cluster) AllocHomed(size int64, blockSize int, home func(off int64) int) Addr {
	return c.sys.AllocHomed(size, blockSize, home)
}

// AllocPinned is Alloc with every block pinned to its configured home:
// online home migration (Config.Migrate) never moves it. Use for data whose
// placement the application already optimized by hand.
func (c *Cluster) AllocPinned(size int64, blockSize int) Addr {
	return c.sys.AllocPinned(size, blockSize)
}

// AllocLock creates an application lock and returns its identifier.
func (c *Cluster) AllocLock() int { return c.sys.AllocLock() }

// Procs returns the configured processor count.
func (c *Cluster) Procs() int { return c.sys.NumProcs() }

// Run executes body on every processor to completion and returns the
// measured result. Call at most once per Cluster.
func (c *Cluster) Run(body func(*Proc)) Result {
	finish := c.sys.Run(body)
	return Result{
		FinishCycles:   finish,
		ParallelCycles: c.sys.Stats().Cycles,
		Stats:          c.sys.Stats(),
	}
}

// Stats exposes the cluster's statistics (valid after Run).
func (c *Cluster) Stats() *Stats { return c.sys.Stats() }

// SetTracer attaches a protocol tracer (nil detaches); call before Run.
func (c *Cluster) SetTracer(tr Tracer) { c.sys.SetTracer(tr) }

// Metrics freezes the cluster's counters — protocol statistics, interconnect
// queueing, handler occupancy, lock hold times — into a snapshot that
// serializes to the deterministic shasta-metrics JSON document (see
// OBSERVABILITY.md). Call after Run.
func (c *Cluster) Metrics() *Metrics { return obsv.Snap(c.sys) }
