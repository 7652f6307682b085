package protocol

import (
	"fmt"
	"reflect"

	"repro/internal/memchan"
)

// Calibration holds the constants that make the reproduction quantitative:
// the interconnect's latencies and bandwidths, the protocol's handler
// occupancies and the inline checks' instruction counts. Together they
// yield the paper's ~20 us two-hop remote fetch, ~11 us intra-node fetch
// and Table 1's checking overheads. A caller that varies a constant starts
// from DefaultCalibration and edits it.
type Calibration struct {
	// Net carries the interconnect parameters.
	Net memchan.Params
	// Costs carries protocol costs.
	Costs Costs
	// Checks carries inline-check costs.
	Checks CheckCosts
}

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

// CheckCosts are the cycle counts of Shasta's inline miss checks, mirroring
// the paper's descriptions: the store check of Figure 1 is seven
// instructions; load checks compare the loaded value against the invalid
// flag; SMP-Shasta makes floating-point flag checks atomic by storing the FP
// register to the stack and reloading into an integer register (several
// extra cycles); and SMP-Shasta batch checks must consult the private state
// table instead of using the flag technique, which the paper identifies as
// the largest source of extra checking overhead.
//
// Polling for messages costs three instructions on a Memory Channel
// cluster; the simulator charges it at every access-level poll point, the
// analogue of Shasta's loop-backedge polling.
type CheckCosts struct {
	// LoadFlag is an integer load's flag-comparison check.
	LoadFlag int64
	// LoadFlagFPBase is a floating-point load's flag check in
	// Base-Shasta (an extra integer load of the same address).
	LoadFlagFPBase int64
	// LoadFlagFPSMP is the atomic SMP-Shasta FP flag check (store the FP
	// value to the stack, reload as integer, compare).
	LoadFlagFPSMP int64
	// Store is the seven-instruction state-table store check.
	Store int64
	// BatchFlagPerLine is a flag-based batch check per line per base
	// register (load-only batches in Base-Shasta).
	BatchFlagPerLine int64
	// BatchStatePerLine is a state-table batch check per line per base
	// register (all SMP-Shasta batches, and Base-Shasta batches with
	// stores).
	BatchStatePerLine int64
	// Poll is the cost of one message poll (three instructions).
	Poll int64
}

// DefaultCalibration returns the constants of the paper's prototype: the
// Memory Channel of memchan.DefaultParams, handler occupancies tuned to the
// measured fetch latencies, and check costs from the Alpha 21164 code
// sequences.
func DefaultCalibration() Calibration {
	return Calibration{
		Net: memchan.DefaultParams(),
		Costs: Costs{
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
		},
		Checks: CheckCosts{
			LoadFlag:          2,
			LoadFlagFPBase:    3,
			LoadFlagFPSMP:     9,
			Store:             7,
			BatchFlagPerLine:  3,
			BatchStatePerLine: 7,
			Poll:              3,
		},
	}
}

// Validate reports a calibration no run can use. Wire latencies and link
// bandwidths must be positive: a zero RemoteWire is a zero engine lookahead,
// and a zero bandwidth drops all transfer time. Everything else — header
// bytes, the uplink figures (whose zero means no extra latency or no limit)
// and every cost — must be non-negative.
func (c Calibration) Validate() error {
	// Every field of the three parts is an integer constant.
	cv := reflect.ValueOf(c)
	for i := 0; i < cv.NumField(); i++ {
		part := cv.Field(i)
		for j := 0; j < part.NumField(); j++ {
			if x := part.Field(j).Int(); x < 0 {
				return fmt.Errorf("protocol: calibration %s.%s is negative (%d)",
					cv.Type().Field(i).Name, part.Type().Field(j).Name, x)
			}
		}
	}
	if n := c.Net; n.RemoteWire == 0 || n.LocalWire == 0 ||
		n.RemoteBytesPerKCycle == 0 || n.LocalBytesPerKCycle == 0 {
		return fmt.Errorf("protocol: calibration Net %+v: wire latencies and link bandwidths must be positive", n)
	}
	return nil
}

// checkTable is the inline-check cost of each access kind under the run's
// checking code, resolved once per run so an access pays one table read.
// The pairs are indexed by variant: load by fp, batchLine (per line and
// base register) by loadOnly.
type checkTable struct {
	load      [2]int64
	store     int64
	batchLine [2]int64
	poll      int64
}

// variant indexes a checkTable pair: 1 for the fp or loadOnly variant.
func variant(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkTable resolves the check costs the configuration implies: none under
// Hardware; the SMP-Shasta sequences (atomic FP flag checks, state-table
// batch checks) under clustering or ForceSMPChecks; Base-Shasta's otherwise.
func (c Config) checkTable() checkTable {
	k := c.Cal.Checks
	switch {
	case c.Hardware:
		return checkTable{}
	case c.Clustering > 1 || c.ForceSMPChecks:
		return checkTable{load: [2]int64{k.LoadFlag, k.LoadFlagFPSMP}, store: k.Store,
			batchLine: [2]int64{k.BatchStatePerLine, k.BatchStatePerLine}, poll: k.Poll}
	default:
		return checkTable{load: [2]int64{k.LoadFlag, k.LoadFlagFPBase}, store: k.Store,
			batchLine: [2]int64{k.BatchStatePerLine, k.BatchFlagPerLine}, poll: k.Poll}
	}
}
