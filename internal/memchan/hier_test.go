package memchan

// Tests for the hierarchical interconnect: node-group mapping, uplink
// latency and bandwidth, and flat-topology equivalence.

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestHierarchicalTopologyMapping(t *testing.T) {
	topo := Topology{NumProcs: 32, ProcsPerNode: 4, NodesPerGroup: 4}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if !topo.Hierarchical() {
		t.Fatal("8 nodes in groups of 4 should be hierarchical")
	}
	if got := topo.NumNodeGroups(); got != 2 {
		t.Fatalf("NumNodeGroups = %d, want 2", got)
	}
	if topo.NodeGroupOf(0) != 0 || topo.NodeGroupOf(15) != 0 ||
		topo.NodeGroupOf(16) != 1 || topo.NodeGroupOf(31) != 1 {
		t.Fatal("NodeGroupOf mapping wrong")
	}
	if !topo.SameNodeGroup(0, 15) || topo.SameNodeGroup(15, 16) {
		t.Fatal("SameNodeGroup wrong")
	}

	// One group of all nodes is not a hierarchy, nor is a flat spec.
	if (Topology{NumProcs: 16, ProcsPerNode: 4, NodesPerGroup: 4}).Hierarchical() {
		t.Fatal("single-group topology should not be hierarchical")
	}
	if (Topology{NumProcs: 32, ProcsPerNode: 4}).Hierarchical() {
		t.Fatal("flat topology should not be hierarchical")
	}
}

func TestHierarchicalTopologyValidate(t *testing.T) {
	// 6 nodes do not divide into groups of 4.
	bad := Topology{NumProcs: 24, ProcsPerNode: 4, NodesPerGroup: 4}
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible node-group arrangement accepted")
	}
}

// sendArrival runs one send from src to dst and returns the arrival time.
func sendArrival(t *testing.T, topo Topology, par Params, src, dst, size int) int64 {
	t.Helper()
	nw := New(topo, par)
	e := sim.NewEngine(topo.NumProcs)
	var at int64
	e.Run(func(p *sim.Proc) {
		switch p.ID {
		case src:
			nw.Send(p, dst, size, "x")
		case dst:
			p.WaitRecv(stats.Read, "t")
			at = p.Now()
		}
	})
	return at
}

// TestUplinkAddsLatency sends the same message across nodes within one
// group and across groups: the cross-group message pays the uplink wire
// time on top of the node-to-node time.
func TestUplinkAddsLatency(t *testing.T) {
	topo := Topology{NumProcs: 32, ProcsPerNode: 4, NodesPerGroup: 4}
	par := DefaultParams()
	intra := sendArrival(t, topo, par, 0, 4, 64)  // node 0 -> node 1, same group
	inter := sendArrival(t, topo, par, 0, 16, 64) // node 0 -> node 4, other group
	if got, want := inter-intra, par.UplinkWire; got != want {
		t.Fatalf("cross-group latency premium = %d cycles, want UplinkWire = %d", got, want)
	}
}

// TestUplinkBandwidthShare caps cross-group transfers at the per-node
// share of the uplink: with the uplink provisioned below the sum of the
// node links, a large cross-group payload streams at
// UplinkBytesPerKCycle/NodesPerGroup instead of the node link rate.
func TestUplinkBandwidthShare(t *testing.T) {
	topo := Topology{NumProcs: 32, ProcsPerNode: 4, NodesPerGroup: 4}
	par := DefaultParams()
	par.UplinkBytesPerKCycle = 400 // share = 100 B/kcycle < node link 117
	const size = 4096
	intra := sendArrival(t, topo, par, 0, 4, size)
	inter := sendArrival(t, topo, par, 0, 16, size)
	wantIntra := transferCycles(size+par.HeaderBytes, par.RemoteBytesPerKCycle) + par.RemoteWire
	wantInter := transferCycles(size+par.HeaderBytes, 100) + par.RemoteWire + par.UplinkWire
	if intra != wantIntra {
		t.Fatalf("intra-group arrival %d, want %d", intra, wantIntra)
	}
	if inter != wantInter {
		t.Fatalf("cross-group arrival %d, want %d", inter, wantInter)
	}
}

// TestFlatUnchangedByUplinkParams checks a non-hierarchical topology
// ignores the uplink knobs entirely: arrival times match the defaults even
// with aggressive uplink settings.
func TestFlatUnchangedByUplinkParams(t *testing.T) {
	topo := Topology{NumProcs: 8, ProcsPerNode: 4}
	par := DefaultParams()
	base := sendArrival(t, topo, par, 0, 4, 1024)
	par.UplinkWire = 99999
	par.UplinkBytesPerKCycle = 1
	got := sendArrival(t, topo, par, 0, 4, 1024)
	if got != base {
		t.Fatalf("flat topology affected by uplink params: %d vs %d", got, base)
	}
}
