// Package memchan models the cluster interconnect of the paper's prototype:
// four AlphaServer 4100 nodes connected by Digital's Memory Channel, plus
// the cache-coherent shared-memory message queues used between processors
// on the same node.
//
// The model reproduces the paper's measured characteristics:
//
//   - one-way user-to-user latency over the Memory Channel of about 4 us;
//   - about 35 MB/s of effective Memory Channel bandwidth for block data,
//     with the processors of a node sharing their node's link (the paper
//     keeps per-processor bandwidth identical between Base-Shasta and
//     SMP-Shasta this way);
//   - much cheaper intra-node messages through per-pair shared-memory
//     queues that need no locking.
//
// Combined with the handler occupancies of protocol.Calibration, the model
// yields the paper's ~20 us two-hop remote fetch and ~11 us intra-node
// fetch of a 64-byte block.
//
// Beyond the paper's flat four-node network, the model scales to
// hierarchical topologies: nodes are clustered into node groups connected
// by shared uplinks (Topology.NodesPerGroup), messages crossing a group
// boundary pay extra first-byte latency (Params.UplinkWire) and are limited
// to a per-node share of the uplink bandwidth
// (Params.UplinkBytesPerKCycle). All link state stays owned by the sending
// node's processors, so the hierarchy adds no cross-domain coupling and the
// engine's determinism across worker counts is preserved.
package memchan

import (
	"fmt"

	"repro/internal/sim"
)

// Topology maps processors onto physical SMP nodes, and optionally nodes
// onto node groups sharing an uplink (hierarchical networks).
type Topology struct {
	// NumProcs is the total number of processors.
	NumProcs int
	// ProcsPerNode is the number of processors per SMP node (4 for the
	// AlphaServer 4100s of the prototype).
	ProcsPerNode int
	// NodesPerGroup clusters nodes under shared uplinks: messages between
	// processors in different node groups traverse an uplink on top of
	// the sender node's link. 0 or 1 means a flat network — every
	// inter-node message behaves exactly as in the original model.
	NodesPerGroup int
}

// Validate checks the topology is well formed.
func (t Topology) Validate() error {
	if t.NumProcs <= 0 || t.ProcsPerNode <= 0 {
		return fmt.Errorf("memchan: non-positive topology %+v", t)
	}
	if t.NumProcs%t.ProcsPerNode != 0 && t.NumProcs > t.ProcsPerNode {
		return fmt.Errorf("memchan: %d processors not divisible into nodes of %d",
			t.NumProcs, t.ProcsPerNode)
	}
	if t.NodesPerGroup < 0 {
		return fmt.Errorf("memchan: negative NodesPerGroup %d", t.NodesPerGroup)
	}
	if t.NodesPerGroup > 1 {
		if n := t.NumNodes(); n%t.NodesPerGroup != 0 && n > t.NodesPerGroup {
			return fmt.Errorf("memchan: %d nodes not divisible into groups of %d",
				n, t.NodesPerGroup)
		}
	}
	return nil
}

// NumNodes returns the number of SMP nodes.
func (t Topology) NumNodes() int {
	n := (t.NumProcs + t.ProcsPerNode - 1) / t.ProcsPerNode
	if n == 0 {
		n = 1
	}
	return n
}

// Hierarchical reports whether the topology has more than one node group.
func (t Topology) Hierarchical() bool {
	return t.NodesPerGroup > 1 && t.NumNodes() > t.NodesPerGroup
}

// NumNodeGroups returns the number of uplink groups (1 for flat networks).
func (t Topology) NumNodeGroups() int {
	if t.NodesPerGroup <= 1 {
		return 1
	}
	g := (t.NumNodes() + t.NodesPerGroup - 1) / t.NodesPerGroup
	if g == 0 {
		g = 1
	}
	return g
}

// NodeOf returns the node index hosting processor p.
func (t Topology) NodeOf(p int) int { return p / t.ProcsPerNode }

// NodeGroupOf returns the uplink group of processor p (0 for flat
// networks).
func (t Topology) NodeGroupOf(p int) int {
	if t.NodesPerGroup <= 1 {
		return 0
	}
	return t.NodeOf(p) / t.NodesPerGroup
}

// SameNode reports whether two processors share a physical node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// SameNodeGroup reports whether two processors share an uplink group.
func (t Topology) SameNodeGroup(a, b int) bool {
	return t.NodeGroupOf(a) == t.NodeGroupOf(b)
}

// Params are the timing parameters of the interconnect, in cycles of the
// 300 MHz processor clock (300 cycles = 1 us).
type Params struct {
	// RemoteWire is the one-way Memory Channel latency for the first
	// byte of a message (the paper's ~4 us).
	RemoteWire int64
	// RemoteBytesPerKCycle is Memory Channel data bandwidth in bytes per
	// 1000 cycles. 35 MB/s at 300 MHz is 35/300*1000 = ~117 bytes per
	// thousand cycles.
	RemoteBytesPerKCycle int64
	// LocalWire is the one-way latency of an intra-node shared-memory
	// queue message.
	LocalWire int64
	// LocalBytesPerKCycle is intra-node data bandwidth (the paper's
	// ~45 MB/s fetch bandwidth, i.e. 150 bytes per thousand cycles).
	LocalBytesPerKCycle int64
	// HeaderBytes is added to every message's payload size for
	// transfer-time purposes.
	HeaderBytes int
	// UplinkWire is the extra one-way first-byte latency a message pays
	// when it crosses a node-group boundary in a hierarchical topology
	// (added on top of RemoteWire). Ignored on flat topologies; 0 makes
	// group crossings latency-free.
	UplinkWire int64
	// UplinkBytesPerKCycle is the total bandwidth of one shared uplink.
	// It is divided statically among the nodes of the group (each node
	// gets an equal share, minimum 1 byte/kcycle), which keeps all link
	// state owned by the sending node — deterministic under the parallel
	// scheduler. A cross-group message serializes at the lesser of its
	// node-link rate and its node's uplink share. 0 means the uplink
	// imposes no bandwidth limit.
	UplinkBytesPerKCycle int64
}

// DefaultParams returns parameters calibrated to the paper's prototype,
// with uplink figures for hierarchical runs: crossing a group boundary
// doubles the first-byte latency (a second switch traversal), and one
// uplink carries 8x a node link's bandwidth, shared by the group's nodes.
func DefaultParams() Params {
	return Params{
		RemoteWire:           1200, // 4 us
		RemoteBytesPerKCycle: 117,  // ~35 MB/s
		LocalWire:            150,  // 0.5 us
		LocalBytesPerKCycle:  450,  // ~135 MB/s within an SMP
		HeaderBytes:          16,
		UplinkWire:           1200, // second hop: another 4 us
		UplinkBytesPerKCycle: 936,  // 8 node links' worth per uplink
	}
}

// Network computes message latencies and models per-node Memory Channel
// link occupancy. It is used from inside simulator processor contexts.
// With engine workers (sim.Engine.Parallel), processors of different nodes
// may call Send concurrently: all mutable state — link occupancy and
// diagnostic counters — is sharded per node and only ever touched by the
// owning node's processors (one conflict domain), so no synchronization is
// needed and the reported values match a one-worker run's exactly.
type Network struct {
	topo Topology
	par  Params
	// uplinkShare is each node's static slice of its group uplink's
	// bandwidth (0 when the uplink imposes no limit).
	uplinkShare int64
	// linkFree[n] is the earliest cycle node n's outgoing link is free.
	// Accessed only by node n's processors.
	linkFree []int64
	// Diagnostic counters, all sharded per sending node and accessed only
	// by that node's processors; accessors aggregate across nodes, which
	// is order-independent.
	remoteSends []int64
	localSends  []int64
	remoteBytes []int64
	linkBusy    []int64
	linkWait    []int64
	maxBacklog  []int64
}

// New builds a network for the topology. It panics on an invalid topology,
// which is a programming error of the embedding configuration code.
func New(topo Topology, par Params) *Network {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	nodes := topo.NumNodes()
	n := &Network{
		topo:        topo,
		par:         par,
		linkFree:    make([]int64, nodes),
		remoteSends: make([]int64, nodes),
		localSends:  make([]int64, nodes),
		remoteBytes: make([]int64, nodes),
		linkBusy:    make([]int64, nodes),
		linkWait:    make([]int64, nodes),
		maxBacklog:  make([]int64, nodes),
	}
	if topo.Hierarchical() && par.UplinkBytesPerKCycle > 0 {
		share := par.UplinkBytesPerKCycle / int64(topo.NodesPerGroup)
		if share < 1 {
			share = 1
		}
		n.uplinkShare = share
	}
	return n
}

// Topology returns the network's processor-to-node mapping.
func (n *Network) Topology() Topology { return n.topo }

// SameNode reports whether two processors share a physical node.
func (n *Network) SameNode(a, b int) bool { return n.topo.SameNode(a, b) }

// transferCycles returns the serialization time for a payload.
func transferCycles(bytes int, bytesPerKCycle int64) int64 {
	if bytes <= 0 || bytesPerKCycle <= 0 {
		return 0
	}
	return (int64(bytes)*1000 + bytesPerKCycle - 1) / bytesPerKCycle
}

// SendInfo decomposes one message's delivery time. The components telescope
// exactly: Arrival = send time + Queue + Transfer + Wire. The span layer
// (internal/obsv) records these components in the trace so per-request
// latency can be attributed to link queueing vs transit vs handler waits.
type SendInfo struct {
	// Arrival is the absolute cycle the message reaches the destination's
	// inbox.
	Arrival int64
	// Queue is the time spent waiting behind earlier messages for the
	// sender node's link to free (always 0 for intra-node messages).
	Queue int64
	// Transfer is the serialization time of the message's bytes.
	Transfer int64
	// Wire is the first-byte latency, including the uplink crossing when
	// the message leaves its node group.
	Wire int64
	// Local marks an intra-node shared-memory queue message.
	Local bool
	// Uplink marks a message that crossed a node-group boundary.
	Uplink bool
}

// Send transmits payload of the given size from processor p to dst,
// computing arrival time from the topology: intra-node messages use the
// shared-memory queues; inter-node messages use (and occupy) the sender
// node's Memory Channel link; cross-group messages additionally pay
// the uplink latency and are throttled to the node's uplink share. The
// returned SendInfo reports how the delivery time decomposes.
func (n *Network) Send(p *sim.Proc, dst int, payloadBytes int, payload any) SendInfo {
	size := payloadBytes + n.par.HeaderBytes
	if n.topo.SameNode(p.ID, dst) {
		n.localSends[n.topo.NodeOf(p.ID)]++
		transfer := transferCycles(size, n.par.LocalBytesPerKCycle)
		lat := n.par.LocalWire + transfer
		p.Send(dst, lat, payload)
		return SendInfo{Arrival: p.Now() + lat, Transfer: transfer,
			Wire: n.par.LocalWire, Local: true}
	}
	node := n.topo.NodeOf(p.ID)
	n.remoteSends[node]++
	n.remoteBytes[node] += int64(size)
	wire := n.par.RemoteWire
	rate := n.par.RemoteBytesPerKCycle
	uplink := false
	if !n.topo.SameNodeGroup(p.ID, dst) {
		uplink = true
		wire += n.par.UplinkWire
		if n.uplinkShare > 0 && n.uplinkShare < rate {
			rate = n.uplinkShare
		}
	}
	transfer := transferCycles(size, rate)
	now := p.Now()
	start := now
	if n.linkFree[node] > start {
		wait := n.linkFree[node] - start
		n.linkWait[node] += wait
		if wait > n.maxBacklog[node] {
			n.maxBacklog[node] = wait
		}
		start = n.linkFree[node]
	}
	n.linkBusy[node] += transfer
	n.linkFree[node] = start + transfer
	p.SendAt(dst, start+transfer+wire, payload)
	return SendInfo{Arrival: start + transfer + wire, Queue: start - now,
		Transfer: transfer, Wire: wire, Uplink: uplink}
}

// sum adds up a per-node counter shard.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// RemoteSends returns the number of inter-node messages sent so far.
func (n *Network) RemoteSends() int64 { return sum(n.remoteSends) }

// LocalSends returns the number of intra-node messages sent so far.
func (n *Network) LocalSends() int64 { return sum(n.localSends) }

// RemoteBytes returns total bytes (including headers) pushed over the
// Memory Channel.
func (n *Network) RemoteBytes() int64 { return sum(n.remoteBytes) }

// LinkBusy returns, per node, the cycles its Memory Channel link spent
// serializing outgoing data.
func (n *Network) LinkBusy() []int64 {
	return append([]int64(nil), n.linkBusy...)
}

// LinkWait returns the total cycles messages spent queued behind a busy
// Memory Channel link.
func (n *Network) LinkWait() int64 { return sum(n.linkWait) }

// MaxLinkBacklog returns the largest single wait a message incurred behind
// a busy link, in cycles — the deepest any node's send queue got.
func (n *Network) MaxLinkBacklog() int64 {
	var m int64
	for _, x := range n.maxBacklog {
		if x > m {
			m = x
		}
	}
	return m
}
