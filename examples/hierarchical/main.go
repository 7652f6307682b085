// Hierarchical: a 64-processor run on a two-level interconnect, showing
// the topology knobs that scale the simulator beyond the paper's 16
// processors.
//
// # Topology specification
//
// A cluster's shape is given by three Config fields (the shastabench
// -topology flag spells the last two as "NxG", e.g. "4x4"):
//
//	Procs         total processors                  (here 64)
//	ProcsPerNode  processors per SMP node, default 4 (here 4  -> 16 nodes)
//	NodesPerGroup SMP nodes per uplink group         (here 4  ->  4 groups)
//
// With NodesPerGroup of 0 or 1 the interconnect is the paper's flat
// network: every node talks to every other node at the same cost over its
// own link. Setting NodesPerGroup G > 1 arranges the nodes into groups of
// G under shared uplinks, the way large clusters are actually cabled:
//
//	group 0: nodes 0..3    (processors  0..15)
//	group 1: nodes 4..7    (processors 16..31)
//	group 2: nodes 8..11   (processors 32..47)
//	group 3: nodes 12..15  (processors 48..63)
//
// Messages between nodes of the same group cost what they always did.
// Messages that cross a group boundary additionally pay the uplink wire
// latency, and their bandwidth is capped at a per-node share of the uplink
// (the uplink is provisioned per group, not per node). Placement therefore
// matters: this program makes each processor read one slice of data from a
// neighbour inside its group and one from the opposite group, and the
// statistics show the cross-group traffic is the expensive part.
//
// The run uses the parallel simulation scheduler — at 64 processors the
// serial event loop is the bottleneck on the host — which by contract
// produces bit-identical results to the serial one (PERFORMANCE.md covers
// how that is continuously verified and benchmarked).
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		procs         = 64
		procsPerNode  = 4
		nodesPerGroup = 4
		perProc       = 512 // float64s per processor slice
	)
	cluster, err := shasta.NewCluster(shasta.Config{
		Procs:         procs,
		ProcsPerNode:  procsPerNode,
		NodesPerGroup: nodesPerGroup,
		Clustering:    4,
		Parallel:      true,
	})
	if err != nil {
		log.Fatal(err)
	}

	const n = procs * perProc
	data := cluster.Alloc(n*8, 64)
	partial := cluster.Alloc(procs*64, 64) // one cache line per processor

	result := cluster.Run(func(p *shasta.Proc) {
		lo := p.ID() * perProc

		// Each processor initializes its own slice.
		for i := 0; i < perProc; i++ {
			p.StoreF64(data+shasta.Addr((lo+i)*8), float64(lo+i))
		}
		p.Barrier()
		if p.ID() == 0 {
			p.ResetStats()
		}
		p.Barrier()

		// Read one neighbour slice from inside the group (4 processors
		// away: the next node, same uplink group) and one from the
		// opposite side of the machine (32 away: two groups over, so
		// every fetch crosses an uplink).
		sum := 0.0
		for _, src := range []int{(p.ID() + 4) % procs, (p.ID() + 32) % procs} {
			s := src * perProc
			for i := 0; i < perProc; i++ {
				sum += p.LoadF64(data + shasta.Addr((s+i)*8))
				p.Compute(4)
			}
		}
		p.StoreF64(partial+shasta.Addr(p.ID()*64), sum)
		p.Barrier()

		if p.ID() == 0 {
			total := 0.0
			for q := 0; q < procs; q++ {
				total += p.LoadF64(partial + shasta.Addr(q*64))
			}
			want := 2 * float64(n) * float64(n-1) / 2 // every element read twice
			fmt.Printf("sum = %.0f (want %.0f)\n", total, want)
		}
	})

	fmt.Printf("64 processors = %d nodes x %d procs, %d uplink groups\n",
		procs/procsPerNode, procsPerNode, procs/(procsPerNode*nodesPerGroup))
	fmt.Printf("parallel time: %.3f ms (virtual, 300 MHz cluster)\n",
		result.ParallelSeconds()*1e3)
	fmt.Print(result.Stats.Summary())
}
