package harness

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/apps"
)

// MicroDowngradeLatency measures the latency of a remote read request when
// the owning node must perform 0, 1, 2 or 3 downgrades, reproducing the
// Section 4.4 microbenchmark (the paper measures roughly +10 us for the
// first downgrade and +5 us for each additional one). It returns the
// latencies in microseconds indexed by downgrade count.
func MicroDowngradeLatency() ([4]float64, error) {
	var out [4]float64
	for k := 0; k <= 3; k++ {
		c, err := shasta.NewCluster(shasta.Config{Procs: 8, Clustering: 4})
		if err != nil {
			return out, err
		}
		// Home the block away from both the owning group and the
		// reader so the request path is always home -> owner forward.
		blk := c.AllocPlaced(64, 64, 7)
		kk := k
		res := c.Run(func(p *shasta.Proc) {
			// Processor 0 takes the block exclusive; processors 1..k
			// also store to it so their private state tables show
			// exclusive and they must be sent downgrade messages.
			if p.ID() == 0 {
				p.StoreF64(blk, 1.0)
			}
			p.Barrier()
			if p.ID() >= 1 && p.ID() <= kk {
				p.StoreF64(blk, float64(p.ID()))
			}
			p.Barrier()
			if p.ID() == 0 {
				p.ResetStats()
			}
			p.Barrier()
			if p.ID() == 4 {
				_ = p.LoadF64(blk)
			}
			p.Barrier()
		})
		out[k] = res.Stats.AvgReadLatencyMicros()
	}
	return out, nil
}

// Micro renders the downgrade-latency microbenchmark, plus the base fetch
// latencies the paper quotes (about 20 us for a remote two-hop fetch and
// 11 us within a node under Base-Shasta).
func Micro(_ *Runner, w io.Writer) error {
	lat, err := MicroDowngradeLatency()
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "downgrades\tread latency (us)\tdelta (us)")
	for k, l := range lat {
		delta := 0.0
		if k > 0 {
			delta = l - lat[k-1]
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%+.1f\n", k, l, delta)
	}
	remote, local, err := FetchLatencies()
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "\nremote 2-hop 64B fetch\t%.1f us (paper: ~20)\n", remote)
	fmt.Fprintf(tw, "intra-node 64B fetch\t%.1f us (paper: ~11)\n", local)
	return tw.Flush()
}

// FetchLatencies measures the Base-Shasta remote (two-hop) and intra-node
// 64-byte fetch latencies.
func FetchLatencies() (remote, local float64, err error) {
	measure := func(procs, reader int) (float64, error) {
		c, err := shasta.NewCluster(shasta.Config{Procs: procs, Clustering: 1})
		if err != nil {
			return 0, err
		}
		blk := c.AllocPlaced(64, 64, 0)
		res := c.Run(func(p *shasta.Proc) {
			p.Barrier()
			if p.ID() == 0 {
				p.ResetStats()
			}
			p.Barrier()
			if p.ID() == reader {
				_ = p.LoadF64(blk)
			}
			p.Barrier()
		})
		return res.Stats.AvgReadLatencyMicros(), nil
	}
	remote, err = measure(8, 4)
	if err != nil {
		return 0, 0, err
	}
	local, err = measure(4, 1)
	return remote, local, err
}

// ANL reproduces the Section 4.3 comparison: all applications on a single
// 4-processor SMP, hardware-coherent (the efficient ANL-macro baseline)
// versus SMP-Shasta with clustering 4 (communication via hardware shared
// memory; protocol entered only for synchronization and private state
// upgrades). The paper measures SMP-Shasta an average of 12.7% slower,
// mostly due to the inline checking overhead.
func ANL(r *Runner, w io.Writer) error {
	names := appList(r.o, apps.Names)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tHW 4p speedup\tSMP-Shasta 4p speedup\tSMP slower by")
	var sum float64
	for _, name := range names {
		cy, err := r.cycles(
			cell{name, r.o.Scale, seqConfig(), false},
			cell{name, r.o.Scale, shasta.Config{Procs: 4, Clustering: 4, Hardware: true}, false},
			cell{name, r.o.Scale, shasta.Config{Procs: 4, Clustering: 4}, false})
		if err != nil {
			return err
		}
		seq, hw, smp := cy[0], cy[1], cy[2]
		slower := float64(smp)/float64(hw) - 1
		sum += slower
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%s\n", name, speedup(seq, hw), speedup(seq, smp), pct(slower))
	}
	fmt.Fprintf(tw, "average\t\t\t%s (paper: 12.7%%)\n", pct(sum/float64(len(names))))
	return tw.Flush()
}
