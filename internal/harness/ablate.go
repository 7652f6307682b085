package harness

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/stats"
)

// Ablate runs the design-choice ablations DESIGN.md calls out, on the two
// workloads that exercise them hardest:
//
//   - line size 64 vs 128 bytes (the paper's two supported line sizes);
//   - ShareDirectory (colocated home requests through shared memory);
//   - FastSync (hierarchical SMP barriers);
//   - BroadcastDowngrades (SoftFLASH-style shootdowns vs the private
//     state tables' selective downgrades).
func Ablate(r *Runner, w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "ablation\tworkload\ttime vs base\tmisses vs base\tmessages vs base\tdg msgs vs base")

	type variant struct {
		name string
		app  string
		mod  func(*shasta.Config)
	}
	variants := []variant{
		{"128B lines", "Ocean", func(c *shasta.Config) { c.LineSize = 128 }},
		{"128B lines", "Water-Nsq", func(c *shasta.Config) { c.LineSize = 128 }},
		{"ShareDirectory", "Ocean", func(c *shasta.Config) { c.ShareDirectory = true }},
		{"FastSync", "Ocean", func(c *shasta.Config) { c.FastSync = true }},
		{"BroadcastDowngrades", "Water-Nsq", func(c *shasta.Config) { c.BroadcastDowngrades = true }},
		{"all extensions", "Ocean", func(c *shasta.Config) {
			c.ShareDirectory = true
			c.FastSync = true
		}},
	}

	ratio := func(a, b int64) string {
		if b == 0 {
			if a == 0 {
				return "1.00x"
			}
			return fmt.Sprintf("+%d", a)
		}
		return fmt.Sprintf("%.2fx", float64(a)/float64(b))
	}

	for _, v := range variants {
		cfg := smpConfig(16)
		base, err := r.run(cell{v.app, r.o.Scale, cfg, false}, want{})
		if err != nil {
			return err
		}
		v.mod(&cfg)
		mod, err := r.run(cell{v.app, r.o.Scale, cfg, false}, want{})
		if err != nil {
			return err
		}
		bs, ms := base.Result.Stats, mod.Result.Stats
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			v.name, v.app,
			ratio(mod.Result.ParallelCycles, base.Result.ParallelCycles),
			ratio(ms.TotalMisses(), bs.TotalMisses()),
			ratio(ms.TotalMessages(), bs.TotalMessages()),
			ratio(ms.MessagesBy(stats.DowngradeMsg), bs.MessagesBy(stats.DowngradeMsg)))
	}
	return tw.Flush()
}
