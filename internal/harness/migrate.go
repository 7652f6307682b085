package harness

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/apps"
)

// hot3hop is the migrate experiment's synthetic fixture: an array of blocks
// whose configured home (node 0) neither reads nor writes them. Node 1's
// processors own and repeatedly update disjoint block ranges; node 2's
// processors read every block each round. With static placement every read
// miss is a three-hop forward (requester -> home -> owner) and every
// upgrade pays remote invalidation round trips through node 0; online
// migration re-homes each block to its writer's node, collapsing the reads
// to two hops and making the writer's directory traffic node-local.
type hot3hop struct {
	blocks, rounds int
	arr            apps.F64Array
	cluster        *shasta.Cluster
	checksum       float64
}

// newHot3hop builds the fixture; scale multiplies the round count.
func newHot3hop(scale int) *hot3hop {
	return &hot3hop{blocks: 16, rounds: 40 * scale}
}

func (w *hot3hop) Name() string { return "hot3hop" }

func (w *hot3hop) ProblemSize() string {
	return fmt.Sprintf("%d blocks, %d rounds, home off-node", w.blocks, w.rounds)
}

func (w *hot3hop) Setup(c *shasta.Cluster, variableGranularity bool) {
	w.cluster = c
	// One 64-byte block per slot, every page homed at processor 0 — the
	// adversarial placement migration must undo.
	w.arr = apps.F64Array{Base: c.AllocPlaced(int64(w.blocks)*64, 64, 0), Len: w.blocks * 8}
}

// slot returns the address of block b's first element.
func (w *hot3hop) slot(b int) shasta.Addr { return w.arr.At(b * 8) }

func (w *hot3hop) Body(p *shasta.Proc) {
	procs := p.NumProcs()
	writers := make([]int, 0, 4)
	readers := make([]int, 0, procs)
	for q := 0; q < procs; q++ {
		switch q / 4 {
		case 1:
			writers = append(writers, q)
		case 2:
			readers = append(readers, q)
		}
	}
	role := func(q int) (writer, reader bool) {
		for _, v := range writers {
			if v == q {
				return true, false
			}
		}
		for _, v := range readers {
			if v == q {
				return false, true
			}
		}
		return false, false
	}
	isWriter, isReader := role(p.ID())
	myBlocks := func() []int {
		var bs []int
		for b := 0; b < w.blocks; b++ {
			if writers[b%len(writers)] == p.ID() {
				bs = append(bs, b)
			}
		}
		return bs
	}()

	// Initialization by the writers, then the measured phase.
	if isWriter {
		for _, b := range myBlocks {
			p.StoreF64(w.slot(b), float64(b))
		}
	}
	p.Barrier()
	if p.ID() == 0 {
		p.ResetStats()
	}
	p.Barrier()

	for round := 0; round < w.rounds; round++ {
		if isWriter {
			for _, b := range myBlocks {
				p.StoreF64(w.slot(b), p.LoadF64(w.slot(b))+1)
			}
		}
		p.Barrier()
		if isReader {
			sum := 0.0
			for b := 0; b < w.blocks; b++ {
				sum += p.LoadF64(w.slot(b))
			}
			_ = sum
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		p.EndMeasured()
	}
	p.Barrier()
	if p.ID() == 0 {
		sum := 0.0
		for b := 0; b < w.blocks; b++ {
			sum += p.LoadF64(w.slot(b))
		}
		w.checksum = sum
	}
	p.Barrier()
}

func (w *hot3hop) Checksum() float64 { return w.checksum }

// migFixtures are the migrate experiment's workloads (registered in
// fixtures) and the machines they run on: the synthetic three-hop-heavy
// fixture, and iterated LU at 256-byte lines (four measured
// re-initialize-and-factor sweeps, the repeated-factorization harness
// solver benchmarks run). LU's matrix pages are homed round-robin, so a
// line's home is unrelated to the block owner that re-writes it every sweep
// and the perimeter consumers that re-read it; migration re-homes lines to
// their owners' nodes during the first sweeps, and the later sweeps run
// with a fraction of the 3-hop misses. LU's burst per line is short (one
// owner plus a handful of perimeter readers per sweep), so the fixture sets
// MigrateInterval to 4 — the evidence window that fits the pattern; hot3hop
// uses the protocol defaults.
var migFixtures = []struct {
	name string
	cfg  shasta.Config
}{
	{"hot3hop", shasta.Config{Procs: 16, Clustering: 4}},
	{"LU256", shasta.Config{Procs: 16, Clustering: 4, LineSize: 256, MigrateInterval: 4}},
}

// Migrate contrasts static home placement with online home migration on
// workloads whose traffic concentrates away from the configured home: the
// synthetic hot3hop fixture and iterated LU at 256-byte lines. Each fixture
// runs with migration off and on; the report gives end-to-end measured
// cycles, the migration and tombstone-forward counts, three-hop miss counts
// and remote message traffic. The experiment fails if migration does not
// reduce either fixture's measured cycles — the optimization must pay on
// its target patterns, not merely stay neutral.
//
// The runs are named "migrate/<fixture>/<off|on>": with -snapshot those are
// the scenarios benchgate compares across commits, and with -obsv each
// run's metrics snapshot is METRICS_migrate_<fixture>_<off|on>.json.
func Migrate(r *Runner, w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "fixture\tmigrate\tcycles\tΔcycles\tmigrations\tforwards\t3-hop misses\tremote msgs")
	for _, fx := range migFixtures {
		var cycles [2]int64
		for i, mode := range []string{"off", "on"} {
			// Migration is this experiment's subject, so it is set on the
			// applied cell, whatever -migrate says.
			c := r.apply(cell{fx.name, r.o.Scale, fx.cfg, false})
			c.cfg.Migrate = mode == "on"
			run, err := r.exec(c, want{name: "migrate/" + fx.name + "/" + mode, metrics: true})
			if err != nil {
				return err
			}
			t := run.Metrics.Totals
			threeHop := t.Misses["read-3hop"] + t.Misses["write-3hop"] + t.Misses["upgrade-3hop"]
			cycles[i] = run.Result.ParallelCycles
			delta := ""
			if mode == "on" {
				delta = fmt.Sprintf("%+.1f%%", 100*float64(cycles[1]-cycles[0])/float64(cycles[0]))
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%d\t%d\t%d\n",
				fx.name, mode, cycles[i], delta, t.Migrations, t.MigForwards,
				threeHop, t.Messages["remote"])
		}
		if cycles[1] >= cycles[0] {
			return fmt.Errorf("harness: migrate: %s: migration did not reduce cycles (%d off, %d on)",
				fx.name, cycles[0], cycles[1])
		}
		fmt.Fprintf(tw, "%s\tsaved\t%d\t%.1f%%\t\t\t\t\n", fx.name, cycles[0]-cycles[1],
			100*float64(cycles[0]-cycles[1])/float64(cycles[0]))
	}
	return tw.Flush()
}
