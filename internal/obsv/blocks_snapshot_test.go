package obsv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// observedRun runs a workload to completion and returns its cluster and the
// protocol system behind it, which the oracle reads directly.
func observedRun(t *testing.T, w apps.Workload, cfg shasta.Config, vg bool) (*shasta.Cluster, *protocol.System) {
	t.Helper()
	c, err := shasta.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Setup(c, vg)
	var sys *protocol.System
	c.Run(func(p *shasta.Proc) {
		if p.ID() == 0 {
			sys = p.System()
		}
		w.Body(p)
	})
	return c, sys
}

// TestBlocksMatchOracle holds the snapshot's blocks section to the old
// full-row builder, byte for byte, on every application at both clusterings
// and on the cells that stress the section's inputs: 256-byte lines,
// per-structure block sizes, online home migration (live homes), and 64
// processors on the hierarchical interconnect. 10-16 s on a 2-core host;
// -short runs three applications at clustering 4 only (about 2 s).
func TestBlocksMatchOracle(t *testing.T) {
	type cell struct {
		app string
		w   apps.Workload
		cfg shasta.Config
		vg  bool
	}
	var cells []cell
	names, clusterings := apps.Names, []int{1, 4}
	if testing.Short() {
		names, clusterings = []string{"Barnes", "LU", "Water-Nsq"}, []int{4}
	}
	for _, name := range names {
		for _, cl := range clusterings {
			cells = append(cells, cell{name, apps.Registry[name](1), shasta.Config{Procs: 8, Clustering: cl}, false})
		}
	}
	if !testing.Short() {
		cells = append(cells,
			cell{"LU", apps.Registry["LU"](1), shasta.Config{Procs: 8, Clustering: 4, LineSize: 256}, false},
			cell{"Barnes", apps.Registry["Barnes"](1), shasta.Config{Procs: 8, Clustering: 4, LineSize: 256}, false},
			cell{"Barnes", apps.Registry["Barnes"](1), shasta.Config{Procs: 8, Clustering: 4}, true},
			cell{"LU-iterated", apps.NewLUIterated(1, 4, false),
				shasta.Config{Procs: 16, Clustering: 4, LineSize: 256, Migrate: true, MigrateInterval: 4}, false},
			cell{"Water-Nsq", apps.Registry["Water-Nsq"](1),
				shasta.Config{Procs: 64, Clustering: 4, NodesPerGroup: 4, FastSync: true}, false},
		)
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/p%d_c%d_l%d_vg%t_mig%t", c.app, c.cfg.Procs, c.cfg.Clustering,
			c.cfg.LineSize, c.vg, c.cfg.Migrate)
		t.Run(name, func(t *testing.T) {
			cluster, sys := observedRun(t, c.w, c.cfg, c.vg)
			m := cluster.Metrics()
			if c.cfg.Migrate && m.Totals.Migrations == 0 {
				t.Fatal("the migration cell migrated no home")
			}
			wantBlocks, wantTotal := obsv.OldBuildBlocks(sys)
			if m.BlocksTotal != wantTotal {
				t.Errorf("BlocksTotal = %d, oracle %d", m.BlocksTotal, wantTotal)
			}
			got, err := json.Marshal(m.Blocks)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(wantBlocks)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("blocks section differs from the oracle's (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestSnapshotAllocsStayBounded pins the snapshot's cost on the lu256.json
// cell (LU, 8 processors, 256-byte lines, 8,192 active blocks): the blocks
// section allocates for its shards, one compact row per block and the
// BlocksCap reported rows, not a full row per active block.
func TestSnapshotAllocsStayBounded(t *testing.T) {
	c, _ := observedRun(t, apps.Registry["LU"](1), shasta.Config{Procs: 8, Clustering: 4, LineSize: 256}, false)
	const reps = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		c.Metrics()
	}
	runtime.ReadMemStats(&after)
	mallocs := (after.Mallocs - before.Mallocs) / reps
	allocated := (after.TotalAlloc - before.TotalAlloc) / reps
	t.Logf("Metrics(): %d mallocs, %.2f MiB", mallocs, float64(allocated)/(1<<20))
	if mallocs > 10000 {
		t.Errorf("Metrics() made %d mallocs, budget 10000", mallocs)
	}
	if allocated > 4<<20 {
		t.Errorf("Metrics() allocated %.2f MiB, budget 4 MiB", float64(allocated)/(1<<20))
	}
}
