package shasta_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := shasta.NewCluster(shasta.Config{Procs: 8, Clustering: 3}); err == nil {
		t.Fatal("clustering 3 should be rejected (does not divide node size)")
	}
	if _, err := shasta.NewCluster(shasta.Config{Procs: -2}); err == nil {
		t.Fatal("negative processor count should be rejected")
	}
	// A bad heap geometry, topology or count is a diagnostic like every
	// other bad field: not a panic out of the memory or interconnect layer,
	// and not a deadlock at Run.
	for _, cfg := range []shasta.Config{
		{Procs: 4, LineSize: 4},
		{Procs: 4, LineSize: 12},
		{Procs: 4, LineSize: 24},
		{Procs: 4, LineSize: 96},
		{Procs: 4, LineSize: 128, HeapBytes: 1<<20 + 64},
		{Procs: 4, HeapBytes: -64},
		{MaxOutstanding: -1},
		{Clustering: -1},
		{NodesPerGroup: -2},
		{Procs: 8, ProcsPerNode: 3},
		{Migrate: true, MigrateInterval: -1},
		{Migrate: true, MigrateThreshold: -5},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%+v: NewCluster panicked: %v", cfg, r)
				}
			}()
			if _, err := shasta.NewCluster(cfg); err == nil || !strings.HasPrefix(err.Error(), "shasta: ") {
				t.Errorf("%+v: error %v, want a shasta: diagnostic", cfg, err)
			}
		}()
	}
	if _, err := shasta.NewCluster(shasta.Config{Procs: 4, LineSize: 256, HeapBytes: 1 << 20}); err != nil {
		t.Errorf("256-byte lines rejected: %v", err)
	}
	c, err := shasta.NewCluster(shasta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Procs() != 16 {
		t.Fatalf("default processor count = %d, want 16", c.Procs())
	}
}

func TestMustClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCluster should panic on invalid config")
		}
	}()
	shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 3})
}

func TestEndToEndSharedCounter(t *testing.T) {
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	counter := cluster.Alloc(64, 64)
	lock := cluster.AllocLock()
	res := cluster.Run(func(p *shasta.Proc) {
		for i := 0; i < 5; i++ {
			p.LockAcquire(lock)
			p.StoreU64(counter, p.LoadU64(counter)+1)
			p.LockRelease(lock)
		}
		p.Barrier()
		if got := p.LoadU64(counter); got != 40 {
			t.Errorf("proc %d: counter = %d, want 40", p.ID(), got)
		}
	})
	if res.FinishCycles <= 0 || res.ParallelCycles <= 0 {
		t.Fatal("no time measured")
	}
	if res.ParallelSeconds() <= 0 {
		t.Fatal("ParallelSeconds not positive")
	}
}

func TestStatsSummaryRenders(t *testing.T) {
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	arr := cluster.Alloc(4096, 64)
	cluster.Run(func(p *shasta.Proc) {
		p.StoreF64(arr+shasta.Addr(p.ID()*8), 1)
		p.Barrier()
		_ = p.LoadF64(arr + shasta.Addr(((p.ID()+1)%8)*8))
	})
	s := cluster.Stats().Summary()
	for _, want := range []string{"parallel time", "misses", "messages", "breakdown"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestVariableGranularityAlloc(t *testing.T) {
	cluster := shasta.MustCluster(shasta.Config{Procs: 4})
	small := cluster.Alloc(512, 0)   // single block (default policy)
	big := cluster.Alloc(8192, 2048) // four 2 KiB blocks
	if small == big {
		t.Fatal("allocations overlap")
	}
	cluster.Run(func(p *shasta.Proc) {
		if p.ID() == 0 {
			p.StoreF64(small, 1)
			p.StoreF64(big, 2)
		}
		p.Barrier()
		if got := p.LoadF64(small); got != 1 {
			t.Errorf("small alloc read %v", got)
		}
		if got := p.LoadF64(big); got != 2 {
			t.Errorf("big alloc read %v", got)
		}
	})
}

func TestHardwareModeConfig(t *testing.T) {
	cluster := shasta.MustCluster(shasta.Config{Procs: 4, Clustering: 4, Hardware: true})
	arr := cluster.Alloc(256, 64)
	cluster.Run(func(p *shasta.Proc) {
		p.StoreU64(arr+shasta.Addr(p.ID()*8), uint64(p.ID()))
		p.Barrier()
		var sum uint64
		for q := 0; q < 4; q++ {
			sum += p.LoadU64(arr + shasta.Addr(q*8))
		}
		if sum != 6 {
			t.Errorf("proc %d: sum = %d", p.ID(), sum)
		}
	})
	if cluster.Stats().TotalMisses() != 0 {
		t.Fatal("hardware mode should record no software misses")
	}
}

func TestBatchAPI(t *testing.T) {
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	arr := cluster.Alloc(2048, 64)
	cluster.Run(func(p *shasta.Proc) {
		if p.ID() == 0 {
			p.Batch([]shasta.BatchRef{{Base: arr, Bytes: 2048, Store: true}},
				func(b *shasta.Batch) {
					for i := 0; i < 256; i++ {
						b.StoreF64(arr+shasta.Addr(i*8), float64(i))
					}
				})
		}
		p.Barrier()
		var sum float64
		p.Batch([]shasta.BatchRef{{Base: arr, Bytes: 2048}}, func(b *shasta.Batch) {
			for i := 0; i < 256; i++ {
				sum += b.LoadF64(arr + shasta.Addr(i*8))
			}
		})
		if sum != 256*255/2 {
			t.Errorf("proc %d: batched sum = %v", p.ID(), sum)
		}
	})
}

func TestFalseSharingVsGranularity(t *testing.T) {
	// With one writer per 8 bytes, 2 KiB blocks cause heavy false
	// sharing; line-sized blocks must produce fewer invalidation misses
	// per store. This checks the granularity trade-off cuts both ways.
	missesFor := func(blockSize int) int64 {
		cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 1})
		arr := cluster.Alloc(8*2048, blockSize)
		cluster.Run(func(p *shasta.Proc) {
			p.Barrier()
			for round := 0; round < 4; round++ {
				// Each processor repeatedly writes its own 256-byte-strided
				// slot within each 2 KiB region: a distinct 64-byte block
				// per processor, but one shared 2 KiB block.
				for r := 0; r < 8; r++ {
					p.StoreF64(arr+shasta.Addr(r*2048+p.ID()*256), float64(round))
				}
				p.Barrier()
			}
		})
		return cluster.Stats().TotalMisses()
	}
	fine, coarse := missesFor(64), missesFor(2048)
	if fine >= coarse {
		t.Fatalf("fine granularity should reduce false-sharing misses: 64B=%d 2048B=%d",
			fine, coarse)
	}
}

// TestClusterAllocIndependentOfCapacity pins that capacity is a limit, not a
// cost: building a 64-processor cluster and running a two-page program
// allocates the same (within 5%) at a 4 MiB and at a 64 MiB heap, where
// sixteen capacity-sized group images made the second sixteen times the first.
func TestClusterAllocIndependentOfCapacity(t *testing.T) {
	rep := func(heap int64) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		c := shasta.MustCluster(shasta.Config{Procs: 64, Clustering: 4, HeapBytes: heap})
		arr := c.Alloc(2*4096, 64)
		c.Run(func(p *shasta.Proc) {
			p.StoreF64(arr+shasta.Addr(p.ID()*64), float64(p.ID()))
			p.Barrier()
			if got := p.LoadF64(arr + shasta.Addr((p.ID()+1)%64*64)); got != float64((p.ID()+1)%64) {
				t.Errorf("proc %d read %v", p.ID(), got)
			}
		})
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	rep(4 << 20) // warm: runtime and package one-offs
	small, large := rep(4<<20), rep(64<<20)
	if d := float64(large) - float64(small); d > 0.05*float64(small) || d < -0.05*float64(small) {
		t.Errorf("a two-page program allocates %d B at a 4 MiB heap and %d B at 64 MiB, want within 5%%", small, large)
	}
}

// TestAllocDiagnostics table-tests the misuses of the allocator and of the
// heap it hands out: each is a panic whose message says what to change.
func TestAllocDiagnostics(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(c *shasta.Cluster)
		want []string
	}{
		{"heap exhausted", func(c *shasta.Cluster) {
			c.Alloc(4096, 64)
			c.Alloc(8192, 64)
		}, []string{"shasta: Alloc(8192, 64)", "heap exhausted: need 8192, have 4096", "raise Config.HeapBytes"}},
		{"block larger than a page", func(c *shasta.Cluster) {
			c.Alloc(8192, 8192)
		}, []string{"shasta: Alloc", "block size 8192 exceeds the 4096-byte page"}},
		{"non-positive size", func(c *shasta.Cluster) {
			c.AllocPlaced(0, 64, 1)
		}, []string{"shasta: Alloc(0, 64)", "non-positive size"}},
		{"alloc from a running body", func(c *shasta.Cluster) {
			c.Run(func(p *shasta.Proc) {
				if p.ID() == 1 {
					c.Alloc(64, 64)
				}
			})
		}, []string{"shasta: Alloc after Run started", "before Run"}},
		{"alloc after Run", func(c *shasta.Cluster) {
			c.Run(func(*shasta.Proc) {})
			c.AllocPinned(64, 64)
		}, []string{"shasta: Alloc after Run started"}},
		{"access past the allocated heap", func(c *shasta.Cluster) {
			a := c.Alloc(4096, 64)
			c.Run(func(p *shasta.Proc) {
				if p.ID() == 0 {
					p.StoreF64(a+4096, 1)
				}
			})
		}, []string{"writes 8 bytes at 4096 outside the allocated heap (4096 bytes used)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Errorf("panic %q does not contain %q", msg, w)
					}
				}
			}()
			tc.run(shasta.MustCluster(shasta.Config{Procs: 4, Clustering: 2, HeapBytes: 8192}))
			t.Error("no panic")
		})
	}
}
