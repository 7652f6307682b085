package protocol

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/memory"
	"repro/internal/stats"
)

// testSystem builds a small system with the given processor count and
// clustering.
func testSystem(procs, clustering int) *System {
	return New(Config{
		NumProcs:     procs,
		ProcsPerNode: 4,
		Clustering:   clustering,
		HeapBytes:    1 << 20,
	})
}

func TestSingleProcStoreLoad(t *testing.T) {
	s := testSystem(1, 1)
	a := s.Alloc(1024, 64)
	s.Run(func(p *Proc) {
		p.StoreF64(a, 3.5)
		p.StoreU32(a+8, 77)
		if got := p.LoadF64(a); got != 3.5 {
			t.Errorf("LoadF64 = %v", got)
		}
		if got := p.LoadU32(a + 8); got != 77 {
			t.Errorf("LoadU32 = %v", got)
		}
	})
	if m := s.Stats().TotalMisses(); m != 0 {
		t.Errorf("single-proc local accesses generated %d misses", m)
	}
}

func TestTwoProcProducerConsumer(t *testing.T) {
	for _, clustering := range []int{1, 2} {
		t.Run(fmt.Sprintf("C%d", clustering), func(t *testing.T) {
			s := testSystem(2, clustering)
			a := s.Alloc(64, 64)
			s.Run(func(p *Proc) {
				if p.ID() == 0 {
					p.StoreF64(a, 42.0)
				}
				p.Barrier()
				if got := p.LoadF64(a); got != 42.0 {
					t.Errorf("proc %d read %v, want 42", p.ID(), got)
				}
			})
		})
	}
}

func TestRemoteReadMissHops(t *testing.T) {
	// 8 procs, 2 nodes, C=1. Block homed at proc 0 (first alloc page).
	// Proc 4 (other node) reads it: data at home -> 2-hop read miss.
	s := testSystem(8, 1)
	a := s.AllocPlaced(64, 64, 0)
	s.Run(func(p *Proc) {
		if p.ID() == 4 {
			_ = p.LoadF64(a)
		}
	})
	if got := s.Stats().MissesBy(stats.ReadMiss, 2); got != 1 {
		t.Errorf("2-hop read misses = %d, want 1", got)
	}
	if got := s.Stats().MessagesBy(stats.RemoteMsg); got < 2 {
		t.Errorf("remote messages = %d, want >= 2 (request + reply)", got)
	}
}

func TestThreeHopForwarding(t *testing.T) {
	// Home at proc 0; proc 4 takes the block exclusive; proc 8 then
	// reads: home forwards to owner 4 -> 3-hop miss at proc 8.
	s := testSystem(12, 1)
	a := s.AllocPlaced(64, 64, 0)
	s.Run(func(p *Proc) {
		if p.ID() == 4 {
			p.StoreF64(a, 1.0)
		}
		p.Barrier()
		if p.ID() == 8 {
			if got := p.LoadF64(a); got != 1.0 {
				t.Errorf("proc 8 read %v", got)
			}
		}
		p.Barrier()
	})
	if got := s.Stats().MissesBy(stats.ReadMiss, 3); got != 1 {
		t.Errorf("3-hop read misses = %d, want 1", got)
	}
}

func TestIntraGroupSharingAvoidsMessages(t *testing.T) {
	// C=4: proc 0 fetches a remote block; proc 1 (same group) then reads
	// it with no protocol messages, only a private-state upgrade.
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 4) // homed on node 1
	var before int64
	s.Run(func(p *Proc) {
		if p.ID() == 0 {
			_ = p.LoadF64(a)
		}
		p.Barrier()
		if p.ID() == 1 {
			before = s.Stats().TotalMessages()
			_ = p.LoadF64(a) // flag-based load: hits valid group data
			if d := s.Stats().TotalMessages() - before; d != 0 {
				t.Errorf("group-mate read sent %d messages", d)
			}
		}
		p.Barrier()
	})
}

func TestClusteringReducesMisses(t *testing.T) {
	// All 8 processors read the same remotely-homed array. With C=1,
	// every processor on node 0 misses; with C=4 only the first one per
	// group does.
	missesFor := func(clustering int) int64 {
		s := testSystem(8, clustering)
		a := s.AllocPlaced(4096, 64, 4)
		s.Run(func(p *Proc) {
			p.Barrier()
			if p.ID() < 4 { // node 0 only
				for off := int64(0); off < 4096; off += 8 {
					_ = p.LoadF64(a + memory.Addr(off))
				}
			}
			p.Barrier()
		})
		return s.Stats().TotalMisses()
	}
	m1, m4 := missesFor(1), missesFor(4)
	if m4 >= m1 {
		t.Fatalf("clustering did not reduce misses: C1=%d C4=%d", m1, m4)
	}
	if m4 > m1/3 {
		t.Errorf("C4 misses %d not close to C1/4 of %d", m4, m1)
	}
}

func TestDowngradeMessagesOnRemoteWrite(t *testing.T) {
	// C=4: procs 0..3 all read a block (private states Shared); proc 4
	// writes it; the invalidation at node 0 must send downgrade messages
	// to the members that accessed the block.
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0)
	s.Run(func(p *Proc) {
		if p.ID() < 4 {
			// Touch via store so private state gets set (flag loads do
			// not upgrade private state).
			if p.ID() == 0 {
				p.StoreF64(a, 5.0)
			}
		}
		p.Barrier()
		if p.ID() >= 1 && p.ID() < 4 {
			// Batched load consults and upgrades the private table.
			p.Batch([]BatchRef{{Base: a, Bytes: 8}}, func(b *Batch) {
				if got := b.LoadF64(a); got != 5.0 {
					t.Errorf("proc %d batched read %v", p.ID(), got)
				}
			})
		}
		p.Barrier()
		if p.ID() == 4 {
			p.StoreF64(a, 6.0)
		}
		p.Barrier()
		if got := p.LoadF64(a); got != 6.0 {
			t.Errorf("proc %d final read %v, want 6", p.ID(), got)
		}
	})
	if got := s.Stats().MessagesBy(stats.DowngradeMsg); got == 0 {
		t.Error("no downgrade messages recorded")
	}
	_, total := s.Stats().DowngradeDistribution()
	if total == 0 {
		t.Error("no downgrades recorded")
	}
}

func TestSelectiveDowngrades(t *testing.T) {
	// Only proc 0 in the group accesses the block, so invalidating it
	// must need zero downgrade messages (the private state tables of
	// procs 1-3 are Invalid).
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0)
	s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.StoreF64(a, 5.0)
		}
		p.Barrier()
		if p.ID() == 4 {
			p.StoreF64(a, 6.0)
		}
		p.Barrier()
	})
	if got := s.Stats().MessagesBy(stats.DowngradeMsg); got != 0 {
		t.Errorf("downgrade messages = %d, want 0 (selective downgrades)", got)
	}
	frac, total := s.Stats().DowngradeDistribution()
	if total == 0 || frac[0] != 1.0 {
		t.Errorf("downgrade distribution %v (total %d), want all zero-message", frac, total)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	for _, cl := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("C%d", cl), func(t *testing.T) {
			s := testSystem(8, cl)
			a := s.Alloc(64, 64)
			l := s.AllocLock()
			const iters = 10
			s.Run(func(p *Proc) {
				p.Barrier()
				for i := 0; i < iters; i++ {
					p.LockAcquire(l)
					v := p.LoadU64(a)
					p.Compute(50)
					p.StoreU64(a, v+1)
					p.LockRelease(l)
				}
				p.Barrier()
				if got := p.LoadU64(a); got != 8*iters {
					t.Errorf("proc %d: counter = %d, want %d", p.ID(), got, 8*iters)
				}
			})
		})
	}
}

func TestBarrierOrdering(t *testing.T) {
	s := testSystem(8, 4)
	a := s.Alloc(512, 64)
	s.Run(func(p *Proc) {
		// Phase 1: each proc writes its slot.
		p.StoreU64(a+memory.Addr(p.ID()*8), uint64(p.ID()+1))
		p.Barrier()
		// Phase 2: everyone sums all slots.
		var sum uint64
		for i := 0; i < 8; i++ {
			sum += p.LoadU64(a + memory.Addr(i*8))
		}
		if sum != 36 {
			t.Errorf("proc %d: sum = %d, want 36", p.ID(), sum)
		}
		p.Barrier()
	})
}

func TestNonBlockingStores(t *testing.T) {
	// A store miss must not stall the processor: time advances only by
	// check/entry/bookkeeping costs, far less than a remote round trip.
	s := testSystem(8, 1)
	a := s.AllocPlaced(64, 64, 4)
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 0 {
			t0 := p.Now()
			p.StoreF64(a, 9.0)
			if d := p.Now() - t0; d > 3000 {
				t.Errorf("store miss stalled %d cycles; stores must be non-blocking", d)
			}
		}
		p.Barrier()
		if got := p.LoadF64(a); got != 9.0 {
			t.Errorf("proc %d read %v, want 9", p.ID(), got)
		}
	})
}

func TestFalseMiss(t *testing.T) {
	// Store the flag bit pattern as real data; a load of it triggers the
	// miss routine, which identifies a false miss and returns the value.
	s := testSystem(1, 1)
	a := s.Alloc(64, 64)
	s.Run(func(p *Proc) {
		p.StoreU32(a, memory.FlagWord)
		if got := p.LoadU32(a); got != memory.FlagWord {
			t.Errorf("LoadU32 = %#x, want flag pattern", got)
		}
	})
	if got := s.Stats().Procs[0].FalseMisses; got != 1 {
		t.Errorf("false misses = %d, want 1", got)
	}
	if got := s.Stats().TotalMisses(); got != 0 {
		t.Errorf("false miss counted as real miss: %d", got)
	}
}

func TestUpgradeMiss(t *testing.T) {
	// Proc 4 reads (shared copy), then writes: the write becomes an
	// upgrade request, not a full data fetch.
	s := testSystem(8, 1)
	a := s.AllocPlaced(64, 64, 0)
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 4 {
			_ = p.LoadF64(a)
			p.StoreF64(a, 2.0)
		}
		p.Barrier()
		if got := p.LoadF64(a); got != 2.0 {
			t.Errorf("proc %d read %v, want 2", p.ID(), got)
		}
	})
	if got := s.Stats().MissesBy(stats.UpgradeMiss, 2) + s.Stats().MissesBy(stats.UpgradeMiss, 3); got != 1 {
		t.Errorf("upgrade misses = %d, want 1", got)
	}
}

func TestWriteContention(t *testing.T) {
	// Two procs in different nodes repeatedly write the same block under
	// lock protection; the final sum must be exact.
	s := testSystem(8, 4)
	a := s.Alloc(64, 64)
	l := s.AllocLock()
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 0 || p.ID() == 4 {
			for i := 0; i < 20; i++ {
				p.LockAcquire(l)
				p.StoreU64(a, p.LoadU64(a)+1)
				p.LockRelease(l)
			}
		}
		p.Barrier()
		if got := p.LoadU64(a); got != 40 {
			t.Errorf("proc %d: sum = %d, want 40", p.ID(), got)
		}
	})
}

func TestMigratoryDataAllGroups(t *testing.T) {
	// A counter migrates around all 16 processors several times; this
	// exercises forwarding, upgrades, invalidations and downgrades.
	for _, cl := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("C%d", cl), func(t *testing.T) {
			s := testSystem(16, cl)
			a := s.Alloc(64, 64)
			l := s.AllocLock()
			const rounds = 3
			s.Run(func(p *Proc) {
				p.Barrier()
				for r := 0; r < rounds; r++ {
					p.LockAcquire(l)
					p.StoreU64(a, p.LoadU64(a)+uint64(p.ID()))
					p.LockRelease(l)
					p.Barrier()
				}
				want := uint64(rounds * (16 * 15 / 2))
				if got := p.LoadU64(a); got != want {
					t.Errorf("proc %d: sum = %d, want %d", p.ID(), got, want)
				}
				p.Barrier()
			})
		})
	}
}

func TestBatchLoadStore(t *testing.T) {
	s := testSystem(8, 4)
	a := s.AllocPlaced(256, 64, 4)
	s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Batch([]BatchRef{{Base: a, Bytes: 64, Store: true}}, func(b *Batch) {
				for i := 0; i < 8; i++ {
					b.StoreF64(a+memory.Addr(i*8), float64(i))
				}
			})
		}
		p.Barrier()
		p.Batch([]BatchRef{{Base: a, Bytes: 64}}, func(b *Batch) {
			for i := 0; i < 8; i++ {
				if got := b.LoadF64(a + memory.Addr(i*8)); got != float64(i) {
					t.Errorf("proc %d batch[%d] = %v", p.ID(), i, got)
				}
			}
		})
		p.Barrier()
	})
}

func TestBatchDeferredInvalidation(t *testing.T) {
	// Proc 0 batches over two blocks: one local, one remote (so the
	// batch stalls). While it waits, proc 4 writes the first block; the
	// invalidation is deferred and the batched loads still see the data
	// they fetched.
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0)  // block A, homed node 0
	b2 := s.AllocPlaced(64, 64, 4) // block B, homed node 1
	s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.StoreF64(a, 1.0)
		}
		if p.ID() == 4 {
			p.StoreF64(b2, 2.0)
		}
		p.Barrier()
		switch p.ID() {
		case 0:
			p.Batch([]BatchRef{{Base: a, Bytes: 8}, {Base: b2, Bytes: 8}}, func(b *Batch) {
				va, vb := b.LoadF64(a), b.LoadF64(b2)
				if va != 1.0 && va != 7.0 {
					t.Errorf("batched load of A = %v", va)
				}
				if vb != 2.0 {
					t.Errorf("batched load of B = %v", vb)
				}
			})
		case 4:
			p.StoreF64(a, 7.0)
		}
		p.Barrier()
		if got := p.LoadF64(a); got != 7.0 && p.ID() != 0 {
			t.Errorf("proc %d read A = %v, want 7", p.ID(), got)
		}
		p.Barrier()
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64, int64) {
		s := testSystem(8, 4)
		a := s.Alloc(4096, 64)
		l := s.AllocLock()
		finish := s.Run(func(p *Proc) {
			p.Barrier()
			for i := 0; i < 20; i++ {
				addr := a + memory.Addr(((p.ID()*37+i*13)%512)*8)
				p.LockAcquire(l)
				p.StoreU64(addr, p.LoadU64(addr)+1)
				p.LockRelease(l)
			}
			p.Barrier()
		})
		return finish, s.Stats().TotalMisses(), s.Stats().TotalMessages()
	}
	f1, m1, g1 := run()
	f2, m2, g2 := run()
	if f1 != f2 || m1 != m2 || g1 != g2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", f1, m1, g1, f2, m2, g2)
	}
}

// TestParallelSystemMatchesSerial runs the same contended workload — with a
// measured phase, so the fence-based ResetStats/EndMeasured path is
// exercised — under the serial and the window-based parallel scheduler and
// requires identical results: finish time, misses, messages, and every
// processor's full time breakdown. The 16-processor/clustering-2 shape is
// the regression case for fence observations of processors spinning at a
// barrier in another conflict domain, which slice-granular fence snapshots
// got wrong before fences were deferred to their cut. Runs under
// `make check`'s race-mode pass, so it also verifies the parallel
// scheduler's host-side memory safety through the whole protocol stack.
func TestParallelSystemMatchesSerial(t *testing.T) {
	for _, shape := range []struct{ procs, clustering int }{{8, 4}, {16, 2}} {
		t.Run(fmt.Sprintf("p%d_c%d", shape.procs, shape.clustering), func(t *testing.T) {
			testParallelSystemMatchesSerial(t, shape.procs, shape.clustering)
		})
	}
}

func testParallelSystemMatchesSerial(t *testing.T, procs, clustering int) {
	run := func(parallel bool) (int64, *stats.Run) {
		s := New(Config{
			NumProcs:     procs,
			ProcsPerNode: 4,
			Clustering:   clustering,
			HeapBytes:    1 << 20,
			Parallel:     parallel,
		})
		a := s.Alloc(4096, 64)
		l := s.AllocLock()
		finish := s.Run(func(p *Proc) {
			p.Barrier()
			if p.ID() == 0 {
				p.ResetStats()
			}
			p.Barrier()
			for i := 0; i < 20; i++ {
				addr := a + memory.Addr(((p.ID()*37+i*13)%512)*8)
				p.LockAcquire(l)
				p.StoreU64(addr, p.LoadU64(addr)+1)
				p.LockRelease(l)
			}
			p.Barrier()
			if p.ID() == 0 {
				p.EndMeasured()
			}
			p.Barrier()
		})
		return finish, s.Stats()
	}
	sf, ss := run(false)
	pf, ps := run(true)
	if sf != pf {
		t.Fatalf("finish %d vs %d", sf, pf)
	}
	if ss.Cycles != ps.Cycles || ss.TotalMisses() != ps.TotalMisses() ||
		ss.TotalMessages() != ps.TotalMessages() {
		t.Fatalf("stats diverged: cycles %d vs %d, misses %d vs %d, messages %d vs %d",
			ss.Cycles, ps.Cycles, ss.TotalMisses(), ps.TotalMisses(),
			ss.TotalMessages(), ps.TotalMessages())
	}
	for i := range ss.Procs {
		if ss.Procs[i].TimeBy != ps.Procs[i].TimeBy {
			t.Errorf("proc %d time breakdown %v vs %v", i, ss.Procs[i].TimeBy, ps.Procs[i].TimeBy)
		}
	}
	for i := range ss.Measured {
		if ss.Measured[i] != ps.Measured[i] {
			t.Errorf("proc %d measured breakdown %+v vs %+v", i, ss.Measured[i], ps.Measured[i])
		}
	}
}

func TestHardwareMode(t *testing.T) {
	s := New(Config{NumProcs: 4, ProcsPerNode: 4, Clustering: 4,
		HeapBytes: 1 << 20, Hardware: true})
	a := s.Alloc(512, 64)
	s.Run(func(p *Proc) {
		p.StoreU64(a+memory.Addr(p.ID()*8), uint64(p.ID()))
		p.Barrier()
		var sum uint64
		for i := 0; i < 4; i++ {
			sum += p.LoadU64(a + memory.Addr(i*8))
		}
		if sum != 6 {
			t.Errorf("proc %d sum = %d", p.ID(), sum)
		}
	})
	if s.Stats().TotalMisses() != 0 {
		t.Error("hardware mode recorded software misses")
	}
}

// TestRandomSharedCounterStress hammers a handful of blocks from all
// processors under lock protection, across clusterings, and checks the
// totals. This is the main protocol-correctness stress test: it exercises
// merges, upgrades lost to races, invalidation of pending blocks, and
// downgrades, all under the deterministic scheduler.
func TestRandomSharedCounterStress(t *testing.T) {
	for _, cl := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("C%d-seed%d", cl, seed), func(t *testing.T) {
				const nCounters = 8
				const iters = 30
				s := testSystem(16, cl)
				a := s.Alloc(nCounters*64, 64)
				locks := make([]int, nCounters)
				for i := range locks {
					locks[i] = s.AllocLock()
				}
				expect := make([]uint64, nCounters)
				// Precompute each processor's deterministic op sequence.
				seqs := make([][]int, 16)
				for pid := range seqs {
					rng := rand.New(rand.NewSource(seed*100 + int64(pid)))
					seqs[pid] = make([]int, iters)
					for i := range seqs[pid] {
						c := rng.Intn(nCounters)
						seqs[pid][i] = c
						expect[c]++
					}
				}
				s.Run(func(p *Proc) {
					p.Barrier()
					for _, c := range seqs[p.ID()] {
						addr := a + memory.Addr(c*64)
						p.LockAcquire(locks[c])
						p.StoreU64(addr, p.LoadU64(addr)+1)
						p.LockRelease(locks[c])
					}
					p.Barrier()
					for c := 0; c < nCounters; c++ {
						if got := p.LoadU64(a + memory.Addr(c*64)); got != expect[c] {
							t.Errorf("proc %d: counter %d = %d, want %d", p.ID(), c, got, expect[c])
						}
					}
					p.Barrier()
				})
			})
		}
	}
}

// fetchCycles runs one 64-byte read miss by reader of a block homed at
// processor 0 of a Base-Shasta system and returns its latency in cycles.
func fetchCycles(t *testing.T, cal Calibration, procs, reader int) int64 {
	t.Helper()
	s := New(Config{NumProcs: procs, ProcsPerNode: 4, Clustering: 1, HeapBytes: 1 << 20, Cal: cal})
	a := s.AllocPlaced(64, 64, 0)
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == reader {
			_ = p.LoadF64(a)
		}
		p.Barrier()
	})
	var sum, n int64
	for i := range s.Stats().Procs {
		sum += s.Stats().Procs[i].ReadLatencySum
		n += s.Stats().Procs[i].ReadLatencyCount
	}
	if n != 1 {
		t.Fatalf("%d read misses timed, want 1", n)
	}
	return sum
}

func TestReadLatencyCalibration(t *testing.T) {
	// A remote 2-hop 64-byte fetch should take roughly 20 us, and an
	// intra-node fetch roughly 11 us, per the paper's measurements. Doubling
	// the Memory Channel wire latency adds the difference once per
	// inter-node leg of the 2-hop fetch and leaves the intra-node fetch
	// alone.
	slow := DefaultCalibration()
	slow.Net.RemoteWire *= 2
	cals := []Calibration{DefaultCalibration(), slow}
	var remote, local [2]int64
	for i, cal := range cals {
		remote[i], local[i] = fetchCycles(t, cal, 8, 4), fetchCycles(t, cal, 4, 1)
	}
	us := func(c int64) float64 { return float64(c) / 300 }
	if r := us(remote[0]); r < 14 || r > 26 {
		t.Errorf("remote 2-hop latency = %.1f us, want ~20", r)
	}
	if l := us(local[0]); l < 7 || l > 15 {
		t.Errorf("local fetch latency = %.1f us, want ~11", l)
	}
	if local[0] >= remote[0] {
		t.Errorf("local latency %.1f not below remote %.1f", us(local[0]), us(remote[0]))
	}
	dWire := cals[1].Net.RemoteWire - cals[0].Net.RemoteWire
	if got := remote[1] - remote[0]; got != 2*dWire {
		t.Errorf("wire x2: remote fetch rose %d cycles, want 2 x %d", got, dWire)
	}
	if got := local[1] - local[0]; got != 0 {
		t.Errorf("wire x2: intra-node fetch moved %d cycles, want 0", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumProcs: -1},
		{NumProcs: 8, ProcsPerNode: 4, Clustering: 8},
		{NumProcs: 8, ProcsPerNode: 4, Clustering: 3},
	}
	for _, c := range bad {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestStatsResetExcludesInit(t *testing.T) {
	s := testSystem(8, 1)
	a := s.AllocPlaced(4096, 64, 4)
	s.Run(func(p *Proc) {
		// Init phase: proc 0 writes everything (lots of misses).
		if p.ID() == 0 {
			for off := int64(0); off < 4096; off += 8 {
				p.StoreF64(a+memory.Addr(off), 1.0)
			}
		}
		p.Barrier()
		if p.ID() == 0 {
			p.ResetStats()
		}
		p.Barrier()
		p.Barrier()
	})
	if m := s.Stats().TotalMisses(); m != 0 {
		t.Errorf("misses after reset = %d, want 0", m)
	}
	if s.Stats().Cycles <= 0 {
		t.Error("parallel time not measured after reset")
	}
}

// TestAllocBeforeRunSeesHomeOwnership pins the initial-ownership invariant
// across its move from allocation time to the start of Run: allocating
// builds no image or table, and the first instruction of the program finds
// every allocated block exclusive and zero-filled at its home processor's
// group (and in the home's private table), invalid and flag-filled
// everywhere else — alignment gaps and the page tail included — for every
// allocation call and under every protocol variant.
func TestAllocBeforeRunSeesHomeOwnership(t *testing.T) {
	for _, cfg := range []Config{
		{NumProcs: 8, Clustering: 1},
		{NumProcs: 8, Clustering: 4},
		{NumProcs: 8, Clustering: 4, Migrate: true},
		{NumProcs: 8, Clustering: 1, Migrate: true},
		{NumProcs: 4, Hardware: true},
	} {
		cfg.ProcsPerNode, cfg.HeapBytes = 4, 1<<20
		name := fmt.Sprintf("p%d c%d migrate=%v hardware=%v", cfg.NumProcs, cfg.Clustering, cfg.Migrate, cfg.Hardware)
		s := New(cfg)
		n := cfg.NumProcs
		small := s.Alloc(100, 0) // one block, then a gap to the next page
		plain := s.Alloc(3*memory.PageSize, 64)
		pinned := s.AllocPinned(memory.PageSize+200, 128)
		placed := s.AllocPlaced(2*memory.PageSize, 2048, 3)
		homed := s.AllocHomed(3*memory.PageSize, 192, func(off int64) int { return int(off/memory.PageSize) + 1 })
		for _, g := range s.groups {
			if g.img != nil {
				t.Fatalf("%s: group %d has an image before Run", name, g.id)
			}
		}
		for _, p := range s.procs {
			if p.priv != nil {
				t.Fatalf("%s: proc %d has a private table before Run", name, p.id)
			}
		}
		if s.liveHome != nil {
			t.Fatalf("%s: live-home table built before Run", name)
		}
		// Page homes as each call documents them; the round-robin cursor
		// runs through Alloc and AllocPinned only.
		wantHome := map[memory.Addr]int{
			small: 0, plain: 1 % n, plain + 2*memory.PageSize: 3 % n,
			pinned: 4 % n, pinned + memory.PageSize: 5 % n,
			placed: 3, placed + memory.PageSize: 3,
			homed: 1, homed + memory.PageSize: 2, homed + 2*memory.PageSize: 3,
		}
		s.Run(func(p *Proc) {
			if p.id != 0 {
				return
			}
			for a, h := range wantHome {
				if got := s.homeProc(a); got != h {
					t.Errorf("%s: page at %d homed at %d, want %d", name, a, got, h)
				}
			}
			lay := s.lay
			imgLines := int(lay.Used()+memory.PageSize-1) / memory.PageSize * memory.PageSize / lay.LineSize()
			for li := 0; li < imgLines; li++ {
				addr := lay.LineAddr(li)
				home := -1 // unallocated: nobody's
				if li < lay.UsedLines() && lay.InHeap(addr, 1) {
					base, _ := lay.BlockOf(addr)
					home = s.homeProc(lay.LineAddr(base))
					if got := s.HomeOf(base); got != home {
						t.Errorf("%s: HomeOf(%d) = %d at start, want the configured home %d", name, base, got, home)
					}
				}
				for _, g := range s.groups {
					want, word := memory.Invalid, uint32(memory.FlagWord)
					if home >= 0 && s.procs[home].grp == g {
						want, word = memory.Exclusive, 0
					}
					if got := g.img.State(li); got != want {
						t.Fatalf("%s: line %d (home %d) is %v in group %d, want %v", name, li, home, got, g.id, want)
					}
					for off := 0; off < lay.LineSize(); off += 4 {
						if got := g.img.ReadU32(addr + memory.Addr(off)); got != word {
							t.Fatalf("%s: line %d (home %d) holds %#x in group %d, want %#x", name, li, home, got, g.id, word)
						}
					}
				}
				for _, q := range s.procs {
					if q.priv == nil {
						continue
					}
					want := memory.Invalid
					if q.id == home {
						want = memory.Exclusive
					}
					if got := q.priv.Get(li); got != want {
						t.Fatalf("%s: line %d (home %d) is %v in proc %d's private table, want %v", name, li, home, got, q.id, want)
					}
				}
			}
		})
		if smp := cfg.Clustering > 1 && !cfg.Hardware; (s.procs[0].priv != nil) != smp {
			t.Errorf("%s: private tables built = %v, want %v", name, !smp, smp)
		}
		if mig := cfg.Migrate && !cfg.Hardware; (s.liveHome != nil) != mig {
			t.Errorf("%s: live-home table built = %v, want %v", name, !mig, mig)
		}
		if err := s.CheckCoherence(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWakeDoesNotAllocate pins the shared wake-up message: a burst of 1,000
// wake-ups, after one burst has grown the receiver's inbox and depth buffer
// to fit, allocates nothing, where a message per wake-up allocated 1,000.
func TestWakeDoesNotAllocate(t *testing.T) {
	s := testSystem(4, 4)
	s.Run(func(p *Proc) {
		if p.id != 0 {
			return // wait in the final barrier, handling wake-ups
		}
		burst := func() {
			for i := 0; i < 1000; i++ {
				p.wake(1)
			}
		}
		burst()
		p.Compute(1 << 20) // proc 1 drains its inbox
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		burst()
		runtime.ReadMemStats(&b)
		if n := b.Mallocs - a.Mallocs; n != 0 {
			t.Errorf("1000 wake-ups cost %d mallocs, want 0", n)
		}
	})
}
