package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	shasta "repro"
	"repro/internal/apps"
	"repro/internal/memchan"
	"repro/internal/memory"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/stats"
)

// probes measures the host cost of one call of each layer's public
// functions, from fixtures outside the layers. The numbers do not depend on
// the selected workload; the seed only moves the fixtures' address and
// destination streams.
type probes struct {
	sz   sizing
	rec  *recorder
	root int
	rng  *rand.Rand
	out  map[string]float64
	err  error
}

// sink keeps the compiler from removing a probe loop whose result is unused.
var sink uint64

// runProbes fills out with every workload-independent per-layer metric.
func runProbes(sz sizing, seed uint64, rec *recorder) (map[string]float64, error) {
	p := &probes{sz: sz, rec: rec, rng: rand.New(rand.NewSource(int64(seed))), out: map[string]float64{}}
	rec.workload = "probes"
	p.root = rec.start(0, "probes")
	runtime.GOMAXPROCS(1)
	p.sim()
	p.memchan()
	p.memory()
	p.stats()
	p.protocol()
	p.tracing()
	p.analysers()
	p.parallelGain()
	rec.end(p.root)
	return p.out, p.err
}

func (p *probes) fail(name string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
	}
}

// perOp runs f(n) — n operations, returning how many it did and how long
// they took — with n doubled until one call lasts sz.probeDur, then takes
// the best of three calls. It stores scale × ns per operation under name.
func (p *probes) perOp(name string, scale float64, f func(n int) (ops int64, d time.Duration)) {
	id := p.rec.start(p.root, name)
	n := 64
	ops, d := f(n)
	for d < p.sz.probeDur && n < 1<<26 {
		n *= 2
		ops, d = f(n)
	}
	if ops <= 0 {
		p.fail(name, fmt.Errorf("fixture did no operations"))
		ops = 1
	}
	total := ops
	best := float64(d.Nanoseconds()) / float64(ops)
	for i := 0; i < 2; i++ {
		if ops, d = f(n); ops <= 0 {
			continue
		}
		total += ops
		if v := float64(d.Nanoseconds()) / float64(ops); v < best {
			best = v
		}
	}
	p.rec.setOps(id, total)
	p.rec.end(id)
	p.out[name] = best * scale
}

// loop times a plain loop of n calls of body.
func loop(body func(i int)) func(n int) (int64, time.Duration) {
	return func(n int) (int64, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body(i)
		}
		return int64(n), time.Since(t0)
	}
}

// indices returns 4096 seeded values in [0, n).
func (p *probes) indices(n int) []int {
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = p.rng.Intn(n)
	}
	return idx
}

// engine runs body on a fresh n-processor engine with statistics attached,
// as the protocol attaches them, and returns the wall time of Run.
func engine(n int, setup func(*sim.Engine), body func(*sim.Proc)) (*sim.Engine, time.Duration) {
	e := sim.NewEngine(n)
	for i := 0; i < n; i++ {
		e.Proc(i).Stats = &stats.Proc{}
	}
	if setup != nil {
		setup(e)
	}
	t0 := time.Now()
	e.Run(body)
	return e, time.Since(t0)
}

func (p *probes) sim() {
	// Two processors at equal times: every Advance reaches the other's
	// horizon and hands the host thread over.
	p.perOp("sim.handoff_ns", 1, func(n int) (int64, time.Duration) {
		_, d := engine(2, nil, func(sp *sim.Proc) {
			for i := 0; i < n/2; i++ {
				sp.Advance(stats.Task, 1)
			}
		})
		return int64(n), d
	})
	// One processor alone never yields.
	p.perOp("sim.advance_ns", 1, func(n int) (int64, time.Duration) {
		_, d := engine(1, nil, func(sp *sim.Proc) {
			for i := 0; i < n; i++ {
				sp.Advance(stats.Task, 1)
			}
		})
		return int64(n), d
	})
	// Ping-pong: per message, one Send plus the blocked WaitRecv that
	// receives it.
	p.perOp("sim.sendrecv_ns", 1, func(n int) (int64, time.Duration) {
		_, d := engine(2, nil, func(sp *sim.Proc) {
			for i := 0; i < n/2; i++ {
				if sp.ID == 0 {
					sp.Send(1, 10, nil)
					sp.WaitRecv(stats.Read, "probe")
				} else {
					sp.WaitRecv(stats.Read, "probe")
					sp.Send(0, 10, nil)
				}
			}
		})
		return int64(n), d
	})
	// Four processors emit in bursts, so the engine's emission merge has
	// four streams to order; the one Advance per burst is amortized.
	p.perOp("sim.emit_ns", 1, func(n int) (int64, time.Duration) {
		const burst = 64
		var got int64
		_, d := engine(4, func(e *sim.Engine) {
			e.SetEmitFunc(func(int64, int, any) { got++ })
		}, func(sp *sim.Proc) {
			for i := 0; i < n/4; i += burst {
				for j := 0; j < burst; j++ {
					sp.Emit(j)
				}
				sp.Advance(stats.Task, burst)
			}
		})
		return got, d
	})
	// The parallel scheduler on 16 one-processor domains: host time per
	// window, each window a few Advance calls per domain.
	runtime.GOMAXPROCS(parallelProcs())
	p.perOp("sim.window_ns", 1, func(n int) (int64, time.Duration) {
		e, d := engine(16, func(e *sim.Engine) {
			e.Parallel, e.Lookahead = true, 150
		}, func(sp *sim.Proc) {
			for i := 0; i < n/16; i++ {
				sp.Advance(stats.Task, 50)
			}
		})
		return e.WindowsRun(), d
	})
	runtime.GOMAXPROCS(1)
}

// parallelProcs is the GOMAXPROCS of the parallel-engine measurements.
func parallelProcs() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func (p *probes) memchan() {
	// 16 processors in 4 nodes and 2 node groups: from processor 0, 1-3
	// are local, 4-7 remote within the group, 8-15 across the uplink.
	topo := memchan.Topology{NumProcs: 16, ProcsPerNode: 4, NodesPerGroup: 2}
	route := func(name string, lo, hi int) {
		dst := p.indices(hi - lo)
		p.perOp(name, 1, func(n int) (int64, time.Duration) {
			net := memchan.New(topo, memchan.DefaultParams())
			var d time.Duration
			engine(16, nil, func(sp *sim.Proc) {
				if sp.ID != 0 {
					return
				}
				t0 := time.Now()
				for i := 0; i < n; i++ {
					net.Send(sp, lo+dst[i%len(dst)], 64, nil)
				}
				d = time.Since(t0)
			})
			return int64(n), d
		})
	}
	route("memchan.send_local_ns", 1, 4)
	route("memchan.send_remote_ns", 4, 8)
	route("memchan.send_uplink_ns", 8, 16)
}

func (p *probes) memory() {
	lay := memory.NewLayout(64, 4<<20)
	if _, err := lay.Alloc(4<<20, 64); err != nil {
		p.fail("memory", err)
		return
	}
	img := memory.NewImage(lay)
	priv := memory.NewPrivateTable(lay)
	lines := p.indices(lay.NumLines())
	block := make([]byte, 64)
	p.perOp("memory.state_get_ns", 1, loop(func(i int) {
		li := lines[i%len(lines)]
		sink += uint64(priv.Get(li)) + uint64(img.State(li))
	}))
	p.perOp("memory.read_f64_ns", 1, loop(func(i int) {
		sink += uint64(img.ReadF64(memory.Addr(lines[i%len(lines)] * 64)))
	}))
	p.perOp("memory.fill_flag_ns", 1, loop(func(i int) { img.FillFlag(lines[i%len(lines)]) }))
	p.perOp("memory.copy_block_ns", 1, loop(func(i int) { img.CopyBlockIn(lines[i%len(lines)], block) }))
	p.perOp("memory.new_image_ms", 1e-6, loop(func(int) { sink += uint64(memory.NewImage(lay).State(0)) }))
}

func (p *probes) stats() {
	var sp stats.Proc
	keys := p.indices(1 << 16)
	p.perOp("stats.add_time_ns", 1, loop(func(i int) { sp.AddTime(stats.Task, int64(i&7)) }))
	p.perOp("stats.block_hot_ns", 1, loop(func(int) { sp.Block(42).InvalsRecv++ }))
	// Changing keys defeat the last-block cache, so each call probes the map.
	p.perOp("stats.block_cold_ns", 1, loop(func(i int) { sp.Block(keys[i%len(keys)]).InvalsRecv++ }))
	p.perOp("stats.sync_ns", 1, loop(func(i int) { sp.Sync(stats.SyncLock, i&63).Acquires++ }))

	// Clone and Sub run at every statistics reset, over a shard of 4096
	// blocks. The baseline is tiny against the live counts, so repeated
	// subtraction never empties (and so never deletes) an entry.
	var shard stats.Proc
	for b := 0; b < 4096; b++ {
		shard.Block(b).InvalsRecv = 1 << 40
	}
	base := shard.Clone()
	for _, b := range base.Blocks {
		b.InvalsRecv = 1
	}
	p.perOp("stats.clone_us", 1e-3, loop(func(int) {
		c := shard.Clone()
		sink += uint64(len(c.Blocks))
	}))
	p.perOp("stats.sub_us", 1e-3, loop(func(int) { shard.Sub(&base) }))
}

// missFixture is the harness's micro-benchmark arrangement, looped: an array
// of blocks homed at one processor, taken exclusive by each writer in turn,
// then accessed block by block by the reader. Every access is one miss of
// the same kind.
type missFixture struct {
	cfg     shasta.Config
	home    int
	writers []int
	reader  int
	store   bool // the measured access is a store, not a load
	blocks  int
}

// run returns the average virtual read latency (us) and the host ns per
// measured miss.
func (f missFixture) run() (virtUs, hostNs float64, err error) {
	f.cfg.HeapBytes = 1 << 20
	c, err := shasta.NewCluster(f.cfg)
	if err != nil {
		return 0, 0, err
	}
	arr := c.AllocPlaced(int64(f.blocks)*64, 64, f.home)
	var host time.Duration
	res := c.Run(func(sp *shasta.Proc) {
		for _, w := range f.writers {
			if sp.ID() == w {
				for b := 0; b < f.blocks; b++ {
					sp.StoreF64(arr+shasta.Addr(b*64), float64(w))
				}
			}
			sp.Barrier()
		}
		if sp.ID() == 0 {
			sp.ResetStats()
		}
		sp.Barrier()
		t0 := time.Now()
		if sp.ID() == f.reader {
			for b := 0; b < f.blocks; b++ {
				if f.store {
					sp.StoreF64(arr+shasta.Addr(b*64), 1)
				} else {
					sink += uint64(sp.LoadF64(arr + shasta.Addr(b*64)))
				}
			}
		}
		// The barrier is a release: outstanding store misses complete.
		sp.Barrier()
		if sp.ID() == f.reader {
			host = time.Since(t0)
		}
	})
	misses := res.Stats.TotalMisses()
	if misses < int64(f.blocks) {
		return 0, 0, fmt.Errorf("fixture produced %d misses on %d blocks", misses, f.blocks)
	}
	return res.Stats.AvgReadLatencyMicros(), float64(host.Nanoseconds()) / float64(misses), nil
}

// bestOf3 stores the smallest of three runs of f under name.
func (p *probes) bestOf3(name string, ops int64, f func() (float64, error)) {
	id := p.rec.start(p.root, name)
	best := 0.0
	for i := 0; i < 3; i++ {
		v, err := f()
		if err != nil {
			p.fail(name, err)
			break
		}
		if i == 0 || v < best {
			best = v
		}
	}
	p.rec.setOps(id, 3*ops)
	p.rec.end(id)
	p.out[name] = best
}

func (p *probes) protocol() {
	// Hits: one processor under the SMP-Shasta inline checks the 16- and
	// 64-processor workloads run.
	one := shasta.Config{Procs: 1, ForceSMPChecks: true, HeapBytes: 1 << 20}
	idx := p.indices(512)
	hit := func(name string, body func(sp *shasta.Proc, arr shasta.Addr, i int)) {
		p.perOp(name, 1, func(n int) (int64, time.Duration) {
			c, err := shasta.NewCluster(one)
			if err != nil {
				p.fail(name, err)
				return 1, 0
			}
			arr := c.Alloc(512*8, 64)
			t0 := time.Now()
			c.Run(func(sp *shasta.Proc) {
				for i := 0; i < n; i++ {
					body(sp, arr, i)
				}
			})
			return int64(n), time.Since(t0)
		})
	}
	hit("protocol.load_hit_ns", func(sp *shasta.Proc, arr shasta.Addr, i int) {
		sink += uint64(sp.LoadF64(arr + shasta.Addr(idx[i%len(idx)]*8)))
	})
	hit("protocol.store_hit_ns", func(sp *shasta.Proc, arr shasta.Addr, i int) {
		sp.StoreF64(arr+shasta.Addr(idx[i%len(idx)]*8), 1)
	})
	// One batch over a 64-element range, every element loaded; per batch.
	hit("protocol.batch_hit_ns", func(sp *shasta.Proc, arr shasta.Addr, i int) {
		base := arr + shasta.Addr((i%8)*512)
		sp.Batch([]shasta.BatchRef{{Base: base, Bytes: 512}}, func(b *shasta.Batch) {
			for e := 0; e < 64; e++ {
				sink += uint64(b.LoadF64(base + shasta.Addr(e*8)))
			}
		})
	})

	// Misses: three nodes, so the home, the owner and the reader can each
	// sit on their own.
	smp12 := shasta.Config{Procs: 12, Clustering: 4}
	n := p.sz.fixtureOps
	miss := func(name string, f missFixture) {
		f.blocks = n
		p.bestOf3(name, int64(n), func() (float64, error) {
			_, ns, err := f.run()
			return ns, err
		})
	}
	miss("protocol.read_miss_2hop_ns", missFixture{cfg: smp12, home: 8, reader: 4})
	miss("protocol.read_miss_3hop_ns", missFixture{cfg: smp12, home: 8, writers: []int{0}, reader: 4})
	miss("protocol.downgrade_ns", missFixture{cfg: smp12, home: 8, writers: []int{0, 1}, reader: 4})
	miss("protocol.write_miss_ns", missFixture{cfg: smp12, home: 8, reader: 4, store: true})

	// Accuracy: the three latencies the repository holds from the paper, in
	// the arrangements harness.FetchLatencies and MicroDowngradeLatency use.
	virt := func(f missFixture) float64 {
		f.blocks = 1
		us, _, err := f.run()
		if err != nil {
			p.fail("protocol.virt", err)
		}
		return us
	}
	p.out["protocol.virt_fetch_2hop_us"] = virt(missFixture{cfg: shasta.Config{Procs: 8, Clustering: 1}, home: 0, reader: 4})
	p.out["protocol.virt_fetch_local_us"] = virt(missFixture{cfg: shasta.Config{Procs: 4, Clustering: 1}, home: 0, reader: 1})
	smp8 := shasta.Config{Procs: 8, Clustering: 4}
	p.out["protocol.virt_downgrade_first_us"] = virt(missFixture{cfg: smp8, home: 7, writers: []int{0, 1}, reader: 4}) -
		virt(missFixture{cfg: smp8, home: 7, writers: []int{0}, reader: 4})

	// Synchronization: the wall time of a run that does nothing else.
	syncRun := func(name string, cfg shasta.Config, ops int, body func(sp *shasta.Proc, lock int)) {
		cfg.HeapBytes = 1 << 20
		p.bestOf3(name, int64(ops), func() (float64, error) {
			c, err := shasta.NewCluster(cfg)
			if err != nil {
				return 0, err
			}
			lock := c.AllocLock() + 2 // lock 2 is managed by processor 2, not by a contender
			c.AllocLock()
			c.AllocLock()
			t0 := time.Now()
			c.Run(func(sp *shasta.Proc) { body(sp, lock) })
			return float64(time.Since(t0).Nanoseconds()) / float64(ops), nil
		})
	}
	// Two processors on different nodes pass one lock back and forth.
	syncRun("protocol.lock_handoff_ns", smp8, 2*n, func(sp *shasta.Proc, lock int) {
		if sp.ID() != 1 && sp.ID() != 5 {
			return
		}
		for i := 0; i < n; i++ {
			sp.LockAcquire(lock)
			sp.LockRelease(lock)
		}
	})
	barriers := n / 8
	if barriers < 4 {
		barriers = 4
	}
	barrier := func(sp *shasta.Proc, _ int) {
		for i := 0; i < barriers; i++ {
			sp.Barrier()
		}
	}
	syncRun("protocol.barrier16_ns", shasta.Config{Procs: 16, Clustering: 4}, barriers, barrier)
	syncRun("protocol.barrier64_fastsync_ns",
		shasta.Config{Procs: 64, Clustering: 4, NodesPerGroup: 4, FastSync: true}, barriers, barrier)
}

// tracing prices one trace event on the lu8-traced configuration: the same
// run untraced, with an in-memory collector, and with the JSONL sink.
func (p *probes) tracing() {
	ev := shasta.TraceEvent{Seq: 123456, Time: 7654321, Proc: 5, Op: "send", Msg: "ReadReq", BaseLine: 4242,
		Detail: "to p12 req=5 seq=17"}
	p.perOp("obsv.write_event_ns", 1, loop(func(int) {
		if err := obsv.WriteEvent(io.Discard, ev); err != nil {
			p.fail("obsv.write_event_ns", err)
		}
	}))

	id := p.rec.start(p.root, "tracing.lu8")
	defer p.rec.end(id)
	app := apps.Registry[p.sz.lu]
	cfg := p.sz.flat(p.sz.procs8)
	wall := func(name string, tr shasta.Tracer) time.Duration {
		sid := p.rec.start(id, name)
		defer p.rec.end(sid)
		runtime.GC()
		t0 := time.Now()
		if _, err := execute(nil, 0, app(1), cfg, tr); err != nil {
			p.fail(name, err)
		}
		return time.Since(t0)
	}
	untraced := wall("tracing.untraced", nil)
	col := &shasta.CollectorTracer{}
	collected := wall("tracing.collector", col)
	events := float64(len(col.Events))
	col.Events = nil
	jsonl := obsv.NewJSONLWriterSink(io.Discard)
	sunk := wall("tracing.jsonl", jsonl)
	if err := jsonl.Close(); err != nil {
		p.fail("tracing.jsonl", err)
	}
	if events == 0 {
		p.fail("tracing.collector", fmt.Errorf("no events collected"))
		return
	}
	p.out["protocol.trace_collector_ns"] = float64((collected - untraced).Nanoseconds()) / events
	p.out["obsv.sink_ns"] = float64((sunk - collected).Nanoseconds()) / events
	p.out["obsv.trace_overhead_x"] = sunk.Seconds() / untraced.Seconds()
}

// analysers prices the reader and the six analysers per event, on the trace
// the trace-analyze workload uses.
func (p *probes) analysers() {
	id := p.rec.start(p.root, "analysers")
	defer p.rec.end(id)
	data, _, err := generateTrace(p.sz.flat(p.sz.procs16))
	if err != nil {
		p.fail("analysers", err)
		return
	}
	a, err := analyzeTrace(p.rec, id, data)
	if err != nil {
		p.fail("analysers", err)
		return
	}
	for name, d := range a.ns {
		p.out[name] = float64(d.Nanoseconds()) / float64(a.events)
	}
	p.out["obsv.read_trace_allocs"] = float64(a.readTraceAllocs) / float64(a.events)
}

// parallelGain is the serial engine's wall time over the parallel engine's,
// on the water64-fastsync-par configuration, one rep each.
func (p *probes) parallelGain() {
	id := p.rec.start(p.root, "sim.parallel_gain_x")
	defer p.rec.end(id)
	cfg := p.sz.hier64()
	wall := func(parallel bool) time.Duration {
		cfg.Parallel = parallel
		runtime.GC()
		t0 := time.Now()
		if _, err := execute(nil, 0, apps.NewWaterNsq(1), cfg, nil); err != nil {
			p.fail("sim.parallel_gain_x", err)
		}
		return time.Since(t0)
	}
	serial := wall(false)
	runtime.GOMAXPROCS(parallelProcs())
	par := wall(true)
	runtime.GOMAXPROCS(1)
	p.out["sim.parallel_gain_x"] = serial.Seconds() / par.Seconds()
}
