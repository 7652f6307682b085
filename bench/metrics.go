package main

// metric is one named number the benchmark prints. The names are the
// contract: BENCHMARK.json lists them, `compare` keys on them, and a later
// issue claims a gain by quoting one.
type metric struct {
	Name string
	Unit string
	// Kind is "host" (what the simulator costs on this machine; noisy) or
	// "virtual" (what the modelled 300 MHz cluster does; repeats exactly).
	Kind string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the old median an end-to-end host metric may
	// worsen by before `compare` calls it a regression. Virtual metrics and
	// exact counts have no bound: any difference is a divergence.
	Bound float64
	// Exact marks a value that must repeat bit for bit on the same seed.
	Exact bool
	// Best marks a timing reported as its fastest sample instead of the
	// median (see endToEnd).
	Best bool
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; on every other workload the prediction is
	// no change.
	Moves string
}

// endToEnd are the numbers a user of the simulator sees, reported per
// workload from the timed pass only.
//
// The two timings are the fastest sample, not the median: the host is shared,
// and what a neighbour does to a rep only ever adds time, in bursts of seconds
// to minutes (150 back-to-back Ocean reps spread from 1.25 to 1.80 s with no
// other process in the VM, CPU time moving with wall time). Over runs of six
// reps the medians spread 18% and the minima 11%, which is the difference
// between meeting the 10% bound and not. internal/harness times its scale
// experiment the same way, for the same reason.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Kind: "host", Better: "lower", Bound: 0.10, Best: true},
	{Name: "virtual_cycles", Unit: "cycles", Kind: "virtual", Better: "lower", Exact: true},
	{Name: "alloc_mb", Unit: "MiB", Kind: "host", Better: "lower", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Kind: "host", Better: "lower", Bound: 0.15, Best: true},
}

const (
	onOcean   = "wall_s on ocean16-serial, then lu16-serial and synth16-mix"
	onWater   = "wall_s on water64-fastsync-par"
	onTraced  = "wall_s and alloc_mb on lu8-traced"
	onLU      = "wall_s on lu16-serial"
	onSynth   = "wall_s on synth16-mix"
	onAnalyze = "wall_s and alloc_mb on trace-analyze"
	onSame    = "wall_s and setup_s of the same workload"
)

// perLayer are the single-layer numbers of the traced pass. Probe metrics
// (host ns per call of one public function) are the same whichever workload
// is selected; counts and shares belong to the selected workload.
var perLayer = []metric{
	// sim: the engine's scheduling primitives.
	{Name: "sim.handoff_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onOcean},
	{Name: "sim.advance_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onOcean},
	{Name: "sim.sendrecv_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "sim.emit_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onTraced},
	{Name: "sim.window_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onWater},
	{Name: "sim.parallel_gain_x", Unit: "x", Kind: "host", Better: "higher", Moves: onWater},

	// memchan: one Network.Send per route, and the workload's traffic.
	{Name: "memchan.send_local_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "memchan.send_remote_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "memchan.send_uplink_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onWater},
	{Name: "memchan.remote_msgs", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial and water64-fastsync-par"},
	{Name: "memchan.local_msgs", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial and water64-fastsync-par"},
	{Name: "memchan.downgrade_msgs", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial"},
	{Name: "memchan.link_wait_cycles", Unit: "cycles", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on water64-fastsync-par"},

	// memory: state tables, flag checks and block copies.
	{Name: "memory.state_get_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onSynth},
	{Name: "memory.read_f64_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onSynth},
	{Name: "memory.fill_flag_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "memory.copy_block_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "memory.new_image_ms", Unit: "ms", Kind: "host", Better: "lower", Moves: "wall_s on water64-fastsync-par (16 images per rep)"},

	// stats: the counter shards the protocol updates on its hot path.
	{Name: "stats.add_time_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onOcean},
	{Name: "stats.block_hot_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "stats.block_cold_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "stats.sync_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s on water64-fastsync-par and synth16-mix"},
	{Name: "stats.clone_us", Unit: "us", Kind: "host", Better: "lower", Moves: "wall_s and alloc_mb on lu16-serial"},
	{Name: "stats.sub_us", Unit: "us", Kind: "host", Better: "lower", Moves: "wall_s and alloc_mb on lu16-serial"},

	// protocol: host cost of one operation, from fixtures over shasta.Cluster.
	{Name: "protocol.load_hit_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s on synth16-mix and ocean16-serial"},
	{Name: "protocol.store_hit_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s on synth16-mix and ocean16-serial"},
	{Name: "protocol.batch_hit_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s on ocean16-serial and lu16-serial"},
	{Name: "protocol.read_miss_2hop_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "protocol.read_miss_3hop_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "protocol.write_miss_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "protocol.downgrade_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onLU},
	{Name: "protocol.lock_handoff_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s on water64-fastsync-par and synth16-mix"},
	{Name: "protocol.barrier16_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s on the three 16-processor workloads"},
	{Name: "protocol.barrier64_fastsync_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onWater},

	// protocol: what the selected workload did, exactly.
	{Name: "protocol.checks", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles of the same workload"},
	{Name: "protocol.misses", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles of the same workload"},
	{Name: "protocol.messages", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles of the same workload"},
	{Name: "protocol.stall_events", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles of the same workload"},
	{Name: "protocol.share_task", Unit: "share", Kind: "virtual", Better: "higher", Exact: true, Moves: "virtual_cycles of the same workload"},
	{Name: "protocol.share_read", Unit: "share", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial"},
	{Name: "protocol.share_write", Unit: "share", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial"},
	{Name: "protocol.share_sync", Unit: "share", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on water64-fastsync-par"},
	{Name: "protocol.share_message", Unit: "share", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial"},
	{Name: "protocol.share_other", Unit: "share", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles of the same workload"},
	{Name: "protocol.host_ns_per_check", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s of the same workload, after a model change moved its counts"},
	{Name: "protocol.host_ns_per_msg", Unit: "ns", Kind: "host", Better: "lower", Moves: "wall_s of the same workload, after a model change moved its counts"},

	// protocol: the three latencies the repository holds from the paper.
	{Name: "protocol.virt_fetch_2hop_us", Unit: "us", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial (paper: about 20)"},
	{Name: "protocol.virt_fetch_local_us", Unit: "us", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial (paper: about 11)"},
	{Name: "protocol.virt_downgrade_first_us", Unit: "us", Kind: "virtual", Better: "lower", Exact: true, Moves: "virtual_cycles on lu16-serial (paper: about +10)"},

	// protocol + obsv: what tracing costs per event, on the lu8-traced configuration.
	{Name: "protocol.trace_collector_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onTraced},
	{Name: "obsv.sink_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onTraced},
	{Name: "obsv.trace_overhead_x", Unit: "x", Kind: "host", Better: "lower", Moves: onTraced},
	{Name: "obsv.write_event_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onTraced},
	{Name: "obsv.trace_events", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: onTraced},
	{Name: "obsv.trace_bytes", Unit: "count", Kind: "virtual", Better: "lower", Exact: true, Moves: onTraced},

	// obsv: the analysers, per event of the Water-Nsq trace.
	{Name: "obsv.read_trace_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.summarize_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.build_causal_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.check_trace_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.build_spans_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.build_sync_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.detect_races_ns", Unit: "ns", Kind: "host", Better: "lower", Moves: onAnalyze},
	{Name: "obsv.read_trace_allocs", Unit: "1/event", Kind: "host", Better: "lower", Moves: "alloc_mb on trace-analyze"},
	{Name: "obsv.snap_ms", Unit: "ms", Kind: "host", Better: "lower", Moves: onTraced},

	// apps: the parts of a rep that are not the protocol run.
	{Name: "apps.hardware_wall_s", Unit: "s", Kind: "host", Better: "lower", Moves: "setup_s of the same workload; the floor of its wall_s"},
	{Name: "apps.new_cluster_ms", Unit: "ms", Kind: "host", Better: "lower", Moves: onSame},
	{Name: "apps.setup_ms", Unit: "ms", Kind: "host", Better: "lower", Moves: onSame},

	// The ledger itself.
	{Name: "ledger.explained_share", Unit: "share", Kind: "host", Better: "higher", Moves: "nothing: it is the part of wall_s the probes account for"},
	{Name: "bench.trace_overhead_x", Unit: "x", Kind: "host", Better: "lower", Moves: "nothing: it is the cost of the benchmark's own spans"},
}
