package protocol

import (
	"errors"
	"fmt"

	"repro/internal/memchan"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
)

// System is one configured simulated cluster: processors, sharing groups,
// interconnect, shared heap and statistics. Build one with New, allocate
// shared data, then execute a parallel program with Run. Allocation only
// records the layout, the page homes and the placement; the heap images and
// state tables are built at Run, over what was allocated (see materialize).
type System struct {
	cfg Config
	// checks is the inline-check cost table cfg implies.
	checks checkTable
	eng    *sim.Engine
	net    *memchan.Network
	lay    *memory.Layout
	stats  *stats.Run

	groups []*group
	procs  []*Proc

	// pageHome[pg] is the home processor of virtual page pg: two bytes per
	// page of capacity, the one structure not sized to the allocated heap.
	pageHome []int16
	nextHome int
	// started is set when Run materializes the images: from then on the
	// tables have their final extent and allocation is refused.
	started    bool
	numLocks   int
	numBarrier int

	// liveHome[b] (indexed by block base line, built by materialize only
	// under Migrate) is the block's current home after online migration, or -1
	// while it still lives at the configured pageHome. Written only by a
	// block's new home inside the migration handshake — successive writes
	// to one block are ordered by the handshake's happens-before chain,
	// and distinct blocks use distinct slots — and read by observability
	// code after the run.
	liveHome []int32

	// startTime and endTime bound the measured parallel phase, so the
	// reported parallel time excludes initialization and verification.
	startTime, endTime int64

	// statBase holds the per-processor counter baselines recorded by
	// ResetStats (zero until then). Live counters accumulate from the start
	// of the run; Run subtracts the baselines once at the end.
	statBase []stats.Proc

	// tracer receives protocol events when attached (see trace.go);
	// traceSeq numbers them globally in emission order.
	tracer   Tracer
	traceSeq uint64
}

// group is a sharing group: the processors that share application data, the
// shared state table and the miss table through SMP hardware coherence. In
// Base-Shasta (clustering 1) each group has a single member; in hardware
// mode a single group spans every processor.
type group struct {
	id      int
	members []int
	// mask is the precomputed procSet of members, consulted on every
	// upgrade/forward decision (the old per-call loop showed up in host
	// profiles at high processor counts).
	mask procSet
	img  *memory.Image
	// miss is the group's miss table, keyed by block base line.
	miss map[int]*missEntry
	// locks maps a block base line to the processor holding its line
	// lock (SMP-Shasta protocol locking); absent means free.
	locks map[int]int
	// downgrades tracks blocks with intra-group downgrades in flight.
	downgrades map[int]*dgEntry
	// epoch implements the paper's epoch-based release consistency: a
	// release waits only for store misses issued in earlier epochs.
	epoch int64
	// batchMarks counts active batch markers per block base line; the
	// invalid-flag store for marked blocks is deferred until the batch
	// ends (Section 3.4.4).
	batchMarks map[int]int
	// fsArrived counts group members that reached the current barrier
	// (FastSync hierarchical barriers).
	fsArrived int
	// copySeq tags the group's copy of each block with the directory
	// sequence number that produced it, so stale invalidations are
	// detected (see pmsg.seq).
	copySeq map[int]int64
	// detached holds miss entries whose block the group has already
	// given away while invalidation acknowledgements are still
	// outstanding. They no longer represent the block's pending state
	// (new accesses must start fresh requests) but releases still wait
	// for them and arriving acks are credited to them in FIFO order.
	detached map[int][]*missEntry
	// homeView (online migration only) is the group's learned view of
	// re-homed blocks, keyed by block base line: requests go to the
	// viewed home instead of the configured one. Updated from the home
	// hints on replies and invalidations; absent means the configured
	// home (which forwards along its tombstone if the view is stale).
	homeView map[int]int
}

// missEntry records an outstanding request for a block, shared by the
// group's processors (SMP-Shasta merges requests through it).
type missEntry struct {
	baseLine  int
	kind      stats.MissKind
	issuer    int
	issueTime int64
	epoch     int64

	// wantExcl is set when a store hits a block with a read pending; the
	// protocol issues an upgrade after the read data arrives.
	wantExcl     bool
	upgradeSent  bool
	dataArrived  bool
	exclGranted  bool
	acksExpected int
	acksReceived int
	hasStores    bool

	// stores are the pending non-blocking stores merged into the reply.
	stores []storeRec
	// waiters are processors to wake when the entry's data arrives or
	// the entry completes (merged read misses, release stalls).
	waiters procSet
	// queued holds incoming protocol messages that must wait for this
	// entry to complete (e.g. a forward arriving while our own request
	// for the block is still outstanding).
	queued []pmsg

	complete bool
}

// ready reports whether stalled loads may proceed (data present and usable).
func (e *missEntry) ready() bool { return e.dataArrived && (!e.wantExcl || e.exclGranted) }

// dgEntry tracks one in-progress block downgrade within a group.
type dgEntry struct {
	baseLine  int
	remaining int
	// preState is the block's state before the downgrade began; loads
	// and stores compatible with it may be served during the downgrade.
	preState memory.State
	// action is the deferred protocol action, executed by the processor
	// that handles the last downgrade message.
	action func(h *Proc)
	// queued holds requests that arrived during the downgrade.
	queued []pmsg
	// waiters are local processors stalled on the downgrade finishing.
	waiters procSet
	done    bool
}

// dirEntry is the directory information a home processor keeps per block:
// the owner (last processor with an exclusive copy) and a bit vector of
// sharing processors. Only one processor per sharing group appears in the
// vector — the one that requested the data — which keeps per-block protocol
// traffic serialized at one processor per node.
type dirEntry struct {
	owner   int
	sharers procSet
	// seq counts exclusivity grants; see pmsg.seq.
	seq int64
	// dirty records that the owner holds (or has been granted and still
	// awaits) an exclusive copy whose stores the home has not seen
	// downgraded. While dirty, an upgrade request from another group
	// must be converted to a read-exclusive so the owner's data — with
	// its merged stores — flows to the upgrader; granting a plain
	// upgrade would lose them. The owner clears the bit with a
	// SharingUpdate message when a read downgrades it to shared.
	dirty bool
	// mig (online migration only) is the home's incremental per-node
	// miss model for the block; nil until the first counted request, and
	// for blocks excluded from migration. It travels with the directory
	// entry's moved count on a re-home (see migPayload).
	mig *migModel
}

// New builds a system for the configuration. It panics on an invalid
// configuration (a programming error in the experiment setup).
func New(cfg Config) *System {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	topo := cfg.topology()
	s := &System{
		cfg:    cfg,
		checks: cfg.checkTable(),
		eng:    sim.NewEngine(cfg.NumProcs),
		net:    memchan.New(topo, cfg.Cal.Net),
		lay:    memory.NewLayout(cfg.LineSize, cfg.HeapBytes),
		stats:  stats.NewRun(cfg.NumProcs),
	}
	s.pageHome = make([]int16, cfg.HeapBytes/memory.PageSize)
	s.statBase = make([]stats.Proc, cfg.NumProcs)

	groupSize := cfg.Clustering
	if cfg.Hardware {
		groupSize = cfg.NumProcs
	}
	nGroups := (cfg.NumProcs + groupSize - 1) / groupSize
	s.groups = make([]*group, nGroups)
	for gi := range s.groups {
		g := &group{
			id:         gi,
			miss:       make(map[int]*missEntry),
			locks:      make(map[int]int),
			downgrades: make(map[int]*dgEntry),
			batchMarks: make(map[int]int),
			copySeq:    make(map[int]int64),
			detached:   make(map[int][]*missEntry),
		}
		if cfg.Migrate && !cfg.Hardware {
			g.homeView = make(map[int]int)
		}
		for m := gi * groupSize; m < (gi+1)*groupSize && m < cfg.NumProcs; m++ {
			g.members = append(g.members, m)
			g.mask.add(m)
		}
		s.groups[gi] = g
	}

	s.procs = make([]*Proc, cfg.NumProcs)
	for i := range s.procs {
		p := &Proc{
			sys: s,
			id:  i,
			sp:  s.eng.Proc(i),
			grp: s.groups[i/groupSize],
			st:  &s.stats.Procs[i],
			dir: make(map[int]*dirEntry),
		}
		p.sp.Stats = p.st
		p.holdingLock = -1
		p.lockQueues = make(map[int][]int)
		p.lockHeld = make(map[int]bool)
		p.lockGranted = make(map[int]bool)
		p.lockPrev = make(map[int]int)
		p.lockGrantPrev = make(map[int]int)
		p.lockGrantHops = make(map[int]int)
		p.lockHeldFrom = make(map[int]int64)
		s.procs[i] = p
	}

	// Scheduler wiring. Conflict domains are the units that may
	// touch shared simulator-side state at sub-lookahead latencies: the
	// processors of one SMP node (link state, intra-node queues) unioned
	// with those of one sharing group (memory image, miss and downgrade
	// tables). Groups nest inside nodes under every valid configuration
	// except Hardware mode's single global group, so the domains are the
	// nodes — and every cross-domain message is inter-node, which makes
	// the full RemoteWire latency (not the smaller intra-node LocalWire) a
	// valid lookahead.
	s.eng.Parallel = cfg.Parallel
	s.eng.Lookahead = cfg.Cal.Net.RemoteWire
	s.eng.SetDomains(conflictDomains(topo, groupSize, cfg.NumProcs))
	return s
}

// conflictDomains partitions processors by the transitive closure of
// "shares an SMP node" and "shares a sharing group".
func conflictDomains(topo memchan.Topology, groupSize, numProcs int) []int {
	parent := make([]int, numProcs)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// Nodes and groups are contiguous ID ranges, so adjacent unions
	// suffice to merge each range.
	for i := 1; i < numProcs; i++ {
		if topo.SameNode(i-1, i) {
			union(i-1, i)
		}
		if (i-1)/groupSize == i/groupSize {
			union(i-1, i)
		}
	}
	out := make([]int, numProcs)
	for i := range out {
		out[i] = find(i)
	}
	return out
}

// Config returns the system's (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns the run statistics.
func (s *System) Stats() *stats.Run { return s.stats }

// Network returns the interconnect model, for observability snapshots.
func (s *System) Network() *memchan.Network { return s.net }

// Engine returns the simulation engine, for observability snapshots.
func (s *System) Engine() *sim.Engine { return s.eng }

// Layout returns the shared heap layout.
func (s *System) Layout() *memory.Layout { return s.lay }

// NumProcs returns the processor count.
func (s *System) NumProcs() int { return s.cfg.NumProcs }

// HomeOf returns the home processor of the block with the given base line,
// for observability code that relates per-block activity to placement.
// Under online migration this is the live home, reflecting completed
// re-homes.
func (s *System) HomeOf(baseLine int) int {
	if s.liveHome != nil {
		if h := s.liveHome[baseLine]; h >= 0 {
			return int(h)
		}
	}
	return s.homeProc(s.lay.LineAddr(baseLine))
}

// fastSyncBarrier reports whether the hierarchical FastSync barrier is in
// effect.
func (s *System) fastSyncBarrier() bool {
	return s.cfg.FastSync && s.cfg.SMP() && !s.cfg.Hardware
}

// barrierArrivals returns how many arrival messages the barrier manager
// expects per barrier: one per group with FastSync, one per processor
// otherwise.
func (s *System) barrierArrivals() int {
	if s.fastSyncBarrier() {
		return len(s.groups)
	}
	return s.cfg.NumProcs
}

// groupMask returns the bitset of all processors in p's sharing group.
func (s *System) groupMask(p int) procSet { return s.procs[p].grp.mask }

// homeProc returns the home processor of the page containing addr.
func (s *System) homeProc(addr memory.Addr) int {
	return int(s.pageHome[s.lay.PageOf(addr)])
}

// Alloc carves a shared allocation with the given coherence block size
// (0 selects the default policy; see memory.Layout.Alloc), assigning homes
// round-robin across processors page by page, as the base system does.
func (s *System) Alloc(size int64, blockSize int) memory.Addr {
	return s.AllocHomed(size, blockSize, func(off int64) int {
		h := s.nextHome
		s.nextHome = (s.nextHome + 1) % s.cfg.NumProcs
		return h
	})
}

// AllocPlaced allocates with every page homed at the given processor (the
// paper's home placement optimization, used for FMM, LU-Contiguous and
// Ocean).
func (s *System) AllocPlaced(size int64, blockSize int, home int) memory.Addr {
	return s.AllocHomed(size, blockSize, func(int64) int { return home })
}

// AllocPinned allocates like Alloc but pins every block to its configured
// home: online home migration never moves it. Use for data whose placement
// the application already optimized by hand.
func (s *System) AllocPinned(size int64, blockSize int) memory.Addr {
	addr := s.Alloc(size, blockSize)
	s.lay.SetMigratable(addr, size, false)
	return addr
}

// AllocHomed allocates with homes chosen per page by the callback, which
// receives the page-aligned offset from the start of the allocation. Like
// every Alloc variant it must run before Run. Each block starts exclusive and
// zero-filled at its home processor's group; materialize arranges that from
// the page homes recorded here.
func (s *System) AllocHomed(size int64, blockSize int, home func(off int64) int) memory.Addr {
	if s.started {
		panic("shasta: Alloc after Run started: the heap images and state tables are sized " +
			"to the allocated heap when Run begins; allocate all shared data before Run")
	}
	if blockSize > memory.PageSize {
		panic(fmt.Sprintf("shasta: Alloc: block size %d exceeds the %d-byte page, the unit of home assignment",
			blockSize, memory.PageSize))
	}
	// Allocations never share a page, so per-page homes stay consistent.
	s.lay.AlignToPage()
	addr, err := s.lay.Alloc(size, blockSize)
	if err != nil {
		msg := fmt.Sprintf("shasta: Alloc(%d, %d): %v", size, blockSize, err)
		if errors.Is(err, memory.ErrHeapExhausted) {
			msg += fmt.Sprintf(" of Config.HeapBytes %d; raise Config.HeapBytes — capacity is a limit, "+
				"a run builds only what its program allocates", s.cfg.HeapBytes)
		}
		panic(msg)
	}
	// Assign page homes.
	firstPage := s.lay.PageOf(addr)
	lastPage := s.lay.PageOf(addr + memory.Addr(size) - 1)
	for pg := firstPage; pg <= lastPage; pg++ {
		off := int64(pg-firstPage) * memory.PageSize
		h := home(off) % s.cfg.NumProcs
		if h < 0 {
			h += s.cfg.NumProcs
		}
		s.pageHome[pg] = int16(h)
	}
	// Allocations are migration candidates by default; AllocPinned opts
	// out after the fact.
	s.lay.SetMigratable(addr, size, true)
	return addr
}

// materialize builds what Run needs of the heap, sized to what was
// allocated: every group's image, the private state tables (SMP-Shasta) and
// the live-home table (online migration). It then arranges initial
// ownership: each allocated block starts exclusive and zero-filled at its
// home processor's group, invalid and flag-filled everywhere else.
func (s *System) materialize() {
	s.started = true
	for _, g := range s.groups {
		g.img = memory.NewImage(s.lay)
	}
	if s.cfg.SMP() && !s.cfg.Hardware {
		for _, p := range s.procs {
			p.priv = memory.NewPrivateTable(s.lay)
		}
	}
	if s.cfg.Migrate && !s.cfg.Hardware {
		s.liveHome = make([]int32, s.lay.UsedLines())
		for i := range s.liveHome {
			s.liveHome[i] = -1
		}
	}
	for li, n := 0, s.lay.UsedLines(); li < n; {
		addr := s.lay.LineAddr(li)
		base, lines := s.lay.BlockOf(addr)
		li = base + lines
		if !s.lay.InHeap(addr, 1) {
			continue // alignment gap before a page-aligned allocation
		}
		hp := s.procs[s.homeProc(addr)]
		clear(hp.grp.img.BlockData(base))
		hp.grp.img.SetBlockState(base, memory.Exclusive)
		if hp.priv != nil {
			hp.priv.SetBlock(s.lay, base, memory.Exclusive)
		}
	}
}

// AllocLock creates an application lock, homed round-robin.
func (s *System) AllocLock() int {
	id := s.numLocks
	s.numLocks++
	return id
}

// lockHome returns the managing processor of application lock id.
func (s *System) lockHome(id int) int { return id % s.cfg.NumProcs }

// Run executes body on every processor and returns the maximum finish time
// in cycles. It can be called once per System. An implicit final barrier
// keeps every processor servicing protocol messages (directory requests,
// forwards) until all processors have finished their program.
func (s *System) Run(body func(*Proc)) int64 {
	s.materialize()
	finish := s.eng.Run(func(sp *sim.Proc) {
		p := s.procs[sp.ID]
		body(p)
		p.Barrier()
	})
	// Net out the ResetStats baselines (no-op if stats were never reset).
	for i := range s.stats.Procs {
		s.stats.Procs[i].Sub(&s.statBase[i])
	}
	end := s.endTime
	if end == 0 {
		end = finish
	}
	s.stats.Cycles = end - s.startTime
	s.stats.SealMeasured()
	return finish
}

// getDir returns (creating if needed) the directory entry for the block
// with the given base line. The directory lives at the block's home
// processor; only the home may consult it, unless the ShareDirectory
// extension is enabled, in which case any processor of the home's sharing
// group may (accesses are serialized by the group's line locks).
func (p *Proc) getDir(baseLine int) *dirEntry {
	home := p.sys.homeProc(p.sys.lay.LineAddr(baseLine))
	if p.sys.cfg.Migrate {
		// Under online migration the entry may live away from the
		// configured home. Whoever holds it is the live home; the
		// configured home may lazily create it only while it has not
		// migrated the block away (no tombstone).
		if de, ok := p.dir[baseLine]; ok {
			return de
		}
		if home != p.id || p.migrated[baseLine] != nil {
			panic(fmt.Sprintf("protocol: proc %d consulted directory for migrated block %d", p.id, baseLine))
		}
		de := &dirEntry{owner: home, sharers: bit(home), dirty: true}
		p.dir[baseLine] = de
		return de
	}
	holder := p
	if home != p.id {
		hp := p.sys.procs[home]
		if !(p.sys.cfg.ShareDirectory && hp.grp == p.grp) {
			panic(fmt.Sprintf("protocol: proc %d consulted directory for block homed at %d", p.id, home))
		}
		holder = hp
	}
	de, ok := holder.dir[baseLine]
	if !ok {
		de = &dirEntry{owner: home, sharers: bit(home), dirty: true}
		holder.dir[baseLine] = de
	}
	return de
}

// CheckQuiescent verifies protocol quiescence after a run: no outstanding
// miss entries (live or detached), no downgrades in flight, no line locks
// held, no outstanding stores, and every group's state table free of
// pending states. Tests call it to catch protocol leaks.
func (s *System) CheckQuiescent() error {
	for _, g := range s.groups {
		if n := len(g.miss); n != 0 {
			return fmt.Errorf("group %d: %d live miss entries remain", g.id, n)
		}
		if n := len(g.detached); n != 0 {
			return fmt.Errorf("group %d: %d detached miss entries remain", g.id, n)
		}
		if n := len(g.downgrades); n != 0 {
			return fmt.Errorf("group %d: %d downgrades in flight", g.id, n)
		}
		if n := len(g.locks); n != 0 {
			return fmt.Errorf("group %d: %d line locks held", g.id, n)
		}
		if n := len(g.batchMarks); n != 0 {
			return fmt.Errorf("group %d: %d batch marks remain", g.id, n)
		}
		for li := 0; li < s.lay.UsedLines(); li++ {
			if st := g.img.State(li); st != memory.Invalid && !st.Valid() {
				return fmt.Errorf("group %d: line %d left in state %v", g.id, li, st)
			}
		}
	}
	for _, p := range s.procs {
		if p.outstandingStores != 0 {
			return fmt.Errorf("proc %d: %d outstanding stores remain", p.id, p.outstandingStores)
		}
		if p.holdingLock >= 0 {
			return fmt.Errorf("proc %d: still holds line lock %d", p.id, p.holdingLock)
		}
		for base, rec := range p.migrated {
			if !rec.acked {
				return fmt.Errorf("proc %d: migration of block %d never acknowledged", p.id, base)
			}
			if n := len(rec.queued); n != 0 {
				return fmt.Errorf("proc %d: %d requests still queued behind migration of block %d", p.id, n, base)
			}
		}
	}
	return nil
}

// CheckCoherence verifies the single-writer/multi-reader invariant over
// every allocated block: at most one group holds a block Exclusive, and if
// one does, every other group holds it Invalid. Tests call it after a run,
// when the system is quiescent.
func (s *System) CheckCoherence() error {
	if s.cfg.Hardware {
		return nil
	}
	for li := 0; li < s.lay.UsedLines(); li++ {
		excl, valid := -1, 0
		for _, g := range s.groups {
			switch g.img.State(li) {
			case memory.Exclusive:
				if excl >= 0 {
					return fmt.Errorf("line %d exclusive in groups %d and %d", li, excl, g.id)
				}
				excl = g.id
				valid++
			case memory.Shared:
				valid++
			}
		}
		if excl >= 0 && valid > 1 {
			return fmt.Errorf("line %d exclusive in group %d but valid in %d groups", li, excl, valid)
		}
	}
	return nil
}

// CheckValueCoherence verifies that all groups holding a valid copy of a
// block agree on its contents.
func (s *System) CheckValueCoherence() error {
	if s.cfg.Hardware {
		return nil
	}
	lineSize := s.lay.LineSize()
	for li := 0; li < s.lay.UsedLines(); li++ {
		var ref []byte
		refGroup := -1
		for _, g := range s.groups {
			if !g.img.State(li).Valid() {
				continue
			}
			data := g.img.ReadBytes(s.lay.LineAddr(li), lineSize)
			if ref == nil {
				ref, refGroup = data, g.id
				continue
			}
			for i := range data {
				if data[i] != ref[i] {
					return fmt.Errorf("line %d: groups %d and %d disagree at byte %d",
						li, refGroup, g.id, i)
				}
			}
		}
	}
	return nil
}
