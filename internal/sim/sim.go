// Package sim implements a deterministic discrete-event simulation engine
// for a cluster of processors.
//
// Each simulated processor runs its program as a runtime coroutine
// (iter.Pull) that the scheduler's own control flow resumes for one slice at
// a time. Under the default serial scheduler execution is strictly
// cooperative: exactly one processor context executes at any instant, and the
// scheduler always resumes the runnable processor with the smallest virtual
// time (ties broken by processor ID). Processors advance their own virtual
// clocks explicitly and exchange timestamped messages; a message sent at
// time t with latency d is visible to the destination no earlier than t+d.
//
// The engine also offers a conservative parallel scheduler (see
// parallel.go): when every cross-domain message has a minimum latency L
// (the Lookahead), all processors whose next-run time falls inside the
// window [T, T+L) can execute concurrently on real goroutines without
// violating causality — no message sent inside the window can arrive inside
// it. Message delivery order, statistics, emission order and inbox-depth
// accounting are all defined in terms of virtual time with deterministic
// tie-breaks, so the same program and configuration produce bit-identical
// results under either scheduler.
//
// The engine is the substitute for the paper's physical cluster of four
// AlphaServer 4100s: virtual clocks play the role of the 300 MHz 21164
// processors and message latencies are supplied by a pluggable network
// model (see package memchan).
package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Message is a timestamped payload in flight between two processors.
type Message struct {
	Src     int   // sending processor ID
	Dst     int   // receiving processor ID
	Arrival int64 // earliest cycle at which the destination may observe it
	// sendTime and srcSeq make delivery order a pure function of virtual
	// time: messages are ordered by (Arrival, sendTime, Src, srcSeq), a
	// total order (srcSeq is a per-sender counter) that does not depend on
	// which scheduler interleaved the sends.
	sendTime int64
	srcSeq   uint64
	Payload  any
}

// procState is a processor's scheduling state. A yielding processor hands
// the scheduler the state it parks in: stateReady or stateBlocked.
type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked // waiting for a message
	stateDone
)

// emitRec is one deferred emission (see Proc.Emit).
type emitRec struct {
	time    int64
	payload any
}

// depthEvent tracks inbox occupancy in virtual time: a message occupies its
// destination's inbox from its send time until the destination pops it.
// Both schedulers record the same (time, kind) multiset, so the peak depth
// is scheduler-independent.
type depthEvent struct {
	time int64
	pop  bool
}

// Proc is one simulated processor context. All methods must be called only
// from the processor's own body function (the engine enforces single
// ownership: cooperative under the serial scheduler, per-conflict-domain
// under the parallel one).
type Proc struct {
	// ID is the processor's index in [0, NumProcs).
	ID int

	// Stats receives the processor's time attribution; it may be nil, in
	// which case time is tracked but not attributed to categories.
	Stats *stats.Proc

	eng     *Engine
	now     int64
	horizon int64
	state   procState
	inbox   msgHeap
	body    func(*Proc)
	// next and stop are the scheduler's handles on the processor's coroutine
	// and yield is the body's way back out of it (see startProcs). slices
	// counts the times the scheduler resumed it (see Engine.SlicesRun).
	next   func() (procState, bool)
	stop   func()
	yield  func(procState) bool
	slices int64
	// blockedAt records where a processor blocked, for deadlock reports.
	blockedAt string
	// sendSeq counts this processor's sends; it is the final tie-break of
	// message delivery order and resets on every Run.
	sendSeq uint64
	// domain is the processor's conflict-domain index (parallel scheduler).
	domain int
	// outbox stages cross-domain sends during a parallel window; the
	// coordinator merges them at the window boundary.
	outbox []Message
	// emits buffers Emit calls until the global virtual-time floor passes
	// them; emitStart is the already-flushed prefix.
	emits     []emitRec
	emitStart int
	// depthPend buffers inbox-depth events until the floor passes them;
	// depthDue is the reusable scratch for folding a batch.
	depthPend []depthEvent
	depthDue  []depthEvent
	depth     int
	peakDepth int
	// flushListed marks the processor as present in Engine.flushList.
	flushListed bool
}

// PeakInboxDepth returns the largest number of messages ever simultaneously
// pending for this processor, measured in virtual time: a message counts
// from its send time until the processor receives it. Valid after Run.
func (p *Proc) PeakInboxDepth() int { return p.peakDepth }

// Now returns the processor's current virtual time in cycles.
func (p *Proc) Now() int64 { return p.now }

// Advance moves the processor's clock forward by cycles and attributes the
// time to the given breakdown category. It may transfer control to another
// processor whose virtual time is now smaller.
func (p *Proc) Advance(c stats.TimeCategory, cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: proc %d advanced by negative cycles %d", p.ID, cycles))
	}
	p.now += cycles
	if p.Stats != nil {
		p.Stats.AddTime(c, cycles)
	}
	// Yield as soon as any other processor could have an action at or
	// before the new time (now >= horizon, not just past it): equal-time
	// actions across processors then always execute in processor-ID order
	// — the scheduler's pick rule — rather than in an order dependent on
	// where earlier slices happened to end. That canonical tie order is
	// what makes the serial and parallel schedulers produce identical
	// results when same-time actions touch shared model state (for
	// example, per-node link reservations in memchan).
	if p.now >= p.horizon {
		p.doYield(stateReady)
	}
}

// AdvanceTo moves the clock to an absolute time (no-op if already past it),
// attributing the waited interval to the category.
func (p *Proc) AdvanceTo(c stats.TimeCategory, t int64) {
	if t > p.now {
		p.Advance(c, t-p.now)
	}
}

// Yield gives other processors with smaller or equal virtual times a chance
// to run. Programs rarely need it; Advance and the receive calls yield on
// their own.
func (p *Proc) Yield() { p.doYield(stateReady) }

// Send delivers payload to processor dst with the given latency in cycles.
// The destination can observe the message once its own clock reaches the
// arrival time. Under the parallel scheduler, a send to another conflict
// domain must arrive no earlier than the engine's Lookahead after the start
// of the current window (guaranteed when every cross-domain latency is at
// least the Lookahead).
func (p *Proc) Send(dst int, latency int64, payload any) {
	if latency < 0 {
		panic(fmt.Sprintf("sim: proc %d sent with negative latency %d", p.ID, latency))
	}
	p.post(dst, p.now+latency, payload)
}

// SendAt is like Send but schedules arrival at an absolute time, which must
// not precede the current time.
func (p *Proc) SendAt(dst int, arrival int64, payload any) {
	if arrival < p.now {
		panic(fmt.Sprintf("sim: proc %d scheduled arrival %d before now %d", p.ID, arrival, p.now))
	}
	p.post(dst, arrival, payload)
}

// post validates the destination and routes the message: directly into the
// destination's inbox when the destination is scheduled by the same control
// flow (serial mode, or same conflict domain), staged in the sender's
// outbox for the window-boundary merge otherwise.
func (p *Proc) post(dst int, arrival int64, payload any) {
	e := p.eng
	if dst < 0 || dst >= len(e.procs) {
		panic(fmt.Sprintf("sim: proc %d sent to invalid destination %d (NumProcs %d)",
			p.ID, dst, len(e.procs)))
	}
	p.sendSeq++
	m := Message{Src: p.ID, Dst: dst, Arrival: arrival,
		sendTime: p.now, srcSeq: p.sendSeq, Payload: payload}
	if e.windowed && e.procs[dst].domain != p.domain {
		if dd := e.procs[dst].domain; arrival < e.domEnd[dd] {
			panic(fmt.Sprintf(
				"sim: lookahead violation: proc %d (domain %d) sent to proc %d (domain %d) "+
					"arriving at %d inside the destination's window ending at %d; cross-domain "+
					"latency must be at least the lookahead (%d)",
				p.ID, p.domain, dst, dd, arrival, e.domEnd[dd], e.Lookahead))
		}
		// The receiver may react at arrival and reply with at least one
		// more lookahead of latency, so this domain's extended window
		// must not run to arrival+Lookahead or beyond (see parallel.go).
		// Only this domain's processors and its (currently parked) worker
		// touch the slot, so the write is race-free.
		if rc := arrival + e.Lookahead; rc < e.domReflect[p.domain] {
			e.domReflect[p.domain] = rc
		}
		p.outbox = append(p.outbox, m)
	} else {
		e.procs[dst].enqueue(m)
	}
	// The destination may now need to run before this processor's next
	// scheduling point; shrink the horizon so we hand control back in
	// time. (Cross-domain arrivals lie beyond the window horizon already.)
	if arrival < p.horizon {
		p.horizon = arrival
	}
}

// noteDepth buffers one inbox-depth event; a full batch is work for the next
// flush.
func (p *Proc) noteDepth(ev depthEvent) {
	p.depthPend = append(p.depthPend, ev)
	if len(p.depthPend) == depthBatch {
		p.listFlush()
	}
}

// listFlush puts the processor on the engine's flush list (see
// Engine.flushList). Only under the serial scheduler, where everything runs
// on one control flow; the window scheduler's flush finds its work itself.
func (p *Proc) listFlush() {
	if e := p.eng; !p.flushListed && !e.windowed {
		p.flushListed = true
		e.flushList = append(e.flushList, p)
	}
}

// enqueue pushes a message into the inbox and records its depth event.
func (p *Proc) enqueue(m Message) {
	p.inbox.push(m)
	p.noteDepth(depthEvent{time: m.sendTime})
	// A blocked processor's next-run time is its earliest pending arrival,
	// which this message may have just established or lowered: give the
	// serial scheduler's ready heap a fresh key. (Ready processors run at
	// their own clock regardless of mail, and a running one re-keys at its
	// yield, so only the blocked state needs the push.)
	if p.eng.pqActive && p.state == stateBlocked {
		if t, ok := p.eng.nextTime(p); ok {
			p.eng.pqPush(t, p.ID)
		}
	}
}

// popInbox removes the earliest deliverable message and records the
// matching depth event at the pop's virtual time.
func (p *Proc) popInbox() Message {
	m := p.inbox.pop()
	p.noteDepth(depthEvent{time: p.now, pop: true})
	return m
}

// TryRecv returns the earliest message whose arrival time has been reached,
// if any. It does not advance the clock.
func (p *Proc) TryRecv() (Message, bool) {
	if len(p.inbox) > 0 && p.inbox[0].Arrival <= p.now {
		return p.popInbox(), true
	}
	return Message{}, false
}

// PendingArrival reports the arrival time of the earliest queued message,
// delivered or not. Under the parallel scheduler a cross-domain message
// becomes visible here only at the window boundary (always before the
// receiver's clock could reach its arrival time), so programs must not use
// PendingArrival to detect the presence of future messages — only TryRecv
// and WaitRecv have scheduler-independent semantics.
func (p *Proc) PendingArrival() (int64, bool) {
	if len(p.inbox) == 0 {
		return 0, false
	}
	return p.inbox[0].Arrival, true
}

// WaitRecv blocks until a message is available, advances the clock to its
// arrival time if needed (attributing the waited time to category c), and
// returns it. A message sent later by another processor with an earlier
// arrival time correctly shortens the wait: the processor is woken at the
// earliest arrival across its whole inbox.
func (p *Proc) WaitRecv(c stats.TimeCategory, where string) Message {
	for {
		if len(p.inbox) > 0 && p.inbox[0].Arrival <= p.now {
			return p.popInbox()
		}
		p.blockedAt = where
		prev := p.now
		p.doYield(stateBlocked)
		// The scheduler resumed us at the earliest pending arrival;
		// attribute the waited interval to the caller's category.
		if p.Stats != nil && p.now > prev {
			p.Stats.AddTime(c, p.now-prev)
		}
	}
}

// Emit buffers a timestamped payload for the engine's emit function (see
// Engine.SetEmitFunc). Emissions are delivered on the scheduler's control
// thread in deterministic (time, proc, emission order) order once the
// global virtual-time floor has passed them, so a run produces the same
// emission sequence under the serial and parallel schedulers. No-op when no
// emit function is set.
func (p *Proc) Emit(payload any) {
	if p.eng.emitFn == nil {
		return
	}
	p.emits = append(p.emits, emitRec{time: p.now, payload: payload})
	p.listFlush()
}

// Fence schedules f(proc, at) to run once per processor, observing the
// global state at the fence's cut: the caller's current time plus
// Engine.Lookahead. At resolution, at points to processor proc's
// statistics (nil when the processor has no Stats attached) containing
// exactly the charges made strictly before the cut — under either
// scheduler. f must treat at as read-only and must not mutate any
// processor's live Stats — record a snapshot or baseline instead (all
// stats counters are additive, so the embedder can difference baselines
// afterwards).
//
// With Lookahead 0 the cut is the call position itself and f runs inline
// for every processor before Fence returns: at the fence call the caller
// holds the earliest position in the canonical schedule (a processor
// yields the moment its clock reaches any other's next-run time, and
// sending shrinks the sender's own horizon), so the live counters are
// exactly the state at the caller's position.
//
// With Lookahead L > 0, resolution is deferred and Fence returns before f
// runs: the callbacks execute on the scheduler's control thread once the
// schedule has passed the cut (or at the end of the run), with multiple
// fences ordered by (registration time, caller ID). Deferral by one
// lookahead is what makes the observation scheduler-exact at an
// affordable cost: a fence registered inside a parallel window races in
// real time with the processors of other domains, which may already have
// run past the registration position — but never past the end of the
// window, which never exceeds the cut. Both schedulers stop every
// processor exactly at pending cuts (the serial scheduler caps slice
// horizons there, the parallel scheduler truncates window ends), so at
// resolution each has recorded the identical set of charges, and a run
// observes byte-identical fence results under both. This is the hook for
// rare cross-processor reads like statistics resets and captures; see
// DESIGN.md.
func (p *Proc) Fence(f func(proc int, at *stats.Proc)) {
	e := p.eng
	if e.Lookahead <= 0 {
		for _, q := range e.procs {
			f(q.ID, q.Stats)
		}
		return
	}
	e.fenceMu.Lock()
	e.fences = append(e.fences, fenceRec{time: p.now, proc: p.ID, f: f})
	e.fenceMu.Unlock()
	// Cap the caller's own running slice at the cut, exactly like post()
	// does for a message arriving before the horizon.
	cut := p.now + e.Lookahead
	if cut < p.horizon {
		p.horizon = cut
	}
	// Under adaptive windows the caller's domain peers may be scheduled
	// beyond the cut (the domain's extended end can exceed it); cap the
	// domain so they stop there, like the serial scheduler caps slice
	// horizons. Other domains' window ends never exceed the cut: they are
	// bounded by this domain's start time plus one lookahead. The slot is
	// only touched by this domain's processors and its parked worker, so
	// the write is race-free.
	if e.windowed && cut < e.domFenceCap[p.domain] {
		e.domFenceCap[p.domain] = cut
	}
}

// abortSentinel is panicked into a parked processor body when its coroutine
// is stopped, so the body unwinds and the coroutine exits instead of leaking.
type abortSentinel struct{}

// doYield switches back to the scheduler, parking the processor in state st
// until its next slice. If Run is unwinding instead (deadlock, or a panic in
// another body, the emit function or a fence callback), the body unwinds via
// abortSentinel.
func (p *Proc) doYield(st procState) {
	if !p.yield(st) {
		panic(abortSentinel{})
	}
}

// resume switches to p's coroutine for one slice — until the body yields or
// returns — and records the state it parked in. Both schedulers dispatch
// through here, on whichever goroutine is running p's schedule.
func (p *Proc) resume() {
	p.slices++
	st, ok := p.next()
	if !ok {
		st = stateDone
	}
	p.state = st
}

// fenceRec is one registered fence awaiting resolution at its cut,
// time + Engine.Lookahead. The (time, proc) registration position orders
// the callbacks deterministically when several fences resolve together.
type fenceRec struct {
	time int64
	proc int
	f    func(proc int, at *stats.Proc)
}

// minFenceCut returns the earliest pending fence cut, if any. Called only
// from the scheduler's control thread while no processor is running (serial
// slice picks, window boundaries), where registration cannot race.
func (e *Engine) minFenceCut() (int64, bool) {
	var c int64 = math.MaxInt64
	for _, fr := range e.fences {
		if t := fr.time + e.Lookahead; t < c {
			c = t
		}
	}
	return c, c != math.MaxInt64
}

// resolveFences runs the callbacks of every pending fence whose cut has
// been reached: limit is the earliest next action in the schedule (the next
// serial slice pick, the next window floor, or MaxInt64 at the end of the
// run). Because both schedulers stop every processor's slice at pending
// cuts, the live counters at that point hold exactly the charges starting
// before the cut, so the callbacks read them directly. Runs only on the
// scheduler's control thread with every processor parked.
func (e *Engine) resolveFences(limit int64) {
	if len(e.fences) == 0 {
		return
	}
	var due []fenceRec
	rest := e.fences[:0]
	for _, fr := range e.fences {
		if fr.time+e.Lookahead <= limit {
			due = append(due, fr)
		} else {
			rest = append(rest, fr)
		}
	}
	e.fences = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].time != due[j].time {
			return due[i].time < due[j].time
		}
		return due[i].proc < due[j].proc
	})
	for _, fr := range due {
		for _, p := range e.procs {
			fr.f(p.ID, p.Stats)
		}
	}
}

// Engine owns the processors and runs the schedule.
type Engine struct {
	// Parallel selects the conservative window-based parallel scheduler.
	// It takes effect only when Lookahead is positive and the run has more
	// than one conflict domain; otherwise Run silently falls back to the
	// serial scheduler. Results are bit-identical either way.
	Parallel bool
	// Lookahead is the minimum latency of any cross-domain message, in
	// cycles. It bounds how far processors of different domains may run
	// concurrently: all processors whose next-run time falls in [T, T+L)
	// execute in parallel. The embedder must guarantee the bound; the
	// engine panics on a violating send.
	Lookahead int64
	// FixedWindows forces the original fixed [T, T+L) windows, disabling
	// the adaptive per-domain window extension (see parallel.go). Results
	// are bit-identical either way; the knob exists so benchmarks can
	// measure what the adaptive windows buy.
	FixedWindows bool
	// WindowCap bounds how far an adaptive window may run ahead of a
	// domain's own next-run time, in cycles. 0 selects the default of 64
	// lookaheads; values below the lookahead are raised to it.
	WindowCap int64

	procs    []*Proc
	domainOf []int     // optional processor -> domain label (SetDomains)
	domains  [][]*Proc // built per Run from domainOf

	emitFn func(time int64, proc int, payload any)

	// Per-run state, fully reset by Run.
	windowed bool
	panicCh  chan procPanic
	fenceMu  sync.Mutex
	fences   []fenceRec
	// Per-domain window state (see parallel.go). domEnd is immutable
	// while a window's workers run; domFenceCap and domReflect are
	// per-domain truncations written only by the owning domain's
	// processors. All are indexed by domain.
	domNext     []int64
	domEnd      []int64
	domFenceCap []int64
	domReflect  []int64
	// activeBuf and emitHeap are reusable scratch buffers for the window
	// loop and the emission merge (hot paths at high processor counts).
	activeBuf   []int
	emitHeap    []int
	windowCount int64
	// flushList holds the processors flushTo has work for: those with an
	// undelivered emission or a full batch of depth events. Under the serial
	// scheduler, which flushes before every slice, a processor lists itself
	// the moment either becomes true (Proc.listFlush), so a flush with
	// nothing pending visits no processor; the window scheduler's workers
	// cannot share a list, and its once-per-window flush scans instead.
	// flushVisits counts the processors flushTo examined (a host-side
	// diagnostic, like Proc.slices).
	flushList   []*Proc
	flushVisits int64
	// readyPQ is the serial scheduler's (next-run time, processor ID)
	// min-heap; pqActive gates the enqueue-side key pushes to runSerial
	// (the window scheduler keeps its own per-domain schedule). Entries are
	// lazily invalidated — a processor whose key changes gets a fresh entry
	// rather than an in-place update, and consumers discard entries that no
	// longer match the processor's live next-run time.
	readyPQ  []schedEntry
	pqActive bool
}

// schedEntry is one key of the serial scheduler's ready heap. Ordering is
// (time, processor ID), which reproduces the linear scan's tie-break: among
// processors runnable at the same virtual time, the lowest ID runs first.
type schedEntry struct {
	t  int64
	id int
}

func pqLess(a, b schedEntry) bool {
	return a.t < b.t || (a.t == b.t && a.id < b.id)
}

// pqPush inserts a key, sifting up.
func (e *Engine) pqPush(t int64, id int) {
	e.readyPQ = append(e.readyPQ, schedEntry{t, id})
	i := len(e.readyPQ) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(e.readyPQ[i], e.readyPQ[parent]) {
			break
		}
		e.readyPQ[i], e.readyPQ[parent] = e.readyPQ[parent], e.readyPQ[i]
		i = parent
	}
}

// pqPop removes the minimum key, sifting down.
func (e *Engine) pqPop() {
	n := len(e.readyPQ) - 1
	e.readyPQ[0] = e.readyPQ[n]
	e.readyPQ = e.readyPQ[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && pqLess(e.readyPQ[l], e.readyPQ[s]) {
			s = l
		}
		if r < n && pqLess(e.readyPQ[r], e.readyPQ[s]) {
			s = r
		}
		if s == i {
			return
		}
		e.readyPQ[i], e.readyPQ[s] = e.readyPQ[s], e.readyPQ[i]
		i = s
	}
}

// pqTopValid discards stale heap entries until the top one matches its
// processor's live next-run time, and returns it. Because every runnable
// processor always holds at least one live entry (pushed when its key was
// established), an empty result means no processor can run.
func (e *Engine) pqTopValid() (schedEntry, bool) {
	for len(e.readyPQ) > 0 {
		top := e.readyPQ[0]
		if t, ok := e.nextTime(e.procs[top.id]); ok && t == top.t {
			return top, true
		}
		e.pqPop()
	}
	return schedEntry{}, false
}

// NewEngine creates an engine with n processor contexts. Statistics
// attribution can be attached per processor via Proc.Stats before Run.
func NewEngine(n int) *Engine {
	e := &Engine{procs: make([]*Proc, n)}
	for i := range e.procs {
		e.procs[i] = &Proc{ID: i, eng: e}
	}
	return e
}

// NumProcs returns the number of processor contexts.
func (e *Engine) NumProcs() int { return len(e.procs) }

// WindowsRun returns how many parallel windows the last Run executed (0
// under the serial scheduler). It is a host-side scheduling diagnostic —
// never part of simulation results, which are scheduler-independent.
func (e *Engine) WindowsRun() int64 { return e.windowCount }

// SlicesRun returns how many scheduler slices — resumptions of a processor
// context — the last Run dispatched. Like WindowsRun it is a host-side
// diagnostic, never part of simulation results: host time per slice is what
// a context switch costs. Each scheduler's schedule is deterministic, so the
// count repeats exactly (the windowed one also cuts slices at window ends).
func (e *Engine) SlicesRun() int64 {
	var n int64
	for _, p := range e.procs {
		n += p.slices
	}
	return n
}

// Proc returns processor i's context (for wiring Stats before Run).
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// SetEmitFunc installs the sink for Proc.Emit payloads. It is called on
// the scheduler's control thread, strictly ordered by (time, proc,
// per-processor emission order) — identical under both schedulers. Call
// before Run.
func (e *Engine) SetEmitFunc(f func(time int64, proc int, payload any)) { e.emitFn = f }

// SetDomains assigns processors to conflict domains for the parallel
// scheduler: processors sharing a label never execute concurrently (their
// mutual schedule reproduces the serial one exactly), while processors of
// different domains may run in parallel within a lookahead window. All
// communication between domains must go through messages whose latency is
// at least Engine.Lookahead. nil restores the default of one domain per
// processor. Panics if the slice length does not match NumProcs.
func (e *Engine) SetDomains(domainOf []int) {
	if domainOf != nil && len(domainOf) != len(e.procs) {
		panic(fmt.Sprintf("sim: SetDomains got %d labels for %d procs", len(domainOf), len(e.procs)))
	}
	if domainOf == nil {
		e.domainOf = nil
		return
	}
	e.domainOf = append([]int(nil), domainOf...)
}

type procPanic struct {
	id    int
	val   any
	stack []byte
}

// Run executes body on every processor until all complete, and returns the
// maximum finish time in cycles. It panics with a diagnostic if the system
// deadlocks (all processors blocked with no messages in flight) or if any
// processor's body panics. On every exit path — those two, a panic out of
// the emit function or a fence callback, or a normal return — every
// processor coroutine is released first, so failed runs leak nothing. Run
// fully resets engine and processor state first, so one engine can execute
// the same program repeatedly with identical results.
func (e *Engine) Run(body func(*Proc)) int64 {
	e.resetRun(body)
	e.buildDomains()
	e.windowed = e.Parallel && e.Lookahead > 0 && len(e.domains) > 1
	defer func() { e.windowed = false }()
	e.startProcs()
	defer e.stopProcs()

	var maxFinish int64
	if e.windowed {
		maxFinish = e.runWindows()
	} else {
		maxFinish = e.runSerial()
	}
	// Fences whose cut lies beyond the last action observe the final state.
	e.resolveFences(math.MaxInt64)
	e.flushTo(math.MaxInt64)
	return maxFinish
}

// resetRun clears all per-run engine and processor state: clocks, inboxes,
// send sequence counters, staged messages, emission and depth buffers, and
// the captured-panic channel. Reusing an engine is therefore fully
// reproducible.
func (e *Engine) resetRun(body func(*Proc)) {
	e.panicCh = make(chan procPanic, len(e.procs))
	e.fences = nil
	e.windowCount = 0
	e.flushList, e.flushVisits = e.flushList[:0], 0
	e.emitHeap = e.emitHeap[:0]
	e.activeBuf = e.activeBuf[:0]
	e.readyPQ = e.readyPQ[:0]
	for _, p := range e.procs {
		p.body = body
		p.state = stateReady
		p.now, p.horizon = 0, 0
		p.inbox = nil
		p.blockedAt = ""
		p.sendSeq = 0
		p.outbox = nil
		p.emits, p.emitStart = nil, 0
		p.depthPend, p.depthDue = nil, nil
		p.depth, p.peakDepth = 0, 0
		p.flushListed = false
		p.slices = 0
	}
}

// startProcs creates one coroutine per processor. The body starts on the
// processor's first slice and its return ends the coroutine; a body panic is
// captured for the scheduler (the slice then reads as the body returning)
// and a stop unwinds the body silently.
func (e *Engine) startProcs() {
	for _, p := range e.procs {
		p.next, p.stop = iter.Pull(func(yield func(procState) bool) {
			p.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSentinel); !ok {
						e.panicCh <- procPanic{p.ID, r, debug.Stack()}
					}
				}
			}()
			p.body(p)
		})
	}
}

// stopProcs releases every processor coroutine: a parked body unwinds via
// abortSentinel, a finished or never-started one is a no-op. Deferred by Run,
// so it runs with every processor parked, whatever ended the run.
func (e *Engine) stopProcs() {
	for _, p := range e.procs {
		p.stop()
	}
}

// checkPanic propagates a captured processor panic, if any, as the run's
// failure (Run's deferred stopProcs releases the other processors).
func (e *Engine) checkPanic() {
	select {
	case pp := <-e.panicCh:
		panic(fmt.Sprintf("sim: processor %d panicked: %v\n%s\noriginal stack:\n%s",
			pp.id, pp.val, e.dump(), pp.stack))
	default:
	}
}

// runSerial is the cooperative scheduler: always resume the runnable
// processor with the smallest virtual time. The schedule is driven by the
// ready heap: O(log P) per scheduling step instead of the former O(P)
// linear scans in pickNext and horizonFor.
func (e *Engine) runSerial() int64 {
	var maxFinish int64
	var lastFloor int64 = -1
	e.pqActive = true
	defer func() { e.pqActive = false }()
	for _, p := range e.procs {
		if t, ok := e.nextTime(p); ok {
			e.pqPush(t, p.ID)
		}
	}
	remaining := len(e.procs)
	for remaining > 0 {
		next, bestT := e.pickNext()
		if next == nil {
			e.checkPanic()
			panic("sim: deadlock\n" + e.dump())
		}
		// Fences whose cut the schedule has reached observe the live
		// counters before anything at or past the cut runs.
		e.resolveFences(bestT)
		// Everything below the next resume time is final; deliver it.
		if bestT > lastFloor {
			e.flushTo(bestT)
			lastFloor = bestT
		}
		// Wake a blocked processor at its earliest message arrival.
		// The interval is attributed inside WaitRecv, which knows the
		// stall category.
		if next.state == stateBlocked {
			if a, ok := next.PendingArrival(); ok && a > next.now {
				next.now = a
			}
		}
		next.state = stateRunning
		next.horizon = e.horizonFor(next)
		next.resume()
		e.checkPanic()
		if next.state == stateDone {
			remaining--
			if next.now > maxFinish {
				maxFinish = next.now
			}
		}
		if t, ok := e.nextTime(next); ok {
			e.pqPush(t, next.ID)
		}
	}
	return maxFinish
}

// nextTime returns the earliest virtual time at which p could run, or
// (0,false) if p cannot run until someone sends it a message.
func (e *Engine) nextTime(p *Proc) (int64, bool) {
	switch p.state {
	case stateReady:
		return p.now, true
	case stateBlocked:
		if a, ok := p.PendingArrival(); ok {
			if a < p.now {
				a = p.now
			}
			return a, true
		}
		return 0, false
	default:
		return 0, false
	}
}

// pickNext returns the runnable processor with the smallest (time, ID) key
// and consumes its heap entry; the processor re-enters the heap when it
// yields. Returns nil when no processor can run (deadlock).
func (e *Engine) pickNext() (*Proc, int64) {
	top, ok := e.pqTopValid()
	if !ok {
		return nil, 0
	}
	e.pqPop()
	return e.procs[top.id], top.t
}

// horizonFor computes how far p may run before control must return to the
// scheduler: the earliest next-run time among all other processors, capped
// at the earliest pending fence cut so the fence resolves before anything
// at or past its cut runs. The caller has already marked p running and
// consumed its heap entry, so p's remaining (duplicate) entries fail the
// validity check and the heap top is exactly the other-processor minimum.
func (e *Engine) horizonFor(p *Proc) int64 {
	var h int64 = math.MaxInt64
	if top, ok := e.pqTopValid(); ok {
		h = top.t
	}
	if c, ok := e.minFenceCut(); ok && c < h {
		h = c
	}
	return h
}

// dump renders the engine state for deadlock and panic diagnostics.
func (e *Engine) dump() string {
	var b strings.Builder
	ids := make([]int, len(e.procs))
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	for _, i := range ids {
		p := e.procs[i]
		st := map[procState]string{
			stateReady: "ready", stateRunning: "running",
			stateBlocked: "blocked", stateDone: "done",
		}[p.state]
		fmt.Fprintf(&b, "  proc %2d: %-7s now=%d inbox=%d", i, st, p.now, len(p.inbox))
		if p.state == stateBlocked {
			fmt.Fprintf(&b, " at %q", p.blockedAt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// msgHeap orders messages by (arrival, send time, sender, per-sender send
// sequence) — a total order over messages that depends only on virtual
// time, never on which scheduler interleaved the sends, so delivery is
// deterministic and identical under the serial and parallel schedulers.
type msgHeap []Message

func (h msgHeap) less(i, j int) bool {
	if h[i].Arrival != h[j].Arrival {
		return h[i].Arrival < h[j].Arrival
	}
	if h[i].sendTime != h[j].sendTime {
		return h[i].sendTime < h[j].sendTime
	}
	if h[i].Src != h[j].Src {
		return h[i].Src < h[j].Src
	}
	return h[i].srcSeq < h[j].srcSeq
}

// push inserts a message, sifting up.
func (h *msgHeap) push(m Message) {
	*h = append(*h, m)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes the earliest message, sifting down. The vacated slot is
// zeroed: a delivered message's payload must not stay reachable from the
// inbox's backing array.
func (h *msgHeap) pop() Message {
	s := *h
	n := len(s) - 1
	m := s[0]
	s[0] = s[n]
	s[n] = Message{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s.less(l, least) {
			least = l
		}
		if r < n && s.less(r, least) {
			least = r
		}
		if least == i {
			return m
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}
