// Package sim implements a deterministic discrete-event simulation engine
// for a cluster of processors.
//
// Each simulated processor runs its program as a runtime coroutine
// (iter.Pull) that the scheduler's own control flow resumes for one slice at
// a time. Processors advance their own virtual clocks explicitly and exchange
// timestamped messages; a message sent at time t with latency d is visible to
// the destination no earlier than t+d.
//
// Processors are grouped into conflict domains (SetDomains; the embedder's
// SMP nodes). A domain is scheduled cooperatively: exactly one of its
// processors executes at any instant, always the runnable one with the
// smallest virtual time (ties broken by processor ID). Domains only talk by
// messages of at least Engine.Lookahead (L) cycles, so the run proceeds in
// windows [T, T+L) — no message sent inside a window can arrive inside it —
// and the domains of one window can execute in any order, or concurrently on
// real goroutines (Engine.Parallel), without violating causality. Message
// delivery order, statistics, emission order and inbox-depth accounting are
// all defined in terms of virtual time with deterministic tie-breaks, so the
// same program and configuration produce bit-identical results however the
// processors are grouped and however many workers run them (see parallel.go).
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
	"slices"
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
	// how the windows interleaved the sends.
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
// Every schedule records the same (time, kind) multiset, so the peak depth
// is schedule-independent.
type depthEvent struct {
	time int64
	pop  bool
}

// Proc is one simulated processor context. All methods must be called only
// from the processor's own body function (the engine enforces single
// ownership per conflict domain).
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
	// domain is the processor's conflict-domain index.
	domain int
	// outbox stages cross-domain sends during a window; the coordinator
	// merges them at the window boundary.
	outbox []Message
	// emits buffers Emit calls until the global virtual-time floor passes
	// them; emitStart is the already-flushed prefix.
	emits     []emitRec
	emitStart int
	// depthPend buffers inbox-depth events until the floor passes them
	// (see noteDepth).
	depthPend []depthEvent
	depth     int
	peakDepth int
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
	// what makes every domain layout produce identical results when
	// same-time actions touch shared model state (for example, per-node
	// link reservations in memchan).
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
// arrival time. A send to another conflict domain must arrive no earlier
// than the engine's Lookahead after the start of the current window
// (guaranteed when every cross-domain latency is at least the Lookahead).
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
// flow (same conflict domain), staged in the sender's outbox for the
// window-boundary merge otherwise.
func (p *Proc) post(dst int, arrival int64, payload any) {
	e := p.eng
	if dst < 0 || dst >= len(e.procs) {
		panic(fmt.Sprintf("sim: proc %d sent to invalid destination %d (NumProcs %d)",
			p.ID, dst, len(e.procs)))
	}
	p.sendSeq++
	m := Message{Src: p.ID, Dst: dst, Arrival: arrival,
		sendTime: p.now, srcSeq: p.sendSeq, Payload: payload}
	if q := e.procs[dst]; q.domain != p.domain {
		if arrival < e.windowEnd {
			panic(fmt.Sprintf(
				"sim: lookahead violation: proc %d (domain %d) sent to proc %d (domain %d) "+
					"arriving at %d inside the window ending at %d; cross-domain "+
					"latency must be at least the lookahead (%d)",
				p.ID, p.domain, dst, q.domain, arrival, e.windowEnd, e.Lookahead))
		}
		p.outbox = append(p.outbox, m)
	} else {
		q.enqueue(m)
	}
	// The destination may now need to run before this processor's next
	// scheduling point; shrink the horizon so we hand control back in
	// time. (Cross-domain arrivals lie beyond the window horizon already.)
	if arrival < p.horizon {
		p.horizon = arrival
	}
}

// enqueue pushes a message into the inbox and buffers its depth event.
func (p *Proc) enqueue(m Message) {
	p.inbox.push(m)
	p.noteDepth(depthEvent{time: m.sendTime})
}

// popInbox removes the earliest deliverable message and buffers the
// matching depth event at the pop's virtual time.
func (p *Proc) popInbox() Message {
	m := p.inbox.pop()
	p.noteDepth(depthEvent{time: p.now, pop: true})
	return m
}

// depthChunk is the size, in events, of a processor's depth buffer: 4 KiB,
// allocated once per run. Any batching is safe — the events form a multiset
// keyed by virtual time, so folding in chunks commutes.
const depthChunk = 256

// noteDepth buffers one inbox-depth event, making room first if the buffer is
// full. Called by whoever owns the processor's inbox at that moment: its
// conflict domain during a window, the coordinator at the boundary.
func (p *Proc) noteDepth(ev depthEvent) {
	if len(p.depthPend) == cap(p.depthPend) {
		p.foldDepth()
	}
	p.depthPend = append(p.depthPend, ev)
}

// foldDepth makes room in a full depth buffer: it folds what lies below the
// engine's floor, so the buffer holds only the events of the current window
// plus the last partial chunk, and grows it only if half of it is still
// above the floor (or it does not exist yet).
func (p *Proc) foldDepth() {
	p.applyDepth(p.eng.floor)
	if len(p.depthPend) >= cap(p.depthPend)/2 {
		p.depthPend = slices.Grow(p.depthPend, max(cap(p.depthPend), depthChunk))
	}
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
// delivered or not. A cross-domain message becomes visible here only at the
// window boundary (always before the receiver's clock could reach its
// arrival time), so programs must not use PendingArrival to detect the
// presence of future messages — only TryRecv and WaitRecv have
// layout-independent semantics.
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
// emission sequence under every domain layout and worker count. No-op when
// no emit function is set.
func (p *Proc) Emit(payload any) {
	if p.eng.emitFn == nil {
		return
	}
	p.emits = append(p.emits, emitRec{time: p.now, payload: payload})
}

// Fence schedules f(proc, at) to run once per processor, observing the
// global state at the fence's cut: the caller's current time plus
// Engine.Lookahead. At resolution, at points to processor proc's
// statistics (nil when the processor has no Stats attached) containing
// exactly the charges made strictly before the cut — under every domain
// layout and worker count. f must treat at as read-only and must not mutate
// any processor's live Stats — record a snapshot or baseline instead (all
// stats counters are additive, so the embedder can difference baselines
// afterwards).
//
// With Lookahead 0 the cut is the call position itself and f runs inline
// for every processor before Fence returns: all processors then share one
// domain, where at the fence call the caller holds the earliest position in
// the canonical schedule (a processor yields the moment its clock reaches
// any other's next-run time, and sending shrinks the sender's own horizon),
// so the live counters are exactly the state at the caller's position.
//
// With Lookahead L > 0, resolution is deferred and Fence returns before f
// runs: the callbacks execute on the scheduler's control thread once the
// schedule has passed the cut (or at the end of the run), with multiple
// fences ordered by (registration time, caller ID). Deferral by one
// lookahead is what makes the observation exact at an affordable cost: a
// fence registered inside a window races in real time with the processors
// of other domains, which may already have run past the registration
// position — but never past the end of the window, which never exceeds the
// cut. Window ends are truncated to pending cuts, so every processor stops
// exactly there and at resolution has recorded the identical set of charges
// however the window was executed. This is the hook for rare
// cross-processor reads like statistics resets and captures; see DESIGN.md.
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
	// A lone domain's window is otherwise unbounded, so the caller's peers
	// must be stopped at the cut as well: lower the window end, which
	// runDomain re-reads at every pick. One domain is one control flow, so
	// the write cannot race; with several domains it is never needed, since
	// cut = now+L is already at or beyond the window's end T+L.
	if len(e.domains) == 1 && cut < e.windowEnd {
		e.windowEnd = cut
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
// returns — and records the state it parked in, on whichever goroutine is
// running p's domain.
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
// from the scheduler's control thread at window boundaries, while no
// processor is running and registration cannot race.
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
// window floor, or MaxInt64 at the end of the run). Because every window
// stops at pending cuts, the live counters at that point hold exactly the
// charges starting before the cut, so the callbacks read them directly. Runs
// only on the scheduler's control thread with every processor parked.
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
	// Parallel asks for more than one worker: when the process has more
	// than one P (runtime.GOMAXPROCS), a window's active domains run
	// concurrently on goroutines instead of one after another on the
	// caller's. Results are bit-identical either way.
	Parallel bool
	// Lookahead is the minimum latency of any cross-domain message, in
	// cycles, and the width of a window: all processors whose next-run time
	// falls in [T, T+L) execute before any cross-domain message sent among
	// them is delivered. The embedder must guarantee the bound; the engine
	// panics on a violating send. With Lookahead <= 0 a window would be
	// empty, so all processors form one domain.
	Lookahead int64

	procs    []*Proc
	domainOf []int     // optional processor -> domain label (SetDomains)
	domains  [][]*Proc // built per Run from domainOf

	emitFn func(time int64, proc int, payload any)

	// Per-run state, fully reset by Run.
	panicCh chan procPanic
	fenceMu sync.Mutex
	fences  []fenceRec
	// windowEnd is the current window's end. It is immutable while a
	// window's domains run, except that a lone domain's fences lower it
	// (see Proc.Fence).
	windowEnd int64
	// floor is a lower bound on the virtual time of everything still to
	// happen: the current window's start, or a lone domain's earliest
	// next-run time. Written only by the coordinator between windows (or by
	// the lone domain it runs), so domains read it freely.
	floor int64
	// domNext, activeBuf, flushList and emitHeap are reusable scratch
	// buffers for the window loop, the flush and the emission merge (hot
	// paths at high processor counts).
	domNext     []int64
	activeBuf   []int
	flushList   []*Proc
	emitHeap    []int
	windowCount int64
	// flushVisits counts the processors flushTo examined (a host-side
	// diagnostic, like Proc.slices): one scan per window, not per slice.
	flushVisits int64
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

// WindowsRun returns how many windows the last Run executed. It is a
// host-side scheduling diagnostic — never part of simulation results, which
// do not depend on how the run was cut into windows.
func (e *Engine) WindowsRun() int64 { return e.windowCount }

// SlicesRun returns how many scheduler slices — resumptions of a processor
// context — the last Run dispatched. Like WindowsRun it is a host-side
// diagnostic, never part of simulation results: host time per slice is what
// a context switch costs. The schedule is deterministic, so the count repeats
// exactly, with one worker or many (it depends on the domain layout and the
// lookahead: slices are also cut at window ends).
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
// per-processor emission order). Call before Run.
func (e *Engine) SetEmitFunc(f func(time int64, proc int, payload any)) { e.emitFn = f }

// SetDomains assigns processors to conflict domains: processors sharing a
// label never execute concurrently (their mutual schedule is smallest
// (virtual time, ID) first), while processors of different domains may run
// in parallel within a lookahead window. All communication between domains
// must go through messages whose latency is at least Engine.Lookahead. A
// domain is scanned once per slice, so it is meant to be an SMP node — a
// handful of processors — not the whole machine. nil restores the default of
// one domain per processor. Panics if the slice length does not match
// NumProcs.
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
	e.startProcs()
	defer e.stopProcs()

	maxFinish := e.runWindows()
	// Fences whose cut lies beyond the last action observe the final state.
	e.resolveFences(math.MaxInt64)
	e.flushTo(math.MaxInt64)
	for _, p := range e.procs {
		p.applyDepth(math.MaxInt64)
	}
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
	e.flushVisits = 0
	e.floor = 0
	for _, p := range e.procs {
		p.body = body
		p.state = stateReady
		p.now, p.horizon = 0, 0
		p.inbox = nil
		p.blockedAt = ""
		p.sendSeq = 0
		p.outbox = nil
		p.emits, p.emitStart = nil, 0
		p.depthPend = p.depthPend[:0]
		p.depth, p.peakDepth = 0, 0
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
// time, never on how the windows interleaved the sends, so delivery is
// deterministic and identical under every domain layout and worker count.
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
