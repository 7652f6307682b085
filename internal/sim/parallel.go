package sim

// Conservative window-based parallel scheduler.
//
// The causality argument: every message between conflict domains has a
// latency of at least Engine.Lookahead (L). Let T be the minimum next-run
// time across all processors. Any message sent inside the window [T, T+L)
// arrives at T+L or later, so nothing a processor does inside the window
// can affect what another domain's processor does inside the same window.
// All domains with work in the window can therefore execute concurrently.
//
// Within a domain, processors may share state with latencies below L (the
// protocol layer's sharing groups and per-node link state), so the domain
// runs its members cooperatively with the exact serial rule — smallest
// (virtual time, processor ID) first. Since the serial schedule restricted
// to one domain's processors follows the same rule, and cross-domain input
// only changes at window boundaries (below every in-window observation
// point), each domain's local schedule reproduces its serial schedule
// operation for operation.
//
// Determinism across schedulers then rests on four merge points, all keyed
// purely by virtual time:
//
//   - messages: inbox order is (Arrival, sendTime, Src, srcSeq) — see
//     msgHeap — so heap contents at any virtual time are schedule-free;
//   - emissions: Proc.Emit buffers (time, payload); the coordinator flushes
//     strictly below each new window floor in (time, proc, local order)
//     order, identical to the serial per-step flush because no processor
//     can emit below the floor once the floor has passed;
//   - inbox depth: push/pop events form a virtual-time multiset folded in
//     (time, push-before-pop) order, so the peak is schedule-free;
//   - fences: a fence registered at time t resolves at its cut t+L, which
//     lies at or beyond the current window's end — so while the
//     registration races in real time with processors of other domains,
//     none of them can have run past the cut. Window ends are truncated to
//     the earliest pending cut (the serial scheduler caps slice horizons
//     the same way), so at the window boundary whose floor reaches the cut
//     the live counters hold exactly the charges starting before it, under
//     either scheduler (see Proc.Fence and Engine.resolveFences).

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// buildDomains groups processors into conflict domains from the SetDomains
// labels (default: one domain per processor). Domain indices are assigned
// by first appearance in processor order, so the layout is deterministic.
func (e *Engine) buildDomains() {
	e.domains = e.domains[:0]
	index := map[int]int{}
	for i, p := range e.procs {
		label := i
		if e.domainOf != nil {
			label = e.domainOf[i]
		}
		d, ok := index[label]
		if !ok {
			d = len(e.domains)
			index[label] = d
			e.domains = append(e.domains, nil)
		}
		p.domain = d
		e.domains[d] = append(e.domains[d], p)
	}
}

// defaultWindowCapLookaheads is the adaptive-window run-ahead bound, in
// lookaheads, when Engine.WindowCap is 0.
const defaultWindowCapLookaheads = 64

// satAdd adds two non-negative cycle counts, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// runWindows executes the program as a sequence of lookahead windows. The
// coordinator (this goroutine) computes each window, dispatches one worker
// per active domain, and on join merges staged cross-domain messages, runs
// deferred fences, and flushes emissions below the next floor.
//
// Window widths are adaptive per domain unless Engine.FixedWindows is set.
// The fixed window [T, T+L) starves parallelism when domains' virtual times
// drift apart — a domain at T+50L waits idle for tens of windows while the
// laggard catches up. The safe bound is per-receiver: domain i cannot
// receive anything before
//
//	H_i = min over other domains j of (tDom_j + L)
//
// where tDom_j is j's earliest next-run time at the window start (idle
// domains — blocked with an empty inbox — are excluded: they act only after
// being woken by a message, so anything they send arrives at least 2L after
// some running domain's start, beyond every H). Two dynamic truncations
// keep extension safe while the window runs, both written only by the
// owning domain's processors (which alternate strictly with the domain's
// worker, so no synchronization is needed):
//
//   - reflection: once domain i sends a cross-domain message arriving at a,
//     the receiver can react at a and reply with ≥ L more latency, so i
//     must not run to a+L or beyond (Engine.domReflect, written in post);
//   - fences: a fence registered by domain i at time t resolves at cut
//     t+L, which other domains never reach (H_j ≤ tDom_i + L ≤ cut) but
//     i's own extended window could overrun (Engine.domFenceCap, written
//     in Fence).
//
// Every per-domain end also caps at tDom_i + WindowCap (bounding unchecked
// run-ahead when all other domains are idle) and truncates at pending fence
// cuts, and never falls below the fixed T+L, so adaptive windows are a pure
// extension. Results stay bit-identical: all merge points remain keyed by
// virtual time alone, and no domain ever simulates past a time at which a
// message could still arrive.
func (e *Engine) runWindows() int64 {
	nd := len(e.domains)
	if cap(e.domNext) < nd {
		e.domNext = make([]int64, nd)
		e.domEnd = make([]int64, nd)
		e.domFenceCap = make([]int64, nd)
		e.domReflect = make([]int64, nd)
	} else {
		e.domNext = e.domNext[:nd]
		e.domEnd = e.domEnd[:nd]
		e.domFenceCap = e.domFenceCap[:nd]
		e.domReflect = e.domReflect[:nd]
	}
	capWidth := e.WindowCap
	if capWidth <= 0 {
		capWidth = defaultWindowCapLookaheads * e.Lookahead
	}
	if capWidth < e.Lookahead {
		capWidth = e.Lookahead
	}
	var lastFloor int64 = -1
	for {
		// T = earliest next-run time across all processors; per-domain
		// minima feed the adaptive window ends.
		T := int64(math.MaxInt64)
		for di, dom := range e.domains {
			t := int64(math.MaxInt64)
			for _, p := range dom {
				if tt, ok := e.nextTime(p); ok && tt < t {
					t = tt
				}
			}
			e.domNext[di] = t
			if t < T {
				T = t
			}
		}
		if T == math.MaxInt64 {
			done := 0
			for _, p := range e.procs {
				if p.state == stateDone {
					done++
				}
			}
			if done == len(e.procs) {
				break
			}
			e.checkPanic()
			panic("sim: deadlock\n" + e.dump())
		}
		// Fences whose cut the floor has reached observe the live
		// counters before the next window runs anything past the cut.
		e.resolveFences(T)
		// Everything below the window start is final; deliver it.
		if T > lastFloor {
			e.flushTo(T)
			lastFloor = T
		}
		fixedEnd := T + e.Lookahead
		// A pending fence cut truncates every window end so no processor
		// records a charge starting at or past the cut before the fence
		// resolves.
		cut, hasCut := e.minFenceCut()
		// Smallest and second-smallest finite domain times, for the
		// min-over-others bound without an O(domains²) pass.
		min1, min2 := int64(math.MaxInt64), int64(math.MaxInt64)
		minIdx := -1
		if !e.FixedWindows {
			for di, t := range e.domNext {
				if t < min1 {
					min1, min2, minIdx = t, min1, di
				} else if t < min2 {
					min2 = t
				}
			}
		}
		for di := range e.domains {
			end := fixedEnd
			if !e.FixedWindows {
				other := min1
				if di == minIdx {
					other = min2
				}
				end = satAdd(other, e.Lookahead)
				if lim := satAdd(e.domNext[di], capWidth); lim < end {
					end = lim
				}
				if end < fixedEnd {
					end = fixedEnd
				}
			}
			if hasCut && cut < end {
				end = cut
			}
			e.domEnd[di] = end
			e.domFenceCap[di] = math.MaxInt64
			e.domReflect[di] = math.MaxInt64
		}

		// Domains with any processor runnable inside their window.
		active := e.activeBuf[:0]
		for di := range e.domains {
			if e.domNext[di] < e.domEnd[di] {
				active = append(active, di)
			}
		}
		e.windowCount++
		// One worker per active domain; the coordinator runs the first
		// domain itself so a single-domain window costs no goroutine.
		if len(active) == 1 {
			e.runDomain(active[0])
		} else {
			var wwg sync.WaitGroup
			wwg.Add(len(active) - 1)
			for _, di := range active[1:] {
				go func(di int) {
					defer wwg.Done()
					e.runDomain(di)
				}(di)
			}
			e.runDomain(active[0])
			wwg.Wait()
		}
		e.activeBuf = active[:0]
		e.checkPanic()

		// Merge staged cross-domain sends. Push order is irrelevant to
		// delivery order (the inbox key is total), but iterate in
		// processor order anyway for reproducible internal layout.
		for _, p := range e.procs {
			for _, m := range p.outbox {
				e.procs[m.Dst].enqueue(m)
			}
			clear(p.outbox) // a staged message must not outlive its delivery here
			p.outbox = p.outbox[:0]
		}
	}
	var maxFinish int64
	for _, p := range e.procs {
		if p.now > maxFinish {
			maxFinish = p.now
		}
	}
	return maxFinish
}

// domEndNow returns domain di's current effective window end: the window-
// start end truncated by the domain's own in-window fence registrations and
// cross-domain sends (reflection bound). Called only by the domain's worker
// and its processors, which alternate strictly.
func (e *Engine) domEndNow(di int) int64 {
	end := e.domEnd[di]
	if c := e.domFenceCap[di]; c < end {
		end = c
	}
	if r := e.domReflect[di]; r < end {
		end = r
	}
	return end
}

// runDomain runs one conflict domain's processors cooperatively until none
// can act before the domain's window end. Within the domain this is exactly
// the serial rule: smallest (next-run time, processor ID) first. The end is
// re-read each pick: the domain's own sends and fence registrations shrink
// it while the window runs.
//
// A domain's worker is a different goroutine from window to window, so its
// processors' coroutines are resumed from different goroutines over a run.
// iter.Pull allows that as long as calls to one coroutine never overlap,
// which the one-worker-per-domain rule guarantees (and the window join
// orders one window's calls before the next's).
func (e *Engine) runDomain(di int) {
	dom := e.domains[di]
	for {
		end := e.domEndNow(di)
		var next *Proc
		bestT := int64(math.MaxInt64)
		for _, p := range dom {
			if t, ok := e.nextTime(p); ok && t < bestT {
				next, bestT = p, t
			}
		}
		if next == nil || bestT >= end {
			return
		}
		if next.state == stateBlocked {
			if a, ok := next.PendingArrival(); ok && a > next.now {
				next.now = a
			}
		}
		next.state = stateRunning
		next.horizon = e.domainHorizon(next, dom, end)
		next.resume()
	}
}

// domainHorizon bounds how far p may run: the domain's window end or the
// earliest next-run time among its domain peers, whichever is sooner. (A
// processor yields once its clock reaches the horizon, so actions strictly
// inside the window still execute; post() further shrinks the running
// processor's own horizon when it sends.)
func (e *Engine) domainHorizon(p *Proc, dom []*Proc, end int64) int64 {
	h := end
	for _, q := range dom {
		if q == p {
			continue
		}
		if t, ok := e.nextTime(q); ok && t < h {
			h = t
		}
	}
	return h
}

// depthBatch bounds how many pending depth events a processor accumulates
// before a floor advance folds them. Any batching is safe: the events form
// a multiset keyed by virtual time, so folding in chunks commutes.
const depthBatch = 4096

// flushTo delivers all buffered emissions with time strictly below floor
// (in deterministic merge order) and folds full batches of pending
// inbox-depth events below floor. Called only from the scheduler's control
// thread — per serial step or per window — when the global virtual-time
// floor advances, and once with floor = MaxInt64 at the end of Run, which
// folds every remaining depth event. It works from Engine.flushList: a
// serial step with nothing pending returns without touching a processor.
func (e *Engine) flushTo(floor int64) {
	final := floor == math.MaxInt64
	if e.windowed || final {
		for _, p := range e.procs {
			if !p.flushListed && (p.emitStart < len(p.emits) || len(p.depthPend) >= depthBatch ||
				final && len(p.depthPend) > 0) {
				p.flushListed = true
				e.flushList = append(e.flushList, p)
			}
		}
		e.flushVisits += int64(len(e.procs))
	}
	if len(e.flushList) == 0 {
		return
	}
	e.flushVisits += int64(len(e.flushList))
	e.mergeEmits(floor)
	keep := e.flushList[:0]
	for _, p := range e.flushList {
		if final || len(p.depthPend) >= depthBatch {
			p.applyDepth(floor)
		}
		if p.emitStart < len(p.emits) || len(p.depthPend) >= depthBatch {
			keep = append(keep, p)
			continue
		}
		p.emits, p.emitStart = p.emits[:0], 0
		p.flushListed = false
	}
	e.flushList = keep
}

// mergeEmits is a k-way merge of the listed processors' emission buffers by
// (time, proc); within one processor, buffer order (program order) is
// already time-sorted because a processor's clock never decreases. The
// merge runs on an index min-heap over the processors with deliverable
// emissions, so each delivery costs O(log P) instead of the O(P) scan the
// original implementation paid — the difference dominates trace-heavy runs
// at high processor counts. The heap's backing array is reused across
// calls (Engine.emitHeap); the merge allocates nothing in steady state.
func (e *Engine) mergeEmits(floor int64) {
	// emitKey orders heap entries by (next emission time, processor ID) —
	// exactly the order the linear scan produced.
	less := func(a, b int) bool {
		pa, pb := e.procs[a], e.procs[b]
		ta, tb := pa.emits[pa.emitStart].time, pb.emits[pb.emitStart].time
		if ta != tb {
			return ta < tb
		}
		return a < b
	}
	h := e.emitHeap[:0]
	for _, p := range e.flushList {
		if p.emitStart < len(p.emits) && p.emits[p.emitStart].time < floor {
			h = append(h, p.ID)
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && less(h[l], h[s]) {
				s = l
			}
			if r < len(h) && less(h[r], h[s]) {
				s = r
			}
			if s == i {
				return
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		best := h[0]
		p := e.procs[best]
		r := p.emits[p.emitStart]
		p.emits[p.emitStart] = emitRec{} // free the payload
		p.emitStart++
		e.emitFn(r.time, best, r.payload)
		if p.emitStart < len(p.emits) && p.emits[p.emitStart].time < floor {
			siftDown(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftDown(0)
		}
	}
	e.emitHeap = h[:0]
}

// applyDepth folds pending depth events with time strictly below floor into
// the running depth, updating the peak. Events at one instant fold pushes
// before pops: a message popped at its own send time (zero-latency receive)
// still occupied the inbox momentarily.
func (p *Proc) applyDepth(floor int64) {
	due := p.depthDue[:0]
	keep := p.depthPend[:0]
	for _, ev := range p.depthPend {
		if ev.time < floor {
			due = append(due, ev)
		} else {
			keep = append(keep, ev)
		}
	}
	p.depthPend = keep
	p.depthDue = due[:0]
	if len(due) == 0 {
		return
	}
	slices.SortFunc(due, func(a, b depthEvent) int {
		if a.time != b.time {
			return cmp.Compare(a.time, b.time)
		}
		if a.pop == b.pop {
			return 0
		}
		if b.pop {
			return -1
		}
		return 1
	})
	for _, ev := range due {
		if ev.pop {
			p.depth--
		} else {
			p.depth++
			if p.depth > p.peakDepth {
				p.peakDepth = p.depth
			}
		}
	}
}
