package sim

// The window loop: the engine's one scheduler.
//
// The causality argument: every message between conflict domains has a
// latency of at least Engine.Lookahead (L). Let T be the minimum next-run
// time across all processors. Any message sent inside the window [T, T+L)
// arrives at T+L or later, so nothing a processor does inside the window
// can affect what another domain's processor does inside the same window.
// The domains with work in the window can therefore execute in any order —
// one after another on the caller's goroutine, or concurrently on workers.
//
// Within a domain, processors may share state with latencies below L (the
// protocol layer's sharing groups and per-node link state), so the domain
// runs its members cooperatively: smallest (virtual time, processor ID)
// first. Cross-domain input only changes at window boundaries, below every
// in-window observation point, so a domain's local schedule is the global
// smallest-(time, ID)-first schedule restricted to its processors, operation
// for operation — which is why the layout with every processor in one domain
// (one unbounded window, no staging) is the reference the others are tested
// against.
//
// Determinism across layouts and worker counts then rests on four merge
// points, all keyed purely by virtual time:
//
//   - messages: inbox order is (Arrival, sendTime, Src, srcSeq) — see
//     msgHeap — so heap contents at any virtual time are schedule-free;
//   - emissions: Proc.Emit buffers (time, payload); the coordinator flushes
//     strictly below each new window floor in (time, proc, local order)
//     order, which is final because no processor can emit below the floor
//     once the floor has passed;
//   - inbox depth: push/pop events form a virtual-time multiset folded in
//     (time, push-before-pop) order, so the peak is schedule-free;
//   - fences: a fence registered at time t resolves at its cut t+L, which
//     lies at or beyond the current window's end — so while the
//     registration races in real time with processors of other domains,
//     none of them can have run past the cut. Window ends are truncated to
//     the earliest pending cut, so at the window boundary whose floor
//     reaches the cut the live counters hold exactly the charges starting
//     before it (see Proc.Fence and Engine.resolveFences).

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
)

// buildDomains groups processors into conflict domains from the SetDomains
// labels (default: one domain per processor). Domain indices are assigned
// by first appearance in processor order, so the layout is deterministic.
// Without a positive lookahead there is no window to run domains apart in,
// so everything is one domain.
func (e *Engine) buildDomains() {
	e.domains = e.domains[:0]
	index := map[int]int{}
	for i, p := range e.procs {
		label := 0
		if e.Lookahead > 0 {
			label = i
			if e.domainOf != nil {
				label = e.domainOf[i]
			}
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

// runWindows executes the program as a sequence of windows [T, T+L). The
// coordinator (this goroutine) computes each window, runs its active domains
// — itself, or one worker per domain when Engine.Parallel is set and the
// process has a second P to run them on — and at the boundary merges staged
// cross-domain messages, runs deferred fences, and flushes emissions below
// the next floor. A lone domain has nobody to wait for: its window is
// bounded only by pending fence cuts, so a fence-free run is one window.
func (e *Engine) runWindows() int64 {
	nd := len(e.domains)
	if cap(e.domNext) < nd {
		e.domNext = make([]int64, nd)
	}
	e.domNext = e.domNext[:nd]
	workers := e.Parallel && runtime.GOMAXPROCS(0) > 1
	var lastFloor int64 = -1
	for {
		// T = earliest next-run time across all processors.
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
			e.floor = T
			e.flushTo(T)
			lastFloor = T
		}
		// A pending fence cut truncates the window so no processor records
		// a charge starting at or past the cut before the fence resolves.
		end := int64(math.MaxInt64)
		if nd > 1 {
			end = T + e.Lookahead
		}
		if cut, ok := e.minFenceCut(); ok && cut < end {
			end = cut
		}
		e.windowEnd = end

		// Domains with any processor runnable inside the window.
		active := e.activeBuf[:0]
		for di, t := range e.domNext {
			if t < end {
				active = append(active, di)
			}
		}
		e.windowCount++
		if !workers || len(active) == 1 {
			for _, di := range active {
				e.runDomain(di)
			}
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

// runDomain runs one conflict domain's processors cooperatively until none
// can act before the window end: smallest (next-run time, processor ID)
// first, each bounded by the window end or the earliest next-run time among
// its domain peers, whichever is sooner. (A processor yields once its clock
// reaches the horizon, so actions strictly inside the window still execute;
// post() further shrinks the running processor's own horizon when it sends.)
// The end is re-read each pick: a lone domain's fences lower it while the
// window runs.
//
// With workers, a domain's goroutine differs from window to window, so its
// processors' coroutines are resumed from different goroutines over a run.
// iter.Pull allows that as long as calls to one coroutine never overlap,
// which the one-worker-per-domain rule guarantees (and the window join
// orders one window's calls before the next's).
func (e *Engine) runDomain(di int) {
	dom := e.domains[di]
	for {
		end := e.windowEnd
		var next *Proc
		bestT, others := int64(math.MaxInt64), end
		for _, p := range dom {
			t, ok := e.nextTime(p)
			if !ok {
				continue
			}
			if t < bestT {
				if next != nil && bestT < others {
					others = bestT
				}
				next, bestT = p, t
			} else if t < others {
				others = t
			}
		}
		if next == nil || bestT >= end {
			return
		}
		if len(e.domains) == 1 {
			// A lone domain's window never ends, but its earliest next-run
			// time is the global one: nothing can happen below it any more.
			e.floor = bestT
		}
		if next.state == stateBlocked {
			if a, ok := next.PendingArrival(); ok && a > next.now {
				next.now = a
			}
		}
		next.state = stateRunning
		next.horizon = others
		next.resume()
	}
}

// flushTo delivers all buffered emissions with time strictly below floor, in
// deterministic merge order. Called only from the scheduler's control
// thread: once per window, when the global virtual-time floor advances, and
// once with floor = MaxInt64 at the end of Run.
func (e *Engine) flushTo(floor int64) {
	list := e.flushList[:0]
	for _, p := range e.procs {
		if p.emitStart < len(p.emits) {
			list = append(list, p)
		}
	}
	e.flushList = list
	e.flushVisits += int64(len(e.procs) + len(list))
	if len(list) == 0 {
		return
	}
	e.mergeEmits(floor)
	for _, p := range list {
		if p.emitStart == len(p.emits) {
			p.emits, p.emitStart = p.emits[:0], 0
		}
	}
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
// the running depth, updating the peak, and keeps the rest. Events at one
// instant fold pushes before pops: a message popped at its own send time
// (zero-latency receive) still occupied the inbox momentarily.
func (p *Proc) applyDepth(floor int64) {
	pend := p.depthPend
	slices.SortFunc(pend, func(a, b depthEvent) int {
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
	due := 0
	for ; due < len(pend) && pend[due].time < floor; due++ {
		if pend[due].pop {
			p.depth--
		} else {
			p.depth++
			if p.depth > p.peakDepth {
				p.peakDepth = p.depth
			}
		}
	}
	p.depthPend = pend[:copy(pend, pend[due:])]
}
