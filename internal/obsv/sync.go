package obsv

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/protocol"
)

// Synchronization contention observatory over coherence traces. The
// protocol brackets every application sync operation in the trace: a lock
// acquire emits "lock-acquire id=<id>" when it starts stalling and
// "lock-acquired id=<id> prev=<p> hops=<h>" at the grant, a release emits
// "lock-release id=<id>", and a barrier emits "barrier gen=<g>" on arrival
// and "barrier-depart gen=<g>" on release (trace schema v1 compatible
// extension; see OBSERVABILITY.md §12). BuildSync reconstructs from those
// events each lock's acquire→grant→release lifecycles and each barrier
// generation's arrival/departure profile, yielding wait and hold
// distributions, ownership hand-off chains, a cycle-weighted wait-for
// summary, arrival-skew straggler attribution, and each primitive's share
// of the trace's critical path.
//
// Lifecycles are matched per (processor, lock): a processor's operations on
// one lock are program-ordered, so within that key the streams pair FIFO —
// the same requester-keyed discipline the trace index (BuildCausal) applies
// to lock messages. Gapped or sampled traces degrade: unmatched halves are
// counted in Dropped by reason and the rest of the analysis proceeds;
// BuildSync never fails and never panics. Traces from before this extension
// have no "lock-acquired"/"barrier-depart" events; their acquires and
// arrivals are all dropped as unmatched, which is reported, not guessed at.

// LockAcq is one reconstructed lock-acquire lifecycle.
type LockAcq struct {
	// Proc is the acquiring processor; Seq the trace sequence number of
	// its lock-acquired event (a stable identity within one trace).
	Proc int
	Seq  uint64
	// AcquireTime, GrantTime and ReleaseTime are the virtual times of the
	// bracketing events; ReleaseTime is -1 when the trace ends with the
	// lock still held.
	AcquireTime, GrantTime, ReleaseTime int64
	// Prev is the previous holder (-1 for the lock's first grant) and
	// Hops the acquire's hop count: 2 granted immediately by the manager,
	// 3 handed off from a release.
	Prev, Hops int
}

// Wait returns the acquire-to-grant stall time.
func (a *LockAcq) Wait() int64 { return a.GrantTime - a.AcquireTime }

// Hold returns the grant-to-release time, or -1 when unreleased.
func (a *LockAcq) Hold() int64 {
	if a.ReleaseTime < 0 {
		return -1
	}
	return a.ReleaseTime - a.GrantTime
}

// LockSummary aggregates one lock's lifecycles.
type LockSummary struct {
	ID int
	// Acquires lists the completed grants in grant order.
	Acquires []LockAcq
	// Contended counts acquires granted off the release path (hops=3).
	Contended int
	// WaitTotal sums every acquire's wait; HoldTotal sums the hold time
	// of the released acquires.
	WaitTotal, HoldTotal int64
}

// BarrierGen is one barrier generation's arrival/departure profile.
type BarrierGen struct {
	Gen int
	// Arrivals and Departs count the processors seen arriving and
	// departing (fewer than the processor count on gapped traces).
	Arrivals, Departs int
	// ArriveFirst/ArriveLast and DepartFirst/DepartLast are the earliest
	// and latest arrival and departure times.
	ArriveFirst, ArriveLast int64
	DepartFirst, DepartLast int64
	// Straggler is the processor with the latest arrival (lowest id on
	// ties): the processor the whole generation waited for.
	Straggler int
	// WaitTotal sums arrive-to-depart waits over the matched pairs.
	WaitTotal int64
}

// ArriveSkew is the spread between the first and last arrival.
func (g *BarrierGen) ArriveSkew() int64 { return g.ArriveLast - g.ArriveFirst }

// DepartSkew is the spread between the first and last departure (the
// release fan-out's serialization, which the hierarchical barrier shrinks).
func (g *BarrierGen) DepartSkew() int64 {
	if g.Departs == 0 {
		return 0
	}
	return g.DepartLast - g.DepartFirst
}

// WaitFor is one cycle-weighted wait-for edge: Waiter stalled behind
// Holder's lock ownership.
type WaitFor struct {
	Waiter, Holder int
	Cycles         int64
	Waits          int
}

// SyncSet is the result of the synchronization analysis of one trace.
type SyncSet struct {
	// Locks lists the observed locks ascending by id; Gens the barrier
	// generations ascending by generation.
	Locks []LockSummary
	Gens  []BarrierGen
	// WaitFor lists contended-wait edges (who waited on whom), weighted
	// by cycles, descending by cycles (ties by waiter then holder).
	WaitFor []WaitFor
	// CritCycles is the trace's critical-path length and CritSync the
	// portion of critical-path program-order edges spent inside a sync
	// stall, attributed per primitive ("lock <id>" or "barrier").
	CritCycles int64
	CritSync   map[string]int64
	// Dropped counts lifecycle halves the trace evidence could not match,
	// by reason; gapped and pre-extension traces degrade here rather than
	// failing.
	Dropped Dropped
	// Gapped reports seq gaps (a filtered or sampled trace).
	Gapped bool
	// Warnings lists non-fatal anomalies.
	Warnings []string
	// Events is the total trace length.
	Events int
}

// DroppedTotal sums the drop counts.
func (ss *SyncSet) DroppedTotal() int { return ss.Dropped.Total() }

// Barrier wait intervals and lock stalls, per processor, for the
// critical-path attribution.
type syncInterval struct {
	from, to int64
	prim     string
}

type lockProcKey struct {
	proc, id int
}

type barKey struct {
	proc, gen int
}

// BuildSync reconstructs the synchronization lifecycles of a trace. The
// events must be in trace (seq) order, as read from a trace file. It always
// returns a report — incomplete evidence degrades into Dropped counts.
func BuildSync(events []protocol.TraceEvent) *SyncSet { return BuildCausal(events).Sync() }

// Sync reconstructs the synchronization lifecycles of the indexed trace.
func (c *Causal) Sync() *SyncSet {
	events := c.Events
	ss := &SyncSet{
		Dropped:  Dropped{},
		CritSync: map[string]int64{},
		Events:   len(events),
		Gapped:   c.Gapped,
	}
	if ss.Gapped {
		ss.Warnings = append(ss.Warnings,
			"trace has seq gaps (filtered or sampled); lifecycles limited to surviving events")
	}

	locks := map[int]*LockSummary{}
	lockOf := func(id int) *LockSummary {
		l := locks[id]
		if l == nil {
			l = &LockSummary{ID: id}
			locks[id] = l
		}
		return l
	}
	pending := map[lockProcKey]int64{} // un-granted acquires, by acquire time
	open := map[lockProcKey]LockAcq{}  // granted, not yet released
	arrivals := map[barKey]int64{}
	gens := map[int]*BarrierGen{}
	genOf := func(gen int) *BarrierGen {
		g := gens[gen]
		if g == nil {
			g = &BarrierGen{Gen: gen, Straggler: -1}
			gens[gen] = g
		}
		return g
	}
	waitFor := map[[2]int]*WaitFor{}
	intervals := map[int][]syncInterval{}

	for i := range events {
		e := &events[i]
		if e.Op != "sync" || !e.Typed {
			continue
		}
		id := int(e.ID)
		gen := id // barrier events carry their generation in ID
		switch e.Sync {
		case protocol.SyncLockAcquire:
			k := lockProcKey{e.Proc, id}
			if _, dup := pending[k]; dup {
				ss.Dropped["acquire-unmatched"]++
			}
			pending[k] = e.Time

		case protocol.SyncLockAcquired:
			k := lockProcKey{e.Proc, id}
			acquired, ok := pending[k]
			if !ok {
				ss.Dropped["acquired-without-acquire"]++
				continue
			}
			delete(pending, k)
			if _, dup := open[k]; dup {
				ss.Dropped["release-missing"]++
			}
			open[k] = LockAcq{
				Proc: e.Proc, Seq: e.Seq,
				AcquireTime: acquired, GrantTime: e.Time, ReleaseTime: -1,
				Prev: int(e.Prev), Hops: int(e.Hops),
			}
			intervals[e.Proc] = append(intervals[e.Proc],
				syncInterval{acquired, e.Time, fmt.Sprintf("lock %d", id)})

		case protocol.SyncLockRelease:
			k := lockProcKey{e.Proc, id}
			acq, ok := open[k]
			if !ok {
				ss.Dropped["release-without-acquire"]++
				continue
			}
			delete(open, k)
			acq.ReleaseTime = e.Time
			record(lockOf(id), acq, waitFor)

		case protocol.SyncBarrier:
			k := barKey{e.Proc, gen}
			if _, dup := arrivals[k]; dup {
				ss.Dropped["barrier-rearrival"]++
			}
			arrivals[k] = e.Time
			g := genOf(gen)
			if g.Arrivals == 0 || e.Time < g.ArriveFirst {
				g.ArriveFirst = e.Time
			}
			if g.Arrivals == 0 || e.Time > g.ArriveLast {
				g.ArriveLast = e.Time
				g.Straggler = e.Proc
			}
			g.Arrivals++

		case protocol.SyncBarrierDepart:
			k := barKey{e.Proc, gen}
			at, ok := arrivals[k]
			if !ok {
				ss.Dropped["depart-without-arrive"]++
				continue
			}
			delete(arrivals, k)
			g := genOf(gen)
			if g.Departs == 0 || e.Time < g.DepartFirst {
				g.DepartFirst = e.Time
			}
			if g.Departs == 0 || e.Time > g.DepartLast {
				g.DepartLast = e.Time
			}
			g.Departs++
			g.WaitTotal += e.Time - at
			intervals[e.Proc] = append(intervals[e.Proc],
				syncInterval{at, e.Time, "barrier"})
		}
	}

	// Granted-but-unreleased lifecycles still count as acquires (their
	// wait is known); unmatched halves degrade into Dropped.
	if n := len(pending); n > 0 {
		ss.Dropped["unfinished-acquire"] += n
	}
	heldKeys := make([]lockProcKey, 0, len(open))
	for k := range open {
		heldKeys = append(heldKeys, k)
	}
	sort.Slice(heldKeys, func(i, j int) bool {
		a, b := heldKeys[i], heldKeys[j]
		if a.id != b.id {
			return a.id < b.id
		}
		return a.proc < b.proc
	})
	for _, k := range heldKeys {
		record(lockOf(k.id), open[k], waitFor)
		ss.Dropped["held-at-end"]++
	}
	if n := len(arrivals); n > 0 {
		ss.Dropped["arrive-without-depart"] += n
	}

	for _, l := range locks {
		sort.Slice(l.Acquires, func(i, j int) bool {
			a, b := &l.Acquires[i], &l.Acquires[j]
			if a.GrantTime != b.GrantTime {
				return a.GrantTime < b.GrantTime
			}
			return a.Seq < b.Seq
		})
		ss.Locks = append(ss.Locks, *l)
	}
	sort.Slice(ss.Locks, func(i, j int) bool { return ss.Locks[i].ID < ss.Locks[j].ID })
	for _, g := range gens {
		ss.Gens = append(ss.Gens, *g)
	}
	sort.Slice(ss.Gens, func(i, j int) bool { return ss.Gens[i].Gen < ss.Gens[j].Gen })
	for _, w := range waitFor {
		ss.WaitFor = append(ss.WaitFor, *w)
	}
	sort.Slice(ss.WaitFor, func(i, j int) bool {
		a, b := &ss.WaitFor[i], &ss.WaitFor[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Waiter != b.Waiter {
			return a.Waiter < b.Waiter
		}
		return a.Holder < b.Holder
	})

	ss.critAttribute(c, intervals)
	return ss
}

// record finalizes one lifecycle into its lock summary and the wait-for
// edges.
func record(l *LockSummary, a LockAcq, waitFor map[[2]int]*WaitFor) {
	l.Acquires = append(l.Acquires, a)
	l.WaitTotal += a.Wait()
	if h := a.Hold(); h >= 0 {
		l.HoldTotal += h
	}
	if a.Hops == 3 {
		l.Contended++
		if a.Prev >= 0 && a.Prev != a.Proc {
			k := [2]int{a.Proc, a.Prev}
			w := waitFor[k]
			if w == nil {
				w = &WaitFor{Waiter: a.Proc, Holder: a.Prev}
				waitFor[k] = w
			}
			w.Cycles += a.Wait()
			w.Waits++
		}
	}
}

// critAttribute walks the trace's critical path and attributes each
// program-order edge's cycles to the sync stall it falls inside, if any:
// the share of the longest causal chain the run spent waiting on each
// primitive. Message edges (the lock-transfer traffic itself) are not
// attributed to a primitive.
func (ss *SyncSet) critAttribute(c *Causal, intervals map[int][]syncInterval) {
	for p := range intervals {
		iv := intervals[p]
		sort.Slice(iv, func(i, j int) bool { return iv[i].from < iv[j].from })
		intervals[p] = iv
	}
	cp := c.CriticalPath()
	ss.CritCycles = cp.Cycles
	for i := 1; i < len(cp.Path); i++ {
		a, b := &c.Events[cp.Path[i-1]], &c.Events[cp.Path[i]]
		if a.Proc != b.Proc {
			continue
		}
		for _, iv := range intervals[b.Proc] {
			lo, hi := a.Time, b.Time
			if iv.from > lo {
				lo = iv.from
			}
			if iv.to < hi {
				hi = iv.to
			}
			if hi > lo {
				ss.CritSync[iv.prim] += hi - lo
			}
		}
	}
}

// SyncPrim names the synchronization primitive a trace event belongs to:
// "lock <id>" or "barrier" for sync operations and lock/barrier protocol
// messages, "" for everything else. Race witnesses use it to name the sync
// edge a race slipped past.
func SyncPrim(e *protocol.TraceEvent) string {
	sync := e.Op == "sync" && e.Typed
	lockMsg := e.Msg == "LockReq" || e.Msg == "LockGrant" || e.Msg == "LockRel"
	switch {
	case e.Msg == "BarArrive" || e.Msg == "BarGo", sync && e.Sync.Barrier():
		return "barrier"
	case sync, lockMsg && e.HasID:
		return fmt.Sprintf("lock %d", e.ID)
	case lockMsg:
		// Pre-extension traces carry no id on lock messages.
		return "lock ?"
	}
	return ""
}

// sorted returns the lock's distribution of a per-acquire measure, sorted;
// negative values (an unreleased hold) are left out.
func (l *LockSummary) sorted(measure func(*LockAcq) int64) []int64 {
	out := make([]int64, 0, len(l.Acquires))
	for i := range l.Acquires {
		if v := measure(&l.Acquires[i]); v >= 0 {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// formatDropped renders the shared dropped/warning preamble.
func (ss *SyncSet) formatDropped(b *strings.Builder) {
	ss.Dropped.format(b)
	for _, w := range ss.Warnings {
		fmt.Fprintf(b, "warning: %s\n", w)
	}
}

// pctLine renders a p50/p90/p99/max summary of a sorted distribution.
func pctLine(sorted []int64) string {
	if len(sorted) == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d/%d/%d",
		Percentile(sorted, 0.50), Percentile(sorted, 0.90), Percentile(sorted, 0.99),
		sorted[len(sorted)-1])
}

// FormatSync renders the per-primitive contention report: the lock table,
// the topK most contended locks with their hand-off chains, the wait-for
// summary, and each primitive's critical-path share. Deterministic for
// identical traces.
func FormatSync(ss *SyncSet, topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sync: %d locks, %d barrier generations, %d events\n",
		len(ss.Locks), len(ss.Gens), ss.Events)
	ss.formatDropped(&b)
	if len(ss.Locks) > 0 {
		fmt.Fprintf(&b, "locks:\n  %-9s %8s %8s %12s %12s  %-23s %-23s\n",
			"", "acq", "cont", "wait-total", "hold-total",
			"wait p50/p90/p99/max", "hold p50/p90/p99/max")
		for i := range ss.Locks {
			l := &ss.Locks[i]
			fmt.Fprintf(&b, "  lock %-4d %8d %8d %12d %12d  %-23s %-23s\n",
				l.ID, len(l.Acquires), l.Contended, l.WaitTotal, l.HoldTotal,
				pctLine(l.sorted((*LockAcq).Wait)), pctLine(l.sorted((*LockAcq).Hold)))
		}
	}
	if barWait := barWaitTotal(ss); len(ss.Gens) > 0 {
		fmt.Fprintf(&b, "barrier: %d generations, wait-total %d (see the skew report for per-generation detail)\n",
			len(ss.Gens), barWait)
	}

	// Top contended locks with their ownership hand-off chains.
	contended := make([]*LockSummary, 0, len(ss.Locks))
	for i := range ss.Locks {
		if ss.Locks[i].Contended > 0 {
			contended = append(contended, &ss.Locks[i])
		}
	}
	sort.Slice(contended, func(i, j int) bool {
		a, c := contended[i], contended[j]
		if a.WaitTotal != c.WaitTotal {
			return a.WaitTotal > c.WaitTotal
		}
		return a.ID < c.ID
	})
	if topK > 0 && len(contended) > topK {
		contended = contended[:topK]
	}
	if len(contended) > 0 {
		fmt.Fprintf(&b, "top contended locks:\n")
		for _, l := range contended {
			fmt.Fprintf(&b, "  lock %d: %d/%d contended acquires, wait-total %d\n",
				l.ID, l.Contended, len(l.Acquires), l.WaitTotal)
			b.WriteString("    chain: ")
			b.WriteString(chainString(l, 16))
			b.WriteString("\n")
		}
	}

	if len(ss.WaitFor) > 0 {
		fmt.Fprintf(&b, "wait-for (waiter <- holder, contended cycles):\n")
		top := ss.WaitFor
		if len(top) > 10 {
			top = top[:10]
		}
		for _, w := range top {
			fmt.Fprintf(&b, "  p%-3d <- p%-3d %12d cycles  %6d waits\n",
				w.Waiter, w.Holder, w.Cycles, w.Waits)
		}
	}

	if ss.CritCycles > 0 && len(ss.CritSync) > 0 {
		var prims []string
		var total int64
		for p, cy := range ss.CritSync {
			prims = append(prims, p)
			total += cy
		}
		sort.Strings(prims)
		fmt.Fprintf(&b, "critical-path share: sync stalls %d of %d cycles (%.1f%%)\n",
			total, ss.CritCycles, 100*float64(total)/float64(ss.CritCycles))
		for _, p := range prims {
			fmt.Fprintf(&b, "  %-10s %12d cycles (%.1f%%)\n",
				p, ss.CritSync[p], 100*float64(ss.CritSync[p])/float64(ss.CritCycles))
		}
	}
	return b.String()
}

// chainString renders a lock's ownership hand-off chain: the holders in
// grant order, the last n of them, with contended hand-offs marked "=>".
func chainString(l *LockSummary, n int) string {
	acqs := l.Acquires
	skipped := 0
	if len(acqs) > n {
		skipped = len(acqs) - n
		acqs = acqs[skipped:]
	}
	var b strings.Builder
	if skipped > 0 {
		fmt.Fprintf(&b, "(%d earlier) ", skipped)
		fmt.Fprintf(&b, "p%d", acqs[0].Prev)
	} else if len(acqs) > 0 && acqs[0].Prev >= 0 {
		fmt.Fprintf(&b, "p%d", acqs[0].Prev)
	} else {
		b.WriteString("-")
	}
	for i := range acqs {
		sep := " -> "
		if acqs[i].Hops == 3 {
			sep = " => "
		}
		fmt.Fprintf(&b, "%sp%d", sep, acqs[i].Proc)
	}
	return b.String()
}

func barWaitTotal(ss *SyncSet) int64 {
	var t int64
	for i := range ss.Gens {
		t += ss.Gens[i].WaitTotal
	}
	return t
}

// FormatSkew renders the barrier report: per-generation arrival and
// departure skew with straggler attribution, then distribution summaries
// and the stragglers ranked by how often the barrier waited for them.
// Deterministic for identical traces.
func FormatSkew(ss *SyncSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "barrier: %d generations, %d events\n", len(ss.Gens), ss.Events)
	ss.formatDropped(&b)
	if len(ss.Gens) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "  %-6s %8s %12s %12s %12s  %s\n",
		"gen", "arrived", "arrive-skew", "depart-skew", "wait-total", "straggler")
	arrSkews := make([]int64, 0, len(ss.Gens))
	depSkews := make([]int64, 0, len(ss.Gens))
	stragglers := map[int]int{}
	for i := range ss.Gens {
		g := &ss.Gens[i]
		fmt.Fprintf(&b, "  %-6d %8d %12d %12d %12d  p%d\n",
			g.Gen, g.Arrivals, g.ArriveSkew(), g.DepartSkew(), g.WaitTotal, g.Straggler)
		arrSkews = append(arrSkews, g.ArriveSkew())
		depSkews = append(depSkews, g.DepartSkew())
		if g.Straggler >= 0 {
			stragglers[g.Straggler]++
		}
	}
	sort.Slice(arrSkews, func(i, j int) bool { return arrSkews[i] < arrSkews[j] })
	sort.Slice(depSkews, func(i, j int) bool { return depSkews[i] < depSkews[j] })
	fmt.Fprintf(&b, "arrive-skew p50/p90/p99/max: %s\n", pctLine(arrSkews))
	fmt.Fprintf(&b, "depart-skew p50/p90/p99/max: %s\n", pctLine(depSkews))
	procs := make([]int, 0, len(stragglers))
	for p := range stragglers {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		if stragglers[procs[i]] != stragglers[procs[j]] {
			return stragglers[procs[i]] > stragglers[procs[j]]
		}
		return procs[i] < procs[j]
	})
	b.WriteString("stragglers:")
	for _, p := range procs {
		fmt.Fprintf(&b, " p%d x%d", p, stragglers[p])
	}
	b.WriteString("\n")
	return b.String()
}
