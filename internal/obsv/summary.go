package obsv

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// TraceSummary aggregates one trace into counts suitable for quick
// inspection and run-to-run comparison.
type TraceSummary struct {
	Events int
	// FirstSeq and LastSeq bound the sequence numbers seen (zero when the
	// trace is empty); gaps relative to Events reveal filtering/sampling.
	FirstSeq, LastSeq uint64
	// FirstTime and LastTime bound the virtual timestamps seen.
	FirstTime, LastTime int64
	// ByOp counts events per kind, ByProc per emitting processor, and
	// ByMsg per message name (send/handle events only).
	ByOp   map[string]int
	ByProc map[int]int
	ByMsg  map[string]int
	// Blocks is the number of distinct block base lines that appear.
	Blocks int
}

// Summarize aggregates events into a TraceSummary.
func Summarize(events []protocol.TraceEvent) *TraceSummary {
	s := &TraceSummary{
		ByOp:   map[string]int{},
		ByProc: map[int]int{},
		ByMsg:  map[string]int{},
	}
	blocks := map[int]bool{}
	for i, e := range events {
		s.Events++
		if i == 0 {
			s.FirstSeq, s.LastSeq = e.Seq, e.Seq
			s.FirstTime, s.LastTime = e.Time, e.Time
		} else {
			if e.Seq < s.FirstSeq {
				s.FirstSeq = e.Seq
			}
			if e.Seq > s.LastSeq {
				s.LastSeq = e.Seq
			}
			if e.Time < s.FirstTime {
				s.FirstTime = e.Time
			}
			if e.Time > s.LastTime {
				s.LastTime = e.Time
			}
		}
		s.ByOp[e.Op]++
		s.ByProc[e.Proc]++
		if e.Msg != "" {
			s.ByMsg[e.Msg]++
		}
		if e.BaseLine >= 0 {
			blocks[e.BaseLine] = true
		}
	}
	s.Blocks = len(blocks)
	return s
}

// Format renders the summary deterministically (sorted keys, fixed layout),
// so summaries of identical traces compare byte-for-byte.
func (s *TraceSummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d (seq %d..%d, t %d..%d cycles, %d blocks)\n",
		s.Events, s.FirstSeq, s.LastSeq, s.FirstTime, s.LastTime, s.Blocks)
	b.WriteString("by op:\n")
	for _, op := range stats.SortedKeys(s.ByOp) {
		fmt.Fprintf(&b, "  %-10s %d\n", op, s.ByOp[op])
	}
	if len(s.ByMsg) > 0 {
		b.WriteString("by message:\n")
		for _, m := range stats.SortedKeys(s.ByMsg) {
			fmt.Fprintf(&b, "  %-18s %d\n", m, s.ByMsg[m])
		}
	}
	b.WriteString("by proc:\n")
	procs := make([]int, 0, len(s.ByProc))
	for p := range s.ByProc {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		fmt.Fprintf(&b, "  p%-2d %d\n", p, s.ByProc[p])
	}
	return b.String()
}

// Diff compares two summaries and renders the differences. It returns an
// empty string and true when they are identical.
func Diff(a, b *TraceSummary) (string, bool) {
	var d strings.Builder
	if a.Events != b.Events {
		fmt.Fprintf(&d, "events: %d vs %d\n", a.Events, b.Events)
	}
	if a.FirstSeq != b.FirstSeq || a.LastSeq != b.LastSeq {
		fmt.Fprintf(&d, "seq range: %d..%d vs %d..%d\n",
			a.FirstSeq, a.LastSeq, b.FirstSeq, b.LastSeq)
	}
	if a.FirstTime != b.FirstTime || a.LastTime != b.LastTime {
		fmt.Fprintf(&d, "time range: %d..%d vs %d..%d\n",
			a.FirstTime, a.LastTime, b.FirstTime, b.LastTime)
	}
	if a.Blocks != b.Blocks {
		fmt.Fprintf(&d, "blocks: %d vs %d\n", a.Blocks, b.Blocks)
	}
	diffStr := func(label string, am, bm map[string]int) {
		keys := map[string]bool{}
		for k := range am {
			keys[k] = true
		}
		for k := range bm {
			keys[k] = true
		}
		for _, k := range stats.SortedKeys(keys) {
			if am[k] != bm[k] {
				fmt.Fprintf(&d, "%s %s: %d vs %d\n", label, k, am[k], bm[k])
			}
		}
	}
	diffStr("op", a.ByOp, b.ByOp)
	diffStr("msg", a.ByMsg, b.ByMsg)
	procs := map[int]bool{}
	for p := range a.ByProc {
		procs[p] = true
	}
	for p := range b.ByProc {
		procs[p] = true
	}
	ps := make([]int, 0, len(procs))
	for p := range procs {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		if a.ByProc[p] != b.ByProc[p] {
			fmt.Fprintf(&d, "proc p%d: %d vs %d\n", p, a.ByProc[p], b.ByProc[p])
		}
	}
	out := d.String()
	return out, out == ""
}

// Timeline extracts the events touching one block base line, in trace
// order, rendered one per line: sequence, virtual time, processor, op,
// message and detail. This reconstructs a block's protocol history — e.g.
// the miss/send/handle/downgrade/install chain of a two-hop fetch — from a
// full-run trace.
func Timeline(events []protocol.TraceEvent, block int) string {
	var b strings.Builder
	for _, e := range events {
		if e.BaseLine != block {
			continue
		}
		fmt.Fprintf(&b, "%6d  t=%-8d p%-2d %-10s", e.Seq, e.Time, e.Proc, e.Op)
		if e.Msg != "" {
			fmt.Fprintf(&b, " %-18s", e.Msg)
		}
		if d := e.AppendDetail(nil); len(d) > 0 {
			fmt.Fprintf(&b, " %s", d)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
