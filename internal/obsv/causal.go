package obsv

import (
	"fmt"
	"strings"

	"repro/internal/protocol"
)

// Causal is the happens-before structure reconstructed from a trace. Two
// kinds of edges order events: program order (consecutive events of the same
// processor, in seq order) and message order (each send to the handle that
// dispatched the sent message). Because Seq is a deterministic total order
// consistent with both, the reconstruction is itself deterministic.
type Causal struct {
	Events []protocol.TraceEvent
	// SendOf maps the index of a handle event to the index of its
	// matching send event; handles with no recoverable send (filtered
	// traces, or directory-shortcut deliveries that bypass the send path)
	// are absent.
	SendOf map[int]int
	// PrevOf maps an event index to the index of the same processor's
	// previous event, -1 for a processor's first event.
	PrevOf []int
	// Gapped reports that the trace has seq gaps (a filtered or sampled
	// trace): pairing then degrades gracefully — unmatched events become
	// warnings, never mis-paired edges.
	Gapped bool
	// Warnings lists non-fatal reconstruction anomalies.
	Warnings []string
}

// sendKey identifies the FIFO stream a protocol message travels on, as far
// as the trace can see: message kind, block and destination processor (a
// send event's Peer; handles name their own processor). Matching within a
// key is FIFO in seq order, which is consistent for latency analysis even if
// the interconnect reordered two identical messages: the edge weights
// telescope either way.
type sendKey struct {
	msg string
	blk int
	dst int
}

// BuildCausal reconstructs the happens-before edges of a trace. The events
// must be in trace (seq) order, as read from a trace file.
func BuildCausal(events []protocol.TraceEvent) *Causal {
	c := &Causal{
		Events: events,
		SendOf: map[int]int{},
		PrevOf: make([]int, len(events)),
	}
	var lastSeq uint64
	lastOf := map[int]int{}
	pending := map[sendKey][]int{}
	unparsedSends := 0
	for i, e := range events {
		if i > 0 {
			if e.Seq <= lastSeq {
				c.Warnings = append(c.Warnings,
					fmt.Sprintf("seq not increasing at event %d (%d after %d)", i, e.Seq, lastSeq))
			} else if e.Seq != lastSeq+1 {
				c.Gapped = true
			}
		}
		lastSeq = e.Seq

		if prev, ok := lastOf[e.Proc]; ok {
			c.PrevOf[i] = prev
		} else {
			c.PrevOf[i] = -1
		}
		lastOf[e.Proc] = i

		switch e.Op {
		case "send":
			if !e.Typed {
				unparsedSends++
				continue
			}
			k := sendKey{e.Msg, e.BaseLine, int(e.Peer)}
			pending[k] = append(pending[k], i)
		case "handle":
			k := sendKey{e.Msg, e.BaseLine, e.Proc}
			q := pending[k]
			if len(q) == 0 {
				// No visible send: a filtered trace, or an internal
				// requeue/directory shortcut that legitimately bypasses
				// the send path. Leave the handle without a message edge.
				if !c.Gapped {
					c.Warnings = append(c.Warnings,
						fmt.Sprintf("handle without visible send: seq=%d %s blk%d at p%d",
							e.Seq, e.Msg, e.BaseLine, e.Proc))
				}
				continue
			}
			c.SendOf[i] = q[0]
			if len(q) == 1 {
				delete(pending, k)
			} else {
				pending[k] = q[1:]
			}
		}
	}
	if unparsedSends > 0 {
		c.Warnings = append(c.Warnings,
			fmt.Sprintf("%d send events without parseable destination", unparsedSends))
	}
	if c.Gapped {
		c.Warnings = append(c.Warnings,
			"trace has seq gaps (filtered or sampled); causal edges limited to surviving events")
	}
	n := 0
	for _, q := range pending {
		n += len(q)
	}
	if n > 0 && !c.Gapped {
		c.Warnings = append(c.Warnings, fmt.Sprintf("%d sends never handled (truncated trace?)", n))
	}
	return c
}

// CritPath is the longest causal chain of a trace: the sequence of events,
// linked by program-order and message edges, with the largest elapsed
// virtual time. Edge weights are the virtual-time deltas between linked
// events, so they telescope: Cycles equals the end event's time minus the
// start event's.
type CritPath struct {
	// Path holds event indices from chain start to chain end.
	Path []int
	// Cycles is the chain's elapsed virtual time.
	Cycles int64
	// MsgEdges counts message (send->handle) crossings on the chain.
	MsgEdges int
}

// CriticalPath computes the longest causal chain by dynamic programming in
// seq order (every edge goes from a lower to a higher index, so one forward
// pass suffices). Ties break toward the smaller event index, keeping the
// result deterministic.
func (c *Causal) CriticalPath() CritPath {
	n := len(c.Events)
	if n == 0 {
		return CritPath{}
	}
	dist := make([]int64, n)
	pred := make([]int, n)
	for i := range pred {
		pred[i] = -1
	}
	relax := func(from, to int) {
		w := c.Events[to].Time - c.Events[from].Time
		if w < 0 {
			w = 0
		}
		if d := dist[from] + w; d > dist[to] {
			dist[to] = d
			pred[to] = from
		}
	}
	best := 0
	for i := 0; i < n; i++ {
		if p := c.PrevOf[i]; p >= 0 {
			relax(p, i)
		}
		if s, ok := c.SendOf[i]; ok {
			relax(s, i)
		}
		if dist[i] > dist[best] {
			best = i
		}
	}
	var rev []int
	for i := best; i >= 0; i = pred[i] {
		rev = append(rev, i)
	}
	cp := CritPath{Cycles: dist[best], Path: make([]int, len(rev))}
	for i, idx := range rev {
		cp.Path[len(rev)-1-i] = idx
	}
	for i := 1; i < len(cp.Path); i++ {
		if s, ok := c.SendOf[cp.Path[i]]; ok && s == cp.Path[i-1] {
			cp.MsgEdges++
		}
	}
	return cp
}

// Format renders the critical path with program-order runs collapsed: each
// message crossing shows both endpoints and the edge's cycle cost, and the
// events a processor executes between crossings appear as one summarized
// line. Deterministic for identical traces.
func (cp CritPath) Format(c *Causal) string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d cycles, %d events, %d message edges\n",
		cp.Cycles, len(cp.Path), cp.MsgEdges)
	for _, w := range c.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	if len(cp.Path) == 0 {
		return b.String()
	}
	line := func(idx int, prefix string, extra string) {
		e := c.Events[idx]
		msg := e.Msg
		if msg == "" {
			msg = "-"
		}
		fmt.Fprintf(&b, "%s seq=%-8d t=%-10d p%-3d %-10s %-18s blk%-5d%s\n",
			prefix, e.Seq, e.Time, e.Proc, e.Op, msg, e.BaseLine, extra)
	}
	i := 0
	for i < len(cp.Path) {
		start := i
		// A program-order run: consecutive path events on one processor,
		// ending before the next message crossing.
		for i+1 < len(cp.Path) {
			next := cp.Path[i+1]
			if s, ok := c.SendOf[next]; ok && s == cp.Path[i] {
				break
			}
			i++
		}
		first, last := cp.Path[start], cp.Path[i]
		if first == last {
			line(first, "  ", "")
		} else {
			e0, e1 := c.Events[first], c.Events[last]
			line(first, "  ", "")
			if i-start > 1 {
				fmt.Fprintf(&b, "     ... %d more events on p%d (+%d cycles) ...\n",
					i-start-1, e0.Proc, e1.Time-e0.Time)
			}
			line(last, "  ", "")
		}
		if i+1 < len(cp.Path) {
			snd, hnd := cp.Path[i], cp.Path[i+1]
			cost := c.Events[hnd].Time - c.Events[snd].Time
			line(hnd, "  ->", fmt.Sprintf("  (+%d cycles in flight)", cost))
			i++
		}
		i++
	}
	return b.String()
}
