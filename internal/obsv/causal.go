package obsv

import (
	"fmt"
	"strings"

	"repro/internal/protocol"
)

// Causal is the one index of a trace every analyser reads: seq validity,
// program order and the leg table that pairs each handled message with its
// send. Two kinds of edges order events: program order (consecutive events
// of the same processor, in seq order) and message order (each send to the
// handle that dispatched the sent message). Because Seq is a deterministic
// total order consistent with both, the reconstruction is itself
// deterministic. The critical path, the request spans, the sync lifecycles,
// the race detector and the Chrome export are views over this structure;
// none of them matches messages on its own.
type Causal struct {
	Events []protocol.TraceEvent
	// NumProcs is one more than the highest processor id in the trace.
	NumProcs int
	// PrevOf maps an event index to the index of the same processor's
	// previous event, -1 for a processor's first event.
	PrevOf []int32
	// Legs is the leg table, one row per message seen in flight, in the
	// order the messages first appear.
	Legs []Leg
	// LegOf maps a send, xmit or handle event index to its row in Legs;
	// -1 for every other event, for sends and xmits whose detail did not
	// parse, and for handles with no recoverable send (filtered traces,
	// or requeues and directory-shortcut deliveries that bypass the send
	// path).
	LegOf []int32
	// Gapped reports that the trace has seq gaps (a filtered or sampled
	// trace): pairing then degrades gracefully — unmatched events become
	// warnings, never mis-paired edges.
	Gapped bool
	// BadSeq is the index of the first event whose seq is not above its
	// predecessor's, -1 for a valid trace order.
	BadSeq int
	// Warnings lists non-fatal reconstruction anomalies.
	Warnings []string
}

// Leg is one message in flight: the indices of its send, xmit and handle
// events (-1 for the ones the trace does not hold; a leg whose send was
// sampled out is kept on the strength of its xmit) and the requester it
// travels for, -1 while no event names one.
type Leg struct {
	Send, Xmit, Handle int32
	Req                int32
}

// SendOf returns the index of the send event matched to handle event i, -1
// when i is not a handle or its send is not in the trace.
func (c *Causal) SendOf(i int) int {
	if l := c.LegOf[i]; l >= 0 && c.Legs[l].Handle == int32(i) {
		return int(c.Legs[l].Send)
	}
	return -1
}

// sendKey identifies the stream a protocol message travels on, as far as
// the trace can see: block and destination processor (a send or xmit
// event's Peer; handles name their own processor). The few messages in
// flight on one stream are told apart by kind and requester.
type sendKey struct{ blk, dst int }

// requesterAt names the requester a send or handle event's message travels
// for, -1 when the event does not say. Requests and the sender-named sync
// kinds are sent by their requester and handled with it in Req; replies
// travel to their requester; a forward's send does not carry it (its xmit
// does), its handle does. Every other kind is anonymous.
func requesterAt(e *protocol.TraceEvent) int32 {
	send := e.Op == "send"
	switch e.Msg {
	case "ReadReq", "ReadExclReq", "UpgradeReq", "LockReq", "LockRel", "BarArrive":
		if send {
			return int32(e.Proc)
		}
	case "DataReply", "DataExclReply", "UpgradeAck":
		if send {
			return e.Peer
		}
		return int32(e.Proc)
	case "ReadFwd", "ReadExclFwd":
		if send {
			return -1
		}
	default:
		return -1
	}
	if e.Typed {
		return e.Req
	}
	return -1
}

// BuildCausal indexes a trace in one pass. The events must be in trace
// (seq) order, as read from a trace file.
//
// A handle is matched to the oldest in-flight message of its kind, block
// and destination that travels for the same requester; to the oldest whose
// requester is still unknown (a forward whose xmit was filtered out) when
// none does; and in plain arrival order only for the anonymous kinds
// (invalidations, downgrades, grants), where the protocol keeps at most one
// message in flight per stream or the order is immaterial. Arrival order
// alone is wrong on an SMP cluster: same-kind messages to one (block,
// destination) cross intra-node queues and the Memory Channel with
// different latencies, and a busy home requeues requests and re-dispatches
// them later with no send at all, so two requesters' messages are regularly
// handled in the opposite order of their sends — and an edge is only as
// good as the sender it was matched on.
func BuildCausal(events []protocol.TraceEvent) *Causal {
	c := &Causal{
		Events: events,
		PrevOf: make([]int32, len(events)),
		LegOf:  make([]int32, len(events)),
		BadSeq: -1,
	}
	sends := 0
	for i := range events {
		if events[i].Op == "send" {
			sends++
		}
		if events[i].Proc >= c.NumProcs {
			c.NumProcs = events[i].Proc + 1
		}
	}
	c.Legs = make([]Leg, 0, sends)
	inFlight := newQueues[sendKey](sends)
	lastOf := make([]int32, c.NumProcs)   // per processor: its latest event
	lastSend := make([]int32, c.NumProcs) // per processor: the leg whose send awaits its xmit
	for p := range lastOf {
		lastOf[p], lastSend[p] = -1, -1
	}
	newLeg := func(e *protocol.TraceEvent, l Leg) int32 {
		id := int32(len(c.Legs))
		c.Legs = append(c.Legs, l)
		inFlight.push(sendKey{e.BaseLine, int(e.Peer)}, id)
		return id
	}
	unparsed := 0
	for i := range events {
		e := &events[i]
		if i > 0 {
			if last := events[i-1].Seq; e.Seq <= last {
				if c.BadSeq < 0 {
					c.BadSeq = i
				}
				c.Warnings = append(c.Warnings,
					fmt.Sprintf("seq not increasing at event %d (%d after %d)", i, e.Seq, last))
			} else if e.Seq != last+1 {
				c.Gapped = true
			}
		}
		c.PrevOf[i] = lastOf[e.Proc]
		lastOf[e.Proc] = int32(i)
		c.LegOf[i] = -1

		switch e.Op {
		case "send":
			if !e.Typed {
				unparsed++
				continue
			}
			l := newLeg(e, Leg{Send: int32(i), Xmit: -1, Handle: -1, Req: requesterAt(e)})
			c.LegOf[i], lastSend[e.Proc] = l, l
		case "xmit":
			if !e.Typed {
				continue
			}
			if l := lastSend[e.Proc]; l >= 0 {
				// The usual case: the xmit annotates the send this
				// processor just emitted, and names a forward's requester.
				leg := &c.Legs[l]
				if s := &events[leg.Send]; s.Time == e.Time && s.Msg == e.Msg && s.BaseLine == e.BaseLine {
					leg.Xmit = int32(i)
					if leg.Req < 0 {
						leg.Req = e.Req
					}
					c.LegOf[i], lastSend[e.Proc] = l, -1
					continue
				}
			}
			// The send was sampled out: the xmit alone carries the
			// destination, requester and timing of the leg.
			c.LegOf[i] = newLeg(e, Leg{Send: -1, Xmit: int32(i), Handle: -1, Req: e.Req})
		case "handle":
			// Of the stream's in-flight messages of this kind: the oldest
			// that travels for the handle's requester (or, for a handle
			// that names none, the oldest whose requester is unknown too);
			// failing that the oldest that either side leaves unnamed.
			k := sendKey{e.BaseLine, e.Proc}
			r := requesterAt(e)
			stream, prev, l := inFlight.at(k), int32(-1), int32(-1)
			for p, q := int32(-1), stream.head; q >= 0; p, q = q, inFlight.next[q] {
				leg := &c.Legs[q]
				if events[max(leg.Send, leg.Xmit)].Msg != e.Msg {
					continue
				}
				if leg.Req == r {
					prev, l = p, q
					break
				}
				if l < 0 && (leg.Req < 0 || r < 0) {
					prev, l = p, q
				}
			}
			if l < 0 {
				if !c.Gapped {
					c.Warnings = append(c.Warnings,
						fmt.Sprintf("handle without visible send: seq=%d %s blk%d at p%d",
							e.Seq, e.Msg, e.BaseLine, e.Proc))
				}
				continue
			}
			inFlight.remove(k, stream, prev, l)
			leg := &c.Legs[l]
			leg.Handle, c.LegOf[i] = int32(i), l
			if leg.Req < 0 {
				leg.Req = r
			}
		}
	}
	if unparsed > 0 {
		c.Warnings = append(c.Warnings,
			fmt.Sprintf("%d send events without parseable destination", unparsed))
	}
	if c.Gapped {
		c.Warnings = append(c.Warnings,
			"trace has seq gaps (filtered or sampled); causal edges limited to surviving events")
	} else if inFlight.n > 0 {
		c.Warnings = append(c.Warnings, fmt.Sprintf("%d sends never handled (truncated trace?)", inFlight.n))
	}
	return c
}

// queues is a set of FIFO queues of small integer ids (event indices, leg
// rows) keyed by K, threaded through one next-slice so that a queue costs no
// allocation of its own. An id may sit in one queue at a time.
type queues[K comparable] struct {
	ends map[K]queue // the non-empty queues
	next []int32     // next[id]: the id queued behind id, -1 at a tail
	n    int         // ids queued over all keys
}

// queue is one queue's oldest and newest id, both -1 when it is empty.
type queue struct{ head, tail int32 }

func newQueues[K comparable](ids int) *queues[K] {
	return &queues[K]{ends: map[K]queue{}, next: make([]int32, 0, ids)}
}

// at returns k's queue.
func (q *queues[K]) at(k K) queue {
	if e, ok := q.ends[k]; ok {
		return e
	}
	return queue{-1, -1}
}

// push appends id to k's queue.
func (q *queues[K]) push(k K, id int32) {
	for int(id) >= len(q.next) {
		q.next = append(q.next, -1)
	}
	q.next[id] = -1
	e := q.at(k)
	if e.tail >= 0 {
		q.next[e.tail] = id
	} else {
		e.head = id
	}
	q.ends[k] = queue{e.head, id}
	q.n++
}

// remove unlinks id from k's queue e, where it follows prev (-1 when id is
// the head).
func (q *queues[K]) remove(k K, e queue, prev, id int32) {
	next := q.next[id]
	if prev >= 0 {
		q.next[prev] = next
	} else {
		e.head = next
	}
	if next < 0 {
		e.tail = prev
	}
	if e.head < 0 {
		delete(q.ends, k)
	} else {
		q.ends[k] = e
	}
	q.n--
}

// pop removes and returns the oldest id of k's queue, -1 when it is empty.
func (q *queues[K]) pop(k K) int32 {
	e := q.at(k)
	if e.head >= 0 {
		q.remove(k, e, -1, e.head)
	}
	return e.head
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
			relax(int(p), i)
		}
		if s := c.SendOf(i); s >= 0 {
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
		if c.SendOf(cp.Path[i]) == cp.Path[i-1] {
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
		for i+1 < len(cp.Path) && c.SendOf(cp.Path[i+1]) != cp.Path[i] {
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
