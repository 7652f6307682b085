package obsv

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// This file reconstructs per-request spans from a trace: one span per
// remote miss (or upgrade), broken into the virtual-time stages the request
// passed through — issue, link queueing, wire transit, inbox wait, directory
// service, forward, owner service, reply transit, install. The evidence is
// the ordinary send/handle/miss/install events plus the xmit extension
// (trace schema v1; see OBSERVABILITY.md §10), which carries the
// interconnect's exact queue/wire/serialization split for every
// miss-protocol message. On traces without xmit events (older runs, or
// filtered ones) the transit stages collapse into coarser "-flight" stages;
// the stage partition always telescopes, so a complete span's stages sum
// exactly to its end-to-end latency.

// SpanStage is one stage of a span with its virtual-time duration. Stage
// names form a fixed vocabulary (see stageFamily); a given span carries only
// the stages its evidence supports, in lifecycle order.
type SpanStage struct {
	Name   string
	Cycles int64
}

// Span is one reconstructed request lifecycle.
type Span struct {
	// Requester, Home and Owner are processor ids; Owner is -1 for
	// two-hop requests served by the home.
	Requester, Home, Owner int
	// Block is the block's base line.
	Block int
	// Kind is the request class: "read", "write" or "upgrade".
	Kind string
	// Hops is 2 when the reply came from the home, 3 via a third
	// processor (the paper's Figure 6 classification).
	Hops int
	// Uplink reports that at least one leg crossed a hierarchical uplink.
	Uplink bool
	// Retries counts protocol retry rounds: a reply superseded by a
	// concurrent invalidation makes the requester re-issue the request,
	// and the span covers every round up to the final install.
	Retries int
	// Start and End are the span's first and last virtual-time points:
	// the miss event (or the request send, when the miss was merged into
	// an earlier entry) and the install event.
	Start, End int64
	// Seq is the trace sequence number of the anchoring event, a stable
	// span identity within one trace.
	Seq uint64
	// Stages partitions [Start, End]: durations sum exactly to End-Start.
	Stages []SpanStage
}

// Total returns the span's end-to-end latency in cycles.
func (s *Span) Total() int64 { return s.End - s.Start }

// SpanSet is the result of reconstructing every span of a trace.
type SpanSet struct {
	// Spans lists complete spans in completion (install seq) order.
	Spans []Span
	// Dropped counts incomplete reconstructions by reason; such requests
	// are reported, never silently omitted or mis-attributed.
	Dropped Dropped
	// Gapped reports seq gaps in the trace (filtered or sampled), the
	// usual cause of dropped spans.
	Gapped bool
	// UnissuedMisses counts miss events with no visible request; they are
	// informational (e.g. batched blocks already in flight), not drops.
	UnissuedMisses int
	// Warnings lists non-fatal reconstruction anomalies.
	Warnings []string
}

// DroppedTotal sums the drop counts.
func (ss *SpanSet) DroppedTotal() int { return ss.Dropped.Total() }

// Dropped counts what an analyser could not reconstruct, by reason.
type Dropped map[string]int

// Total sums the drop counts.
func (d Dropped) Total() int {
	n := 0
	for _, c := range d {
		n += c
	}
	return n
}

// format renders the "dropped: N (reason n, ...)" line of a report.
func (d Dropped) format(b *strings.Builder) {
	if len(d) == 0 {
		b.WriteString("dropped: 0\n")
		return
	}
	parts := make([]string, 0, len(d))
	for _, r := range stats.SortedKeys(d) {
		parts = append(parts, fmt.Sprintf("%s %d", r, d[r]))
	}
	fmt.Fprintf(b, "dropped: %d (%s)\n", d.Total(), strings.Join(parts, ", "))
}

// legRole classifies a message leg within a span.
type legRole int

const (
	legReq legRole = iota
	legFwd
	legReply
)

// spanLegKind maps a message kind to its leg role; ok is false for kinds
// that are not part of a miss lifecycle.
func spanLegKind(msg string) (legRole, bool) {
	switch msg {
	case "ReadReq", "ReadExclReq", "UpgradeReq":
		return legReq, true
	case "ReadFwd", "ReadExclFwd":
		return legFwd, true
	case "DataReply", "DataExclReply", "UpgradeAck":
		return legReply, true
	}
	return 0, false
}

// reqKindName maps a request message kind to the span's request class.
func reqKindName(msg string) string {
	switch msg {
	case "ReadReq":
		return "read"
	case "ReadExclReq":
		return "write"
	case "UpgradeReq":
		return "upgrade"
	}
	return "unknown"
}

// spanBuilder accumulates one request's checkpoints during the trace walk.
type spanBuilder struct {
	req, blk    int
	kind        string
	seq         uint64 // anchor event seq
	start       int64
	hasMiss     bool
	home, owner int

	reqLeg, fwdLeg, replyLeg int32 // rows of Causal.Legs, -1 = none

	homeHandle, homeRequeue   int64 // 0 = unset (virtual time > 0 for all protocol events)
	ownerHandle, ownerRequeue int64
	replyHandle               int64

	// rehomed marks a round whose request was re-dispatched at a different
	// processor than the home that first handled it: the block's home
	// migrated mid-flight and a tombstone forwarded the request to the
	// live home (online migration; see internal/protocol).
	rehomed bool

	// prefix holds the stages of completed retry rounds; prefixEnd is the
	// virtual time they cover up to (0 when there are none).
	prefix    []SpanStage
	prefixEnd int64
	retries   int
	uplink    bool
}

// rbKey identifies a span: at most one request per (requester, block) is
// active at a time (stores merge into pending read entries; the follow-up
// upgrade is only issued after the read installs).
type rbKey struct{ req, blk int }

// spanWalk is the state of one span reconstruction over an indexed trace.
type spanWalk struct {
	c      *Causal
	ss     *SpanSet
	active map[rbKey]*spanBuilder
	// misses queues each (processor, block)'s miss events awaiting the
	// request that anchors on them; rbKey.req is the missing processor.
	misses *queues[rbKey]
	// owner is each leg's span, nil until known (xmit-less forwards learn
	// it at their handle).
	owner []*spanBuilder
	// cps is roundCheckpoints' result buffer, reused from call to call.
	cps []checkpoint
}

// BuildSpans reconstructs the request spans of a trace. The events must be
// in trace (seq) order.
func BuildSpans(events []protocol.TraceEvent) *SpanSet { return BuildCausal(events).Spans() }

// Spans reconstructs the request spans of the indexed trace: the leg table
// says which send, xmit and handle belong to one message, and the walk adds
// the protocol's request lifecycle and the xmit timing decomposition. It
// never fails — requests whose evidence is incomplete or inconsistent
// (gapped traces) are counted in Dropped with a reason.
func (c *Causal) Spans() *SpanSet {
	ss := &SpanSet{Dropped: Dropped{}, Gapped: c.Gapped}
	w := &spanWalk{c: c, ss: ss, active: map[rbKey]*spanBuilder{},
		misses: newQueues[rbKey](len(c.Events)), owner: make([]*spanBuilder, len(c.Legs))}
	unparsed := 0
	for i := range c.Events {
		e := &c.Events[i]
		switch e.Op {
		case "miss":
			w.misses.push(rbKey{e.Proc, e.BaseLine}, int32(i))
		case "install":
			k := rbKey{e.Proc, e.BaseLine}
			b := w.active[k]
			if b == nil {
				continue
			}
			delete(w.active, k)
			if sp, reason := w.finalize(b, e); reason != "" {
				ss.Dropped[reason]++
			} else {
				ss.Spans = append(ss.Spans, sp)
			}
		case "send", "xmit", "handle":
			role, isLeg := spanLegKind(e.Msg)
			if !isLeg {
				continue
			}
			switch l := c.LegOf[i]; {
			case e.Op == "handle" && l >= 0:
				w.resolveLeg(l, role, e)
			case e.Op == "handle":
				if r := requesterAt(e); r >= 0 {
					w.unsentHandle(int(r), role, e)
				} else {
					unparsed++
				}
			case l < 0:
				unparsed++
			case e.Op == "send":
				w.attachLeg(l, role, e)
			case role == legFwd || c.Legs[l].Send < 0:
				// The xmit is the first event to name this leg's
				// requester: a forward's, or a leg whose send was sampled
				// out.
				w.attachLegX(l, role, e.BaseLine)
			}
		}
	}

	ss.UnissuedMisses = w.misses.n
	if len(w.active) > 0 {
		ss.Dropped["incomplete"] += len(w.active)
	}
	if unparsed > 0 {
		ss.Warnings = append(ss.Warnings,
			fmt.Sprintf("%d events with unparseable span details", unparsed))
	}
	if ss.Gapped {
		ss.Warnings = append(ss.Warnings,
			"trace has seq gaps (filtered or sampled); spans limited to surviving evidence")
	}
	return ss
}

// unsentHandle applies a handle with no visible send to requester r's span:
// a requeued request or forward re-dispatching after its block unblocked,
// the direct path (home within the requester's group injects the request
// without a send event), or a sampled-out send.
func (w *spanWalk) unsentHandle(r int, role legRole, e *protocol.TraceEvent) {
	k := rbKey{r, e.BaseLine}
	b := w.active[k]
	switch {
	case role == legReq && b != nil && b.homeHandle != 0:
		if b.replyHandle != 0 && w.foldRetry(b, e.Time) {
			// A handled reply followed by a fresh request handle
			// with no send in between is the direct path's retry:
			// fold the superseded round and start the next one
			// at this dispatch.
			w.misses.pop(k)
			b.homeHandle, b.home = e.Time, e.Proc
		} else if b.ownerHandle != 0 {
			b.ownerRequeue = e.Time
		} else {
			b.homeRequeue = e.Time
			if e.Proc != b.home {
				// Re-dispatched at a different processor than the
				// home that first handled it: the block's home
				// migrated and a tombstone forwarded the request.
				b.rehomed, b.home = true, e.Proc
			}
		}
	case role == legReq:
		// Direct path: open a span anchored at the miss (or here).
		b = w.open(k, e)
		b.home, b.homeHandle = e.Proc, e.Time
	case role == legFwd && b != nil:
		if b.ownerHandle == 0 {
			b.ownerHandle, b.owner = e.Time, e.Proc
		} else {
			b.ownerRequeue = e.Time
		}
	case role == legReply && b != nil:
		if b.replyLeg < 0 && b.replyHandle == 0 {
			b.replyHandle = e.Time
		}
	default:
		if !w.ss.Gapped {
			w.ss.Warnings = append(w.ss.Warnings,
				fmt.Sprintf("handle without visible send or span: seq=%d %s blk%d at p%d",
					e.Seq, e.Msg, e.BaseLine, e.Proc))
		}
	}
}

// open registers a new span for k's request, seen first at event e (its send,
// or its dispatch on the direct path) and anchored at the requester's miss
// event when one is waiting. A span still active for the same (requester,
// block) is dropped — evidence of a gapped trace where the earlier request's
// install was sampled out.
func (w *spanWalk) open(k rbKey, e *protocol.TraceEvent) *spanBuilder {
	b := &spanBuilder{req: k.req, blk: k.blk, kind: reqKindName(e.Msg),
		seq: e.Seq, start: e.Time, owner: -1, reqLeg: -1, fwdLeg: -1, replyLeg: -1}
	if m := w.misses.pop(k); m >= 0 {
		b.hasMiss, b.start, b.seq = true, w.c.Events[m].Time, w.c.Events[m].Seq
	}
	if w.active[k] != nil {
		w.ss.Dropped["superseded"]++
	}
	w.active[k] = b
	return b
}

// attachLeg connects a freshly sent leg to its span: request legs open a new
// span, reply legs attach to the active span of their destination requester.
// Forward legs stay unattached until their xmit or handle names the
// requester.
func (w *spanWalk) attachLeg(l int32, role legRole, e *protocol.TraceEvent) {
	k := rbKey{int(w.c.Legs[l].Req), e.BaseLine}
	switch role {
	case legReq:
		b := w.active[k]
		if b != nil && (!w.ss.Gapped || b.replyHandle != 0) && w.foldRetry(b, e.Time) {
			// A retry round: the active request's reply was superseded by
			// a concurrent invalidation (its install never came), and the
			// requester re-issued — a fresh miss event and this new send.
			// The logical request is one span covering every round, so
			// fold rather than replace; the retry's own miss event is
			// consumed (the span keeps its original anchor). On gapped
			// traces folding requires the old round's handled reply as
			// evidence, else a sampled-out install would silently merge
			// two independent requests.
			w.misses.pop(k)
		} else {
			b = w.open(k, e)
		}
		b.reqLeg, w.owner[l] = l, b
	case legReply:
		if b := w.active[k]; b != nil {
			// Keep the latest reply: a superseded reply (stale directory
			// sequence) never installs and is overtaken by a newer one.
			b.replyLeg, w.owner[l] = l, b
		}
	}
}

// attachLegX attaches a leg whose requester is known (from its xmit, or by
// its handle) to that requester's active span, if it has none yet.
func (w *spanWalk) attachLegX(l int32, role legRole, blk int) {
	if w.owner[l] != nil || w.c.Legs[l].Req < 0 {
		return
	}
	b := w.active[rbKey{int(w.c.Legs[l].Req), blk}]
	if b == nil {
		return
	}
	w.owner[l] = b
	if role == legFwd {
		b.fwdLeg = l
	} else if role == legReply && b.replyLeg < 0 {
		b.replyLeg = l
	}
}

// resolveLeg applies a handled leg's checkpoint to its span. Legs that never
// found a span (gapped traces, xmit-less forwards) look it up here, now that
// the handle has named the requester.
func (w *spanWalk) resolveLeg(l int32, role legRole, e *protocol.TraceEvent) {
	w.attachLegX(l, role, e.BaseLine)
	b := w.owner[l]
	if b == nil {
		return
	}
	switch role {
	case legReq:
		if b.homeHandle == 0 {
			b.homeHandle = e.Time
			b.home = e.Proc
		} else if b.ownerHandle != 0 {
			b.ownerRequeue = e.Time
		} else {
			b.homeRequeue = e.Time
		}
	case legFwd:
		if b.ownerHandle == 0 {
			b.ownerHandle = e.Time
			b.owner = e.Proc
		} else {
			b.ownerRequeue = e.Time
		}
	case legReply:
		if l == b.replyLeg {
			b.replyHandle = e.Time
		}
	}
}

// checkpoint is one named point of a span's lifecycle used to cut stages.
type checkpoint struct {
	name string
	t    int64
}

// transitStages names the stages one leg's flight is cut into.
type transitStages struct{ queue, wire, inbox, flight string }

var (
	reqTransit   = transitStages{"req-queue", "req-wire", "home-inbox", "req-flight"}
	fwdTransit   = transitStages{"fwd-queue", "fwd-wire", "owner-inbox", "fwd-flight"}
	replyTransit = transitStages{"reply-queue", "reply-wire", "reply-inbox", "reply-flight"}
)

// roundCheckpoints builds the current round's ordered checkpoint chain
// from whatever evidence the round has. The result is valid until the next
// call.
func (w *spanWalk) roundCheckpoints(b *spanBuilder) []checkpoint {
	c, cps := w.c, w.cps[:0]
	add := func(name string, t int64) {
		if t != 0 {
			cps = append(cps, checkpoint{name, t})
		}
	}
	// transit cuts one leg's flight up to its handle: link queue, wire and
	// inbox when the leg has an xmit, one compound flight stage otherwise.
	transit := func(l int32, n *transitStages, handled int64) {
		if x := c.Legs[l].Xmit; x >= 0 {
			add(n.queue, c.Events[x].Time+c.Events[x].Xmit.Queue)
			add(n.wire, c.Events[x].Xmit.Arrival)
			add(n.inbox, handled)
		} else {
			add(n.flight, handled)
		}
	}

	// Request leg: issue, link queue, wire, home inbox.
	if b.reqLeg >= 0 {
		if b.hasMiss {
			add("issue", c.legSent(b.reqLeg))
		}
		transit(b.reqLeg, &reqTransit, b.homeHandle)
	} else if b.hasMiss && b.homeHandle != 0 {
		// Direct path: no message, the handler ran in the requester's
		// own group; miss-to-dispatch is all issue work.
		add("issue", b.homeHandle)
	}
	if b.rehomed {
		// The request reached a tombstoned old home and was forwarded to
		// the block's live home; the interval covers the tombstone wait,
		// the forward hop and the re-dispatch. The "-queued" suffix folds
		// it into the requeue family, so the phases table keeps its fixed
		// columns.
		add("migrate-queued", b.homeRequeue)
	} else {
		add("home-queued", b.homeRequeue)
	}

	// Forward leg (three-hop requests only).
	if b.fwdLeg >= 0 {
		add("home-serve", c.legSent(b.fwdLeg))
		transit(b.fwdLeg, &fwdTransit, b.ownerHandle)
	} else if b.ownerHandle != 0 {
		// The forward's send was sampled out but its handle survived.
		add("fwd-flight", b.ownerHandle)
	}
	add("owner-queued", b.ownerRequeue)

	// Reply leg.
	serve := "home-serve"
	if b.ownerHandle != 0 {
		serve = "owner-serve"
	}
	if b.replyLeg >= 0 {
		add(serve, c.legSent(b.replyLeg))
		transit(b.replyLeg, &replyTransit, b.replyHandle)
	} else {
		add("reply-flight", b.replyHandle)
	}
	w.cps = cps
	return cps
}

// legSent is the virtual time leg l left its sender: its send event's, or
// its xmit's when the send was sampled out (the two coincide).
func (c *Causal) legSent(l int32) int64 {
	if s := c.Legs[l].Send; s >= 0 {
		return c.Events[s].Time
	}
	return c.Events[c.Legs[l].Xmit].Time
}

// roundUplink reports whether any of the round's legs crossed an uplink.
func (b *spanBuilder) roundUplink(c *Causal) bool {
	for _, l := range [...]int32{b.reqLeg, b.fwdLeg, b.replyLeg} {
		if l >= 0 && c.Legs[l].Xmit >= 0 && c.Events[c.Legs[l].Xmit].Xmit.Uplink {
			return true
		}
	}
	return false
}

// roundStart is the virtual time the current round's stages continue from:
// the end of the folded retry prefix, or the span's start.
func (b *spanBuilder) roundStart() int64 {
	if b.prefixEnd != 0 {
		return b.prefixEnd
	}
	return b.start
}

// cutStages appends the stages the checkpoint chain cuts out of
// [from, cap] to dst: each stage is the interval between consecutive known
// checkpoints, named after the activity that ends at its right edge.
// Unknown checkpoints were skipped by the caller, so coarser traces yield
// coarser (compound) stages whose durations still telescope exactly.
// Checkpoints are clamped to cap — an xmit arrival can legitimately exceed
// a later handle when a newer reply overtook a superseded one — and ok is
// false on a non-monotone chain (possible only on gapped traces that
// mis-paired evidence).
func cutStages(dst []SpanStage, cps []checkpoint, from, cap int64) ([]SpanStage, int64, bool) {
	last := from
	for _, cp := range cps {
		t := cp.t
		if t > cap {
			t = cap
		}
		if t < last {
			return dst, last, false
		}
		if t > last {
			dst = append(dst, SpanStage{cp.name, t - last})
			last = t
		}
	}
	return dst, last, true
}

// foldRetry closes the current round at a retry: the requester's reply was
// superseded by a concurrent invalidation and it re-issued the request at
// sendTime. The round's stages and a "retry" gap (supersession notice and
// re-issue) are folded into the prefix, and the round state resets for the
// new request. Reports false on a non-monotone round (gapped evidence);
// the caller drops the span.
func (w *spanWalk) foldRetry(b *spanBuilder, sendTime int64) bool {
	prefix, last, ok := cutStages(b.prefix, w.roundCheckpoints(b), b.roundStart(), sendTime)
	if !ok {
		return false
	}
	if last < sendTime {
		prefix = append(prefix, SpanStage{"retry", sendTime - last})
	}
	b.prefix, b.prefixEnd = prefix, sendTime
	b.retries++
	b.uplink = b.uplink || b.roundUplink(w.c)
	b.reqLeg, b.fwdLeg, b.replyLeg = -1, -1, -1
	b.homeHandle, b.homeRequeue = 0, 0
	b.ownerHandle, b.ownerRequeue = 0, 0
	b.replyHandle = 0
	b.rehomed = false
	return true
}

// finalize partitions [start, install] into stages: the folded retry-round
// prefix (if any) followed by the final round's checkpoint chain. The
// partition telescopes, so a complete span's stages sum exactly to its
// end-to-end latency.
func (w *spanWalk) finalize(b *spanBuilder, install *protocol.TraceEvent) (Span, string) {
	sp := Span{Requester: b.req, Home: b.home, Owner: b.owner, Block: b.blk,
		Kind: b.kind, Start: b.start, End: install.Time, Seq: b.seq,
		Retries: b.retries}

	cps := w.roundCheckpoints(b)
	stages := append(make([]SpanStage, 0, len(b.prefix)+len(cps)+1), b.prefix...)
	stages, last, ok := cutStages(stages, cps, b.roundStart(), install.Time)
	if !ok {
		return Span{}, "non-monotone"
	}
	if last < install.Time {
		// Remaining tail with no checkpoint evidence (e.g. no reply
		// visible at all): attribute to install.
		stages = append(stages, SpanStage{"install", install.Time - last})
	}
	sp.Stages = stages

	// Hops: prefer the install event's own classification.
	sp.Hops = 2
	if b.ownerHandle != 0 || b.fwdLeg >= 0 {
		sp.Hops = 3
	}
	if install.Typed && install.Grant != protocol.GrantUpgrade {
		sp.Hops = int(install.Hops)
	}
	sp.Uplink = b.uplink || b.roundUplink(w.c)
	return sp, ""
}

// stageOrder fixes the display order of the stage vocabulary.
var stageOrder = []string{
	"issue",
	"req-queue", "req-wire", "req-flight", "home-inbox",
	"home-queued", "migrate-queued", "home-serve",
	"fwd-queue", "fwd-wire", "fwd-flight", "owner-inbox",
	"owner-queued", "owner-serve",
	"reply-queue", "reply-wire", "reply-flight", "reply-inbox",
	"retry",
	"install",
}

// stageFamily groups the stage vocabulary for the phases time-series:
// queue (link-lane waits), wire (serialization + propagation, incl. uplink),
// flight (compound transit on xmit-less traces), inbox (arrival-to-dispatch
// waits), requeue (blocked-request re-dispatches), serve (directory and owner
// handler work), retry (superseded-reply re-issue rounds), and the
// issue/install endpoints.
func stageFamily(name string) string {
	switch {
	case strings.HasSuffix(name, "-queue"):
		return "queue"
	case strings.HasSuffix(name, "-wire"):
		return "wire"
	case strings.HasSuffix(name, "-flight"):
		return "flight"
	case strings.HasSuffix(name, "-inbox"):
		return "inbox"
	case strings.HasSuffix(name, "-queued"):
		return "requeue"
	case strings.HasSuffix(name, "-serve"):
		return "serve"
	}
	return name // issue, install
}

// phaseFamilies fixes the column order of the phases table.
var phaseFamilies = []string{"issue", "queue", "wire", "flight", "inbox", "requeue", "serve", "retry", "install"}

// Percentile is the exact nearest-rank q-th percentile (0 < q <= 1) of a
// sorted slice, 0 for an empty one.
func Percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLine renders one percentile row for a group of span totals.
func tailLine(b *strings.Builder, label string, totals []int64) {
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	var sum int64
	for _, t := range totals {
		sum += t
	}
	mean := int64(0)
	if len(totals) > 0 {
		mean = sum / int64(len(totals))
	}
	fmt.Fprintf(b, "  %-22s %8d %10d %10d %10d %10d %10d %10d\n",
		label, len(totals), mean, Percentile(totals, 0.50), Percentile(totals, 0.90),
		Percentile(totals, 0.99), Percentile(totals, 0.999), Percentile(totals, 1.0))
}

// groupTotals collects span totals keyed by a classifier.
func groupTotals(spans []Span, key func(*Span) string) map[string][]int64 {
	g := map[string][]int64{}
	for i := range spans {
		k := key(&spans[i])
		g[k] = append(g[k], spans[i].Total())
	}
	return g
}

// sortedGroupKeys returns a group map's keys ordered by descending total
// cycles (the hottest groups first), ties by key, truncated to topN (<=0
// means all).
func sortedGroupKeys(g map[string][]int64, topN int) []string {
	keys := make([]string, 0, len(g))
	sums := make(map[string]int64, len(g))
	for k, ts := range g {
		keys = append(keys, k)
		for _, t := range ts {
			sums[k] += t
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if sums[keys[i]] != sums[keys[j]] {
			return sums[keys[i]] > sums[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if topN > 0 && len(keys) > topN {
		keys = keys[:topN]
	}
	return keys
}

// route classifies a span's transit: "uplink" when any leg crossed a
// hierarchical uplink, "remote" otherwise.
func (s *Span) route() string {
	if s.Uplink {
		return "uplink"
	}
	return "remote"
}

// FormatSpans renders the span report: reconstruction accounting, overall
// and per-group tail percentiles, the per-stage cycle breakdown, tail
// composition (which stages dominate the slowest percentile) and the topK
// slowest requests as waterfalls. Deterministic for identical traces.
func FormatSpans(ss *SpanSet, topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spans: %d complete\n", len(ss.Spans))
	ss.Dropped.format(&b)
	if ss.UnissuedMisses > 0 {
		fmt.Fprintf(&b, "misses without visible request: %d\n", ss.UnissuedMisses)
	}
	for _, w := range ss.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	if len(ss.Spans) == 0 {
		return b.String()
	}

	header := func(title string) {
		fmt.Fprintf(&b, "%s\n  %-22s %8s %10s %10s %10s %10s %10s %10s\n",
			title, "", "count", "mean", "p50", "p90", "p99", "p99.9", "max")
	}
	all := make([]int64, len(ss.Spans))
	for i := range ss.Spans {
		all[i] = ss.Spans[i].Total()
	}
	header("latency (cycles)")
	tailLine(&b, "all", all)
	for _, grp := range []struct {
		title string
		topN  int
		key   func(*Span) string
	}{
		{"by kind", 0, func(s *Span) string { return s.Kind }},
		{"by hops", 0, func(s *Span) string { return fmt.Sprintf("%d-hop", s.Hops) }},
		{"by route", 0, func(s *Span) string { return s.route() }},
		{"by home (top 8)", 8, func(s *Span) string { return fmt.Sprintf("home p%d", s.Home) }},
		{"by block (top 8)", 8, func(s *Span) string { return fmt.Sprintf("blk%d", s.Block) }},
	} {
		g := groupTotals(ss.Spans, grp.key)
		header(grp.title)
		for _, k := range sortedGroupKeys(g, grp.topN) {
			tailLine(&b, k, g[k])
		}
	}

	// Per-stage breakdown over all complete spans.
	type agg struct {
		count int
		total int64
		durs  []int64
	}
	stages := map[string]*agg{}
	var grand int64
	for i := range ss.Spans {
		for _, st := range ss.Spans[i].Stages {
			a := stages[st.Name]
			if a == nil {
				a = &agg{}
				stages[st.Name] = a
			}
			a.count++
			a.total += st.Cycles
			a.durs = append(a.durs, st.Cycles)
			grand += st.Cycles
		}
	}
	fmt.Fprintf(&b, "stages\n  %-22s %8s %12s %7s %10s %10s\n",
		"", "count", "cycles", "share", "mean", "p99")
	for _, name := range stageOrder {
		a := stages[name]
		if a == nil {
			continue
		}
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		share := 0.0
		if grand > 0 {
			share = 100 * float64(a.total) / float64(grand)
		}
		fmt.Fprintf(&b, "  %-22s %8d %12d %6.1f%% %10d %10d\n",
			name, a.count, a.total, share, a.total/int64(a.count), Percentile(a.durs, 0.99))
	}

	// Tail composition: where do the slowest 1% spend their cycles?
	sorted := append([]int64(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p99 := Percentile(sorted, 0.99)
	tailStages := map[string]int64{}
	var tailGrand int64
	tailN := 0
	for i := range ss.Spans {
		if ss.Spans[i].Total() < p99 {
			continue
		}
		tailN++
		for _, st := range ss.Spans[i].Stages {
			tailStages[st.Name] += st.Cycles
			tailGrand += st.Cycles
		}
	}
	fmt.Fprintf(&b, "tail composition (%d spans >= p99 %d cycles)\n", tailN, p99)
	for _, name := range stageOrder {
		t := tailStages[name]
		if t == 0 {
			continue
		}
		share := 100 * float64(t) / float64(tailGrand)
		overall := 0.0
		if a := stages[name]; a != nil && grand > 0 {
			overall = 100 * float64(a.total) / float64(grand)
		}
		fmt.Fprintf(&b, "  %-22s %12d %6.1f%%  (overall %5.1f%%)\n", name, t, share, overall)
	}

	// Top-K slowest requests, full waterfalls.
	if topK > 0 {
		idx := make([]int, len(ss.Spans))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, c int) bool {
			sa, sc := &ss.Spans[idx[a]], &ss.Spans[idx[c]]
			if sa.Total() != sc.Total() {
				return sa.Total() > sc.Total()
			}
			return sa.Seq < sc.Seq
		})
		if len(idx) > topK {
			idx = idx[:topK]
		}
		fmt.Fprintf(&b, "slowest %d requests\n", len(idx))
		for _, i := range idx {
			s := &ss.Spans[i]
			owner := "-"
			if s.Owner >= 0 {
				owner = fmt.Sprintf("p%d", s.Owner)
			}
			fmt.Fprintf(&b, "  seq=%d %s blk%d p%d -> home p%d owner %s %d-hop %s: %d cycles @%d..%d\n",
				s.Seq, s.Kind, s.Block, s.Requester, s.Home, owner, s.Hops, s.route(),
				s.Total(), s.Start, s.End)
			for _, st := range s.Stages {
				bar := int(st.Cycles * 40 / s.Total())
				fmt.Fprintf(&b, "    %-22s %10d  %s\n", st.Name, st.Cycles, strings.Repeat("#", bar))
			}
		}
	}
	return b.String()
}

// FormatPhases renders a windowed time-series of stage-family cycle totals:
// complete spans are bucketed by completion time into `windows` equal
// virtual-time windows, exposing phase behaviour (e.g. a contended stage
// appearing mid-run) that the end-of-run aggregate hides. Deterministic for
// identical traces.
func FormatPhases(ss *SpanSet, windows int) string {
	var b strings.Builder
	if len(ss.Spans) == 0 {
		b.WriteString("no complete spans\n")
		for _, w := range ss.Warnings {
			fmt.Fprintf(&b, "warning: %s\n", w)
		}
		return b.String()
	}
	if windows < 1 {
		windows = 1
	}
	lo, hi := ss.Spans[0].End, ss.Spans[0].End
	for i := range ss.Spans {
		if ss.Spans[i].End < lo {
			lo = ss.Spans[i].End
		}
		if ss.Spans[i].End > hi {
			hi = ss.Spans[i].End
		}
	}
	width := (hi - lo + int64(windows)) / int64(windows) // ceil, so hi lands in the last window
	if width < 1 {
		width = 1
	}
	type win struct {
		count  int
		fams   map[string]int64
		totals []int64
	}
	wins := make([]win, windows)
	for i := range ss.Spans {
		s := &ss.Spans[i]
		w := int((s.End - lo) / width)
		if w >= windows {
			w = windows - 1
		}
		if wins[w].fams == nil {
			wins[w].fams = map[string]int64{}
		}
		wins[w].count++
		wins[w].totals = append(wins[w].totals, s.Total())
		for _, st := range s.Stages {
			wins[w].fams[stageFamily(st.Name)] += st.Cycles
		}
	}
	fmt.Fprintf(&b, "phases: %d windows of %d cycles, %d spans (bucketed by completion time)\n",
		windows, width, len(ss.Spans))
	fmt.Fprintf(&b, "%-24s %6s %10s", "window", "spans", "p99")
	for _, f := range phaseFamilies {
		fmt.Fprintf(&b, " %10s", f)
	}
	b.WriteString("\n")
	for w := range wins {
		t0 := lo + int64(w)*width
		t1 := t0 + width
		fmt.Fprintf(&b, "%-24s %6d", fmt.Sprintf("[%d,%d)", t0, t1), wins[w].count)
		if wins[w].count == 0 {
			fmt.Fprintf(&b, " %10s", "-")
			for range phaseFamilies {
				fmt.Fprintf(&b, " %10s", "-")
			}
			b.WriteString("\n")
			continue
		}
		sort.Slice(wins[w].totals, func(i, j int) bool { return wins[w].totals[i] < wins[w].totals[j] })
		fmt.Fprintf(&b, " %10d", Percentile(wins[w].totals, 0.99))
		for _, f := range phaseFamilies {
			fmt.Fprintf(&b, " %10d", wins[w].fams[f])
		}
		b.WriteString("\n")
	}
	for _, w := range ss.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}
