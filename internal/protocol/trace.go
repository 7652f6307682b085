package protocol

import (
	"fmt"
	"io"
)

// TraceSchemaVersion is the version of the trace-event schema: the set of
// TraceEvent fields, the Op vocabulary below, the message-kind names used in
// Msg, and the per-op detail grammar of detail.go. It is carried in the
// header of serialized traces (see internal/obsv) and must be bumped
// whenever a field is renamed or removed, an Op is renamed, or an existing
// field or detail form changes meaning. Adding a new Op, message kind or
// optional detail part is a compatible extension and does not require a
// bump. The contract is documented field by field in OBSERVABILITY.md.
const TraceSchemaVersion = 1

// TraceOps lists the event kinds a Tracer can receive, in no particular
// order. The vocabulary is part of the versioned trace schema:
//
//	send        a protocol message leaves a processor
//	handle      a protocol message is dispatched at its destination
//	miss        a shared miss registers a new miss-table entry
//	downgrade   a block downgrade starts within a sharing group
//	install     reply data (or an upgrade grant) is installed at the requester
//	invalidate  a block's local copy is flag-filled and marked invalid
//	sync        an application synchronization point (lock, barrier)
//	batch       the batch miss handler begins fetching a batch's blocks
//	privup      a processor's private state table entry is raised to a
//	            valid state (SMP-Shasta only; compatible v1 extension)
//	touch       the exact sub-block slots a batched body accessed in one
//	            fetched block, emitted at batch end (compatible v1
//	            extension; the race detector's batch access evidence)
//	xmit        the interconnect's timing decomposition for one
//	            miss-protocol message (request, forward or reply),
//	            emitted immediately after its send event: destination,
//	            requester, absolute arrival cycle, and the link-queue /
//	            wire / serialization split (compatible v1 extension; the
//	            span layer's transit evidence, see OBSERVABILITY.md §10)
//	migrate     an online home-migration event: at the old home, the
//	            decision to re-home a block (with the cost-model evidence
//	            that triggered it); at the new home, the installation of
//	            the transferred directory entry (compatible v1 extension,
//	            see OBSERVABILITY.md §11)
//	migfwd      a home-bound message relayed along a migration tombstone
//	            at a previous home toward the block's live home
//	            (compatible v1 extension)
var TraceOps = []string{
	"send", "handle", "miss", "downgrade", "install", "invalidate",
	"sync", "batch", "privup", "touch", "xmit", "migrate", "migfwd",
}

// TraceEvent is one protocol-level event, emitted to a Tracer attached to
// the System. Tracing is intended for debugging coherence behaviour, for
// the observability pipeline (see internal/obsv and cmd/shastatrace), and
// for teaching: a filtered trace of a single block reads like the protocol
// walkthroughs in the paper (request, forward, downgrade messages, reply).
type TraceEvent struct {
	// Seq is a global, strictly increasing sequence number assigned at
	// emission. The simulator is cooperatively scheduled, so Seq gives a
	// deterministic total order over all events of a run, including
	// same-cycle events on different processors.
	Seq uint64
	// Time is the emitting processor's virtual clock in cycles.
	Time int64
	// Proc is the emitting processor.
	Proc int
	// Op names the event; see TraceOps.
	Op string
	// Msg is the protocol message kind for send/handle events, empty
	// otherwise.
	Msg string
	// BaseLine identifies the block, -1 for non-block events.
	BaseLine int
	// Detail is the verbatim detail text of an event that came from text
	// (a trace file, or a hand-built event); it is empty on events the
	// simulator emits, whose detail lives in the typed fields below. Text
	// is produced only where an event leaves the process (AppendDetail)
	// and parsed only where one enters it (DecodeDetail); see detail.go
	// for the grammar both directions share.
	Detail string
	TraceFields
}

// String renders the event as one line.
func (e TraceEvent) String() string {
	msg := e.Msg
	if msg == "" {
		msg = "-"
	}
	return fmt.Sprintf("@%-10d p%-2d %-10s %-18s blk%-5d %s",
		e.Time, e.Proc, e.Op, msg, e.BaseLine, e.AppendDetail(nil))
}

// Tracer receives protocol events. Implementations must be fast; they run
// inline with the simulation.
type Tracer interface {
	Event(TraceEvent)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(TraceEvent)

// Event implements Tracer.
func (f TracerFunc) Event(e TraceEvent) { f(e) }

// WriterTracer streams formatted events to w, optionally filtered to a set
// of block base lines.
type WriterTracer struct {
	W io.Writer
	// Blocks filters events to these base lines; empty means all.
	Blocks map[int]bool
}

// Event implements Tracer.
func (t *WriterTracer) Event(e TraceEvent) {
	if len(t.Blocks) > 0 && !t.Blocks[e.BaseLine] {
		return
	}
	fmt.Fprintln(t.W, e.String())
}

// CollectorTracer appends events to memory for programmatic inspection.
type CollectorTracer struct {
	Events []TraceEvent
	// Limit caps collection; 0 means unlimited.
	Limit int
}

// Event implements Tracer.
func (t *CollectorTracer) Event(e TraceEvent) {
	if t.Limit > 0 && len(t.Events) >= t.Limit {
		return
	}
	t.Events = append(t.Events, e)
}

// SetTracer attaches a tracer to the system (nil detaches). Call before
// Run. The engine's emit sink is installed only while a tracer is attached,
// so an untraced run's scheduler has no emissions to look for.
func (s *System) SetTracer(tr Tracer) {
	s.tracer = tr
	if tr == nil {
		s.eng.SetEmitFunc(nil)
		return
	}
	s.eng.SetEmitFunc(s.emitTrace)
}

// trace emits an event if a tracer is attached. The event is queued on the
// processor's own FIFO (Proc.events) and the simulator is handed only the
// processor as the emission's payload: the engine decides when each emission
// is delivered — on the scheduler's control thread once the virtual-time
// floor passes it, in deterministic (Time, Proc, program order) order — and
// emitTrace then takes the event from the front of the FIFO, assigning its
// Seq. The tracer therefore observes an identical event sequence with one
// engine worker or many, and a traced event is never boxed. Sites
// on the hot path, or whose fields cost something to gather (blockState),
// test p.sys.tracer themselves first.
func (p *Proc) trace(op, msg string, base int, f TraceFields) {
	if p.sys.tracer == nil {
		return
	}
	f.Typed = true
	p.events = append(p.events, TraceEvent{Time: p.sp.Now(), Proc: p.id, Op: op, Msg: msg, BaseLine: base, TraceFields: f})
	p.sp.Emit(p)
}

// emitTrace is the engine's emit sink: the payload names the processor whose
// oldest queued event is due. It assigns the global sequence number at merge
// time and forwards the event to the attached tracer, and rewinds the FIFO
// once it drains so its storage is reused. It runs single-threaded on the
// scheduler's control thread, never while the processor itself runs.
func (s *System) emitTrace(_ int64, _ int, payload any) {
	p := payload.(*Proc)
	ev := &p.events[p.evHead]
	p.evHead++
	s.traceSeq++
	ev.Seq = s.traceSeq
	s.tracer.Event(*ev)
	if p.evHead == len(p.events) {
		p.events, p.evHead = p.events[:0], 0
	}
}

// blockState captures the block's local protocol state for a handle or miss
// event. Call it only with a tracer attached.
func (p *Proc) blockState(base int) BlockState {
	b := BlockState{State: p.grp.img.State(base), CopySeq: p.grp.copySeq[base]}
	if p.priv != nil {
		b.Priv = p.priv.Get(base)
	}
	if e := p.grp.miss[base]; e != nil && !e.complete {
		b.Pending, b.Kind = true, e.kind
		b.DataArrived, b.ExclGranted = e.dataArrived, e.exclGranted
		b.AcksGot, b.AcksWant = int32(e.acksReceived), int32(e.acksExpected)
	}
	return b
}
