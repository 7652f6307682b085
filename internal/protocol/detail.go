package protocol

import (
	"strconv"
	"strings"

	"repro/internal/memchan"
	"repro/internal/memory"
	"repro/internal/stats"
)

// This file owns the trace-detail grammar: the typed fields an event carries
// and the one walk (TraceFields.walk) that both renders them as the legacy
// detail text and parses that text back. OBSERVABILITY.md §1 tabulates the
// fields and text forms per op.

// TraceFields is the typed detail of a TraceEvent. Which fields an event
// uses depends on its Op. The flags mark what not every event of an op
// carries (pre-extension traces lack some parts), so absence is
// distinguishable from zero.
type TraceFields struct {
	// Typed: the fields are valid — the simulator emitted the event, or
	// DecodeDetail recognised its text. Analysers treat an untyped event
	// as carrying no detail.
	Typed bool
	// HasID: a send/handle names its sync primitive in ID. HasMasks: a miss
	// carries Rd/Wr. Declared: those masks are a batch's declared ranges,
	// not accesses. HasBlock: a handle/miss carries Block. Installed: a
	// migrate event is the new home's installation (Peer is the old home),
	// not the old home's decision (Peer is the target). Deferred: an
	// invalidate's flag fill waits for a batch to end.
	HasID, HasMasks, Declared, HasBlock, Installed, Deferred bool
	// Sync is a sync event's operation, Grant what an install installed,
	// Kind a miss's request class, To a downgrade's or privup's target
	// state, Pre a downgrade's pre-state.
	Sync    SyncOp
	Grant   Grant
	Kind    stats.MissKind
	To, Pre memory.State
	// Peer is the other processor: a send/xmit/migfwd destination, or a
	// migrate's target or source. Req is the requester a handle, xmit or
	// migfwd names. ID is a lock id, or a barrier generation on barrier
	// events and messages; Prev a granted lock's previous holder (-1:
	// none). Hops is an install's (absent on upgrades) or lock grant's hop
	// count, Acks a send's or install's (absent on shared) expected
	// acknowledgements. N counts a batch's blocks, a downgrade's
	// recipients, or a block's earlier migrations.
	Peer, Req, ID, Prev, Hops, Acks, N int32
	// MsgSeq is the directory sequence number of a message or install.
	MsgSeq int64
	// Rd and Wr are the sub-block slot masks of a miss or touch.
	Rd, Wr uint64
	// Xmit is the interconnect's timing split and route of an xmit event's
	// transmission.
	Xmit memchan.SendInfo
	// Cost is the cost-model evidence of a migrate decision.
	Cost  struct{ Home, Best, Thresh int64 }
	Block BlockState
}

// BlockState is the emitter's view of a block at a handle or miss: its
// group's shared state and copy sequence number, its private state, and —
// when Pending — the group's incomplete miss-table entry for the block.
type BlockState struct {
	CopySeq                           int64
	AcksGot, AcksWant                 int32
	State, Priv                       memory.State
	Kind                              stats.MissKind
	Pending, DataArrived, ExclGranted bool
}

// SyncOp is a sync event's operation, in the order of syncNames.
type SyncOp uint8

const (
	SyncLockAcquired SyncOp = iota
	SyncLockAcquire
	SyncLockRelease
	SyncBarrierDepart
	SyncBarrier
)

// Barrier reports whether the operation is a barrier's, not a lock's.
func (s SyncOp) Barrier() bool { return s >= SyncBarrierDepart }

// Grant is what an install event installed, in the order of grantNames.
type Grant uint8

const (
	GrantShared Grant = iota
	GrantExclusive
	GrantUpgrade
)

func (g Grant) String() string { return grantNames[g] }

// The names each enumeration prints, by value; where one extends another the
// longer comes first (see name).
var (
	syncNames  = []string{"lock-acquired", "lock-acquire", "lock-release", "barrier-depart", "barrier"}
	grantNames = []string{"shared", "exclusive", "upgrade"}
	stateNames []string // memory.State.String, by value
	missNames  []string // stats.MissKind.String, by value
)

func init() {
	for s := memory.Invalid; s <= memory.PendingDowngrade; s++ {
		stateNames = append(stateNames, s.String())
	}
	for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
		missNames = append(missNames, k.String())
	}
}

// AppendDetail appends the event's detail text to b: the verbatim Detail of
// an event that came from text, else the rendering of the typed fields.
func (e *TraceEvent) AppendDetail(b []byte) []byte {
	if e.Detail != "" || !e.Typed {
		return append(b, e.Detail...)
	}
	c := detailCodec{out: b}
	e.walk(&c, e.Op)
	return c.out
}

// DecodeDetail parses e.Detail by e.Op's grammar into the typed fields and
// reports whether it was recognised. It accepts exactly the text AppendDetail
// can produce, so an accepted detail re-renders byte for byte; anything else
// leaves the event untyped. Detail itself is kept either way.
func (e *TraceEvent) DecodeDetail() bool {
	e.TraceFields = TraceFields{}
	c := detailCodec{in: e.Detail, parse: true}
	e.walk(&c, e.Op)
	if e.Typed = !c.bad && c.in == ""; !e.Typed {
		e.TraceFields = TraceFields{}
	}
	return e.Typed
}

// walk is the detail grammar, one case per op, written once for both
// directions: each step renders its part of the text or parses it.
func (f *TraceFields) walk(c *detailCodec, op string) {
	switch op {
	case "send":
		c.seq("to p", &f.Peer, " seq=", &f.MsgSeq, " acks=", &f.Acks)
		if c.opt(&f.HasID, " id=") {
			c.seq(&f.ID)
		}
	case "xmit":
		x := &f.Xmit
		c.seq("to p", &f.Peer, " R", &f.Req, " arrive=", &x.Arrival, " queue=", &x.Queue,
			" wire=", &x.Wire, " xfer=", &x.Transfer, " via=")
		if !c.opt(&x.Local, "local") && !c.opt(&x.Uplink, "uplink") {
			c.lit("remote")
		}
	case "handle":
		c.seq("from R", &f.Req, " seq=", &f.MsgSeq, ": ")
		if c.opt(&f.HasID, "id=") {
			c.seq(&f.ID)
		} else {
			f.walkBlock(c)
		}
	case "miss":
		c.seq(&f.Kind, " issued")
		c.opt(&f.Declared, " declared")
		if c.opt(&f.HasMasks, " r=") {
			c.seq(&f.Rd, " w=", &f.Wr)
		}
		c.seq(": ")
		f.walkBlock(c)
	case "touch":
		c.seq("r=", &f.Rd, " w=", &f.Wr)
	case "batch":
		c.seq(&f.N, " blocks")
	case "invalidate":
		c.seq("deferred=", &f.Deferred)
	case "install":
		c.seq(&f.Grant, " seq=", &f.MsgSeq)
		if f.Grant != GrantUpgrade {
			c.seq(" hops=", &f.Hops)
		}
		if f.Grant != GrantShared {
			c.seq(" acks=", &f.Acks)
		}
	case "downgrade":
		c.seq("to ", &f.To, ", ", &f.N, " recipients (pre ", &f.Pre, ")")
	case "privup":
		c.seq("to ", &f.To)
	case "migrate":
		if c.opt(&f.Installed, "installed from p") {
			c.seq(&f.Peer, " moved=", &f.N)
		} else {
			c.seq("to p", &f.Peer, " homeCost=", &f.Cost.Home, " bestCost=", &f.Cost.Best,
				" thresh=", &f.Cost.Thresh, " moved=", &f.N)
		}
	case "migfwd":
		c.seq("to p", &f.Peer, " R", &f.Req)
	case "sync":
		c.seq(&f.Sync)
		switch {
		case f.Sync.Barrier():
			c.seq(" gen=", &f.ID)
		case f.Sync == SyncLockAcquired:
			c.seq(" id=", &f.ID, " prev=", &f.Prev, " hops=", &f.Hops)
		default:
			c.seq(" id=", &f.ID)
		}
	default:
		c.fail()
	}
}

// walkBlock is the block-state tail of handle and miss details; a handle of
// a message that names no block has none.
func (f *TraceFields) walkBlock(c *detailCodec) {
	b := &f.Block
	if !c.opt(&f.HasBlock, "state=") {
		return
	}
	c.seq(&b.State, " priv=", &b.Priv, " seq=", &b.CopySeq, " entry=")
	if idle := !b.Pending; !c.opt(&idle, "-") {
		b.Pending = true
		c.seq(&b.Kind, "(da=", &b.DataArrived, ",eg=", &b.ExclGranted, ",acks=", &b.AcksGot, "/", &b.AcksWant, ")")
	}
}

// detailCodec is the direction of one grammar walk: rendering appends to
// out; parsing consumes in, and sets bad once the text leaves the grammar
// (every later step then fails too, on the emptied input).
type detailCodec struct {
	out        []byte
	in         string
	parse, bad bool
}

func (c *detailCodec) fail() { c.bad, c.in = true, "" }

// lit walks fixed text.
func (c *detailCodec) lit(s string) {
	if !c.parse {
		c.out = append(c.out, s...)
	} else if strings.HasPrefix(c.in, s) {
		c.in = c.in[len(s):]
	} else {
		c.fail()
	}
}

// seq walks its parts in order: fixed text (string), decimal integers
// (*int32, *int64), lower-case hexadecimal masks (*uint64), flags printed
// true or false (*bool), and the named values of the four enumerations.
func (c *detailCodec) seq(parts ...any) {
	for _, p := range parts {
		switch p := p.(type) {
		case string:
			c.lit(p)
		case *int32:
			*p = int32(c.num(int64(*p), 10, 32))
		case *int64:
			*p = c.num(*p, 10, 64)
		case *uint64:
			*p = uint64(c.num(int64(*p), 16, 64))
		case *bool:
			if !c.opt(p, "true") {
				c.lit("false")
			}
		case *memory.State:
			name(c, p, stateNames)
		case *stats.MissKind:
			name(c, p, missNames)
		case *SyncOp:
			name(c, p, syncNames)
		case *Grant:
			name(c, p, grantNames)
		}
	}
}

// opt walks an optional part that begins with the fixed text s. Rendering,
// the part is present when *has; parsing, when the text continues with s,
// and *has records which.
func (c *detailCodec) opt(has *bool, s string) bool {
	if c.parse {
		*has = strings.HasPrefix(c.in, s)
	}
	if *has {
		c.lit(s)
	}
	return *has
}

// num walks a numeral — signed decimal, or an unsigned hexadecimal bit
// pattern — of at most the given width. Parsing accepts only the canonical
// form rendering would print, which is what keeps accepted text round-trip
// exact.
func (c *detailCodec) num(v int64, base, bits int) int64 {
	if !c.parse {
		c.out = appendNum(c.out, v, base)
		return v
	}
	n := 0 // the token runs over '-' and the base's digits
	for ; n < len(c.in); n++ {
		if d := c.in[n]; d != '-' && (d < '0' || d > '9') && (base != 16 || d < 'a' || d > 'f') {
			break
		}
	}
	tok := c.in[:n]
	c.in = c.in[n:]
	var err error
	if base == 16 {
		var u uint64
		u, err = strconv.ParseUint(tok, 16, bits)
		v = int64(u)
	} else {
		v, err = strconv.ParseInt(tok, 10, bits)
	}
	var buf [20]byte
	if err != nil || string(appendNum(buf[:0], v, base)) != tok {
		c.fail()
	}
	return v
}

func appendNum(b []byte, v int64, base int) []byte {
	if base == 16 {
		return strconv.AppendUint(b, uint64(v), 16)
	}
	return strconv.AppendInt(b, v, 10)
}

// name walks one of a fixed set of names, the value being its index.
// Parsing takes the first name the text continues with, so a name that
// extends another must precede it.
func name[T ~uint8](c *detailCodec, v *T, names []string) {
	if !c.parse {
		c.lit(names[*v])
		return
	}
	for i, n := range names {
		if strings.HasPrefix(c.in, n) {
			*v, c.in = T(i), c.in[len(n):]
			return
		}
	}
	c.fail()
}
