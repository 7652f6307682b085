package obsv

import (
	"fmt"
	"strings"

	"repro/internal/memory"
	"repro/internal/protocol"
)

// The replay invariant checker validates a trace against protocol
// invariants using nothing but the artifact itself, so a protocol change
// that breaks coherence is caught from a committed trace file alone. The
// enforced rules:
//
//	seq-monotone      Seq is strictly increasing in trace order.
//	time-monotone     each processor's t never decreases.
//	handle-has-send   a handle of a forwarded/reply/invalidation/downgrade
//	                  message requires a prior send of the same kind for
//	                  the same block (request and sync kinds are exempt:
//	                  directory shortcuts and internal requeues deliver
//	                  them without a traced send).
//	install-has-reply an install requires an unconsumed prior handle of
//	                  its granting reply (DataReply for shared,
//	                  DataExclReply for exclusive, UpgradeAck for upgrade).
//	single-exclusive  a new exclusive or upgrade install for a block
//	                  requires an intervening downgrade or invalidate on
//	                  that block since the previous exclusive install.
//	downgrade-target  a downgrade message must target a processor not
//	                  known to have lost its private mapping of the block.
//
// The rules are deliberately one-sided (sound): they tolerate what the
// trace cannot prove wrong — allocation-time ownership precedes tracing, a
// queued message can be re-dispatched, a filtered trace hides events — so a
// violation always indicates a real anomaly in a full trace. On a gapped
// (filtered or sampled) trace the state-dependent rules degrade to
// warnings; only seq/time monotonicity remain hard violations.

// Violation is one invariant breach found during replay.
type Violation struct {
	Rule   string
	Seq    uint64
	Time   int64
	Proc   int
	Block  int
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: seq=%d t=%d p%d blk%d: %s",
		v.Rule, v.Seq, v.Time, v.Proc, v.Block, v.Detail)
}

// privTrack is the checker's knowledge of one processor's private mapping
// of one block.
type privTrack int

const (
	privUnknown privTrack = iota // never observed; tolerated as a holder
	privValid                    // raised by privup/install
	privLost                     // lowered by a downgrade/invalidate
)

// Checker replays a trace against the protocol invariants. It implements
// protocol.Tracer, so it can be attached directly to a live run (zero
// virtual-clock cost: it only reads events) or fed a parsed trace via
// CheckTrace.
type Checker struct {
	violations []Violation
	warnings   []string

	events  int // events replayed
	lastSeq uint64
	gapped  bool

	procTime map[int]int64
	// sends counts send events per block and message kind; never
	// decremented, because queued messages may legitimately be dispatched
	// more than once.
	sends map[int]map[string]int64
	// replies counts unconsumed granting-reply handles per (proc, blk,
	// reply kind); installs consume them.
	replies map[replyKey]int
	// hasExcl and separated implement the single-exclusive rule.
	hasExcl   map[int]bool
	separated map[int]bool
	priv      map[[2]int]privTrack
}

type replyKey struct {
	proc, blk int
	msg       string
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{
		procTime:  map[int]int64{},
		sends:     map[int]map[string]int64{},
		replies:   map[replyKey]int{},
		hasExcl:   map[int]bool{},
		separated: map[int]bool{},
		priv:      map[[2]int]privTrack{},
	}
}

// CheckTrace replays parsed events through a fresh checker.
func CheckTrace(events []protocol.TraceEvent) *Checker {
	c := NewChecker()
	for _, e := range events {
		c.Event(e)
	}
	return c
}

// sendRequired lists the message kinds whose handle must be preceded by a
// traced send: forwards, replies, invalidations and downgrades always travel
// as real messages. Requests are exempt (the ShareDirectory shortcut and
// queued-request replays deliver them without a send event), as is sync
// traffic (FastSync group barriers short-circuit arrivals).
var sendRequired = map[string]bool{
	"ReadFwd": true, "ReadExclFwd": true,
	"DataReply": true, "DataExclReply": true, "UpgradeAck": true,
	"Inval": true, "InvalAck": true, "SharingUpdate": true,
	"DowngradeToShared": true, "DowngradeToInvalid": true,
}

// grantReply maps an install's grant to the reply message that must have
// been handled.
var grantReply = [...]string{
	protocol.GrantShared:    "DataReply",
	protocol.GrantExclusive: "DataExclReply",
	protocol.GrantUpgrade:   "UpgradeAck",
}

// fail records a rule breach: a violation on a complete trace, a warning on
// a gapped one (missing events, not protocol bugs, are then the likely
// cause). Monotonicity rules bypass this and always record violations.
func (c *Checker) fail(rule string, e protocol.TraceEvent, format string, args ...any) {
	v := Violation{Rule: rule, Seq: e.Seq, Time: e.Time, Proc: e.Proc,
		Block: e.BaseLine, Detail: fmt.Sprintf(format, args...)}
	if c.gapped {
		c.warnings = append(c.warnings, v.String())
		return
	}
	c.violations = append(c.violations, v)
}

// Event implements protocol.Tracer.
func (c *Checker) Event(e protocol.TraceEvent) {
	if c.events > 0 {
		if e.Seq <= c.lastSeq {
			c.violations = append(c.violations, Violation{
				Rule: "seq-monotone", Seq: e.Seq, Time: e.Time, Proc: e.Proc,
				Block:  e.BaseLine,
				Detail: fmt.Sprintf("seq %d not above previous %d", e.Seq, c.lastSeq),
			})
		} else if e.Seq != c.lastSeq+1 && !c.gapped {
			c.gapped = true
			c.warnings = append(c.warnings, fmt.Sprintf(
				"seq gap at %d..%d: filtered/sampled trace; state rules downgraded to warnings",
				c.lastSeq, e.Seq))
		}
	}
	c.events++
	c.lastSeq = e.Seq
	if t, ok := c.procTime[e.Proc]; ok && e.Time < t {
		c.violations = append(c.violations, Violation{
			Rule: "time-monotone", Seq: e.Seq, Time: e.Time, Proc: e.Proc,
			Block:  e.BaseLine,
			Detail: fmt.Sprintf("t %d below processor's previous %d", e.Time, t),
		})
	}
	c.procTime[e.Proc] = e.Time

	pb := [2]int{e.Proc, e.BaseLine}
	switch e.Op {
	case "send":
		m := c.sends[e.BaseLine]
		if m == nil {
			m = map[string]int64{}
			c.sends[e.BaseLine] = m
		}
		m[e.Msg]++
		if e.Msg == "DowngradeToShared" || e.Msg == "DowngradeToInvalid" {
			if e.Typed && c.priv[[2]int{int(e.Peer), e.BaseLine}] == privLost {
				c.fail("downgrade-target", e,
					"%s targets p%d, which no longer holds blk%d", e.Msg, e.Peer, e.BaseLine)
			}
		}
	case "handle":
		if sendRequired[e.Msg] {
			if c.sends[e.BaseLine][e.Msg] == 0 {
				c.fail("handle-has-send", e, "no prior send of %s for blk%d", e.Msg, e.BaseLine)
			}
		}
		switch e.Msg {
		case "DataReply", "DataExclReply", "UpgradeAck":
			c.replies[replyKey{e.Proc, e.BaseLine, e.Msg}]++
		case "DowngradeToInvalid":
			c.priv[pb] = privLost
		case "DowngradeToShared":
			// Shared still holds the block; the mapping stays valid.
		}
	case "install":
		if e.Typed {
			grant, reply := e.Grant, grantReply[e.Grant]
			k := replyKey{e.Proc, e.BaseLine, reply}
			if c.replies[k] == 0 {
				c.fail("install-has-reply", e,
					"%s install without an unconsumed %s handle", grant, reply)
			} else {
				c.replies[k]--
			}
			if grant != protocol.GrantShared {
				if c.hasExcl[e.BaseLine] && !c.separated[e.BaseLine] {
					c.fail("single-exclusive", e,
						"%s install with no downgrade/invalidate since the previous exclusive grant", grant)
				}
				c.hasExcl[e.BaseLine] = true
				c.separated[e.BaseLine] = false
			}
		}
		c.priv[pb] = privValid
	case "privup":
		c.priv[pb] = privValid
	case "invalidate":
		c.separated[e.BaseLine] = true
		c.priv[pb] = privLost
	case "downgrade":
		c.separated[e.BaseLine] = true
		// The initiator lowers its own private mapping immediately; only
		// an invalidating downgrade loses it.
		if e.Typed && e.To == memory.Invalid {
			c.priv[pb] = privLost
		}
	}
}

// Violations returns the invariant breaches found so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Warnings returns non-fatal anomalies (gap notices, downgraded rules).
func (c *Checker) Warnings() []string { return c.warnings }

// Gapped reports whether the trace had seq gaps.
func (c *Checker) Gapped() bool { return c.gapped }

// Report renders the checker's findings deterministically. The first line
// is "ok" or "FAIL: n violations".
func (c *Checker) Report() string {
	var b strings.Builder
	if len(c.violations) == 0 {
		fmt.Fprintf(&b, "ok: %d events replayed, no invariant violations\n", c.events)
	} else {
		fmt.Fprintf(&b, "FAIL: %d invariant violations\n", len(c.violations))
		for _, v := range c.violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	for _, w := range c.warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}
