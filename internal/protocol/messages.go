package protocol

import (
	"fmt"

	"repro/internal/memory"
)

// msgKind enumerates the protocol message types.
type msgKind int

const (
	// Requests to the home processor.
	mReadReq msgKind = iota
	mReadExclReq
	mUpgradeReq

	// Forwards from the home to the owner.
	mReadFwd
	mReadExclFwd

	// Replies to the requester.
	mDataReply     // shared data
	mDataExclReply // exclusive data (+ number of invalidation acks to expect)
	mUpgradeAck    // upgrade granted (+ number of invalidation acks to expect)

	// Invalidations: home -> sharer, acknowledged to the requester.
	mInval
	mInvalAck

	// Owner -> home notification after an exclusive-to-shared downgrade,
	// so the home knows the block is no longer dirty remotely.
	mSharingUpdate

	// Intra-group downgrade messages (SMP-Shasta only).
	mDowngradeToShared
	mDowngradeToInvalid

	// Intra-group wakeup for processors stalled on a pending block.
	mWake

	// Synchronization traffic.
	mLockReq
	mLockGrant
	mLockRel
	mBarArrive
	mBarGo

	// Online home migration handshake: the deciding home hands the
	// directory entry to the new home (mMigrate) and queues requests until
	// the new home confirms installation (mMigrateAck).
	mMigrate
	mMigrateAck

	// mRecycled marks a message on a free list; handle rejects it.
	mRecycled
)

var msgKindNames = map[msgKind]string{
	mReadReq: "ReadReq", mReadExclReq: "ReadExclReq", mUpgradeReq: "UpgradeReq",
	mReadFwd: "ReadFwd", mReadExclFwd: "ReadExclFwd",
	mDataReply: "DataReply", mDataExclReply: "DataExclReply", mUpgradeAck: "UpgradeAck",
	mInval: "Inval", mInvalAck: "InvalAck", mSharingUpdate: "SharingUpdate",
	mDowngradeToShared: "DowngradeToShared", mDowngradeToInvalid: "DowngradeToInvalid",
	mWake:    "Wake",
	mLockReq: "LockReq", mLockGrant: "LockGrant", mLockRel: "LockRel",
	mBarArrive: "BarArrive", mBarGo: "BarGo",
	mMigrate: "Migrate", mMigrateAck: "MigrateAck",
}

func (k msgKind) String() string {
	if s, ok := msgKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("msgKind(%d)", int(k))
}

// spanLeg reports whether the message kind is one leg of a miss-request
// lifecycle (request, forward or reply): the kinds whose sends carry an
// xmit trace event with the interconnect's timing decomposition, so the
// span layer can rebuild each request's stage waterfall.
func (k msgKind) spanLeg() bool {
	switch k {
	case mReadReq, mReadExclReq, mUpgradeReq, mReadFwd, mReadExclFwd,
		mDataReply, mDataExclReply, mUpgradeAck:
		return true
	}
	return false
}

// spanReply reports whether the kind is a reply leg, whose span requester
// is its destination (reply messages do not carry a requester field).
func (k msgKind) spanReply() bool {
	return k == mDataReply || k == mDataExclReply || k == mUpgradeAck
}

// syncMsg reports whether the kind is application synchronization traffic,
// whose send and handle trace details carry the primitive id.
func (k msgKind) syncMsg() bool {
	switch k {
	case mLockReq, mLockGrant, mLockRel, mBarArrive, mBarGo:
		return true
	}
	return false
}

// pmsg is the payload of every protocol message.
type pmsg struct {
	kind msgKind
	// baseLine identifies the block (its first line index).
	baseLine int
	// requester is the processor on whose behalf the message travels
	// (for forwards, invalidations and acks).
	requester int
	// data carries block contents for data replies.
	data []byte
	// acks is the number of invalidation acknowledgements the requester
	// should expect (data/upgrade replies).
	acks int
	// hops is 2 when the reply comes from the home, 3 when it comes from
	// a third processor, for the Figure 6 classification.
	hops int
	// id is a lock or barrier identifier for synchronization messages:
	// the lock id for lock traffic, the barrier generation for arrivals
	// and releases.
	id int
	// prev, on lock grants, names the lock's previous holder (-1 for the
	// first-ever grant); with hops (2 = granted immediately by the
	// manager, 3 = handed off from a release) it lets the requester
	// classify the hand-off for the per-primitive sync statistics.
	prev int
	// issueTime is copied from the original request so latency can be
	// measured at reply processing.
	issueTime int64
	// seq is the block's directory sequence number: the home increments
	// it for every exclusivity grant, tags invalidations and replies
	// with it, and groups tag their copies with the sequence that
	// produced them. An invalidation whose sequence does not exceed the
	// copy's is stale — it belongs to a write transaction serialized
	// before the copy was granted — and is acknowledged without effect.
	// (Replies and invalidations travel on independent channels, so a
	// stale invalidation can physically arrive after a newer copy.)
	seq int64
	// homeHint, on replies and invalidations under online migration,
	// names the block's live home plus one (0 means no hint); requesters
	// update their group's home view from it so later misses skip the
	// tombstone forward.
	homeHint int
	// mig carries the directory transfer of a migration handshake.
	mig *migPayload
	// counted marks a request already fed into the home's migration miss
	// model, so queue-and-replay paths do not count it twice.
	counted bool
}

// migPayload is the directory state an mMigrate message hands to the new
// home: the entry itself plus the block's migration count (hysteresis).
type migPayload struct {
	owner   int
	sharers procSet
	seq     int64
	dirty   bool
	moved   int
}

// sizeBytes returns the payload size used for transfer-time modelling:
// control messages are small; data messages carry the block.
func (m *pmsg) sizeBytes() int { return len(m.data) }

// A message belongs to the processor that receives it until handle returns:
// the receive loops (poll, stallUntil) then put it on that processor's free
// list, and the processor's next send takes it from there, block buffer
// included. Whatever outlives a handler keeps a copy, never the pointer:
// queues hold pmsg values (queued) and deferred downgrade actions capture
// the fields they read. A free list is touched only by its processor's own
// code, so the parallel engine needs no lock: a message that crosses
// domains is handed over at a window boundary.
//
// msgFreeCap bounds each free list. A processor that receives more than it
// sends (a lock or directory home) would otherwise keep a list that grows
// with run length. Uncapped, the paper's applications peak at 73 (Ocean)
// to 1,148 (Water-Nsq) messages on one processor at 16 processors and
// clustering 4, and at 6,825 (LU-Contig) with clustering 1; the messages a
// larger cap would keep save LU at 16 processors 2.3% of its bytes
// (PERFORMANCE.md §13).
const msgFreeCap = 256

// msg returns a message holding v, taken from the processor's free list
// when it has one. v.data is copied into the message's own buffer, so a
// data reply may pass the block image's bytes directly.
func (p *Proc) msg(v pmsg) *pmsg {
	var m *pmsg
	if n := len(p.free); n > 0 {
		m, p.free = p.free[n-1], p.free[:n-1]
	} else {
		m = new(pmsg)
	}
	buf := m.data[:0]
	*m = v
	m.data = append(buf, v.data...)
	return m
}

// release puts a handled message on the processor's free list, poisoned so
// that handling it again panics. The shared wake-up message is never
// released.
func (p *Proc) release(m *pmsg) {
	if m == wakeMsg {
		return
	}
	*m = pmsg{kind: mRecycled, data: m.data[:0]}
	if len(p.free) < msgFreeCap {
		p.free = append(p.free, m)
	}
}

// queue appends a copy of m to a wait queue. Queued messages are requests,
// forwards and invalidations, which carry no data; the copy drops the
// (empty) buffer so it shares nothing with the recycled original.
func queue(q []pmsg, m *pmsg) []pmsg {
	if len(m.data) > 0 {
		panic(fmt.Sprintf("protocol: queued a %v carrying data", m.kind))
	}
	c := *m
	c.data = nil
	return append(q, c)
}

// storeRec is one pending store recorded in a miss entry, replayed over the
// reply data when it arrives (the protocol's non-blocking store merge).
type storeRec struct {
	addr memory.Addr
	size int // 4 or 8 bytes
	val  uint64
	proc int // issuing processor (for release tracking)
}
