package main

import (
	"fmt"
	"math/rand"

	shasta "repro"
)

// The synth16-mix program: a seeded mix of scalar shared accesses over the
// public shasta.Proc API. It is written for synthThreads logical threads; a
// processor runs the threads congruent to its ID, so the one-processor
// hardware reference executes exactly the same operations. Every update is
// either private to a thread, double-buffered across a barrier, or a
// commutative integer add under a lock, so the checksum does not depend on
// the schedule and equals the sequential reference bit for bit.
const (
	synthThreads = 16
	privWords    = 512  // one page of private float64s per thread
	tableWords   = 8192 // read-mostly table: 16 pages, homed round-robin
	tableWrites  = 32   // table entries rewritten between two phases
	numRecords   = 64   // migratory records, one 64-byte block and one lock each
	slotWords    = 512  // one page of producer->consumer slots per thread and buffer
)

type opKind uint8

const (
	opPrivLoad  opKind = iota // 35%: load of the thread's private page (hit)
	opPrivStore               // 35%: store to it (hit)
	opTable                   // 15%: read of the shared table
	opRecord                  // 10%: lock, increment a migratory record, unlock
	opSlot                    // 5%: read a slot another thread wrote last phase, write one of ours
)

// synthOp is one drawn operation. idx is the element within the kind's
// region; peer is the producer thread of an opSlot read.
type synthOp struct {
	kind opKind
	peer uint8
	idx  uint16
}

// synthProgram is the generated input: the operations of every thread in
// every phase, and the table entries rewritten after each phase.
type synthProgram struct {
	ops     [][synthThreads][]synthOp
	updates [][tableWrites]uint16
}

// generateSynth draws a program from seed: the same seed gives the same
// program, another seed another order of operations and another address
// stream. Every thread gets exactly the same mix in every phase — only the
// order and the addresses are drawn — so the threads stay balanced at the
// barriers and the cost of a program barely depends on the seed.
func generateSynth(seed uint64, phases, opsPerPhase int) *synthProgram {
	rng := rand.New(rand.NewSource(int64(seed)))
	prog := &synthProgram{
		ops:     make([][synthThreads][]synthOp, phases),
		updates: make([][tableWrites]uint16, phases),
	}
	kinds := make([]opKind, opsPerPhase)
	for i := range kinds {
		switch pct := i * 100 / opsPerPhase; {
		case pct < 35:
			kinds[i] = opPrivLoad
		case pct < 70:
			kinds[i] = opPrivStore
		case pct < 85:
			kinds[i] = opTable
		case pct < 95:
			kinds[i] = opRecord
		default:
			kinds[i] = opSlot
		}
	}
	for ph := range prog.ops {
		for t := 0; t < synthThreads; t++ {
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			ops := make([]synthOp, opsPerPhase)
			for i, kind := range kinds {
				ops[i].kind = kind
				switch kind {
				case opPrivLoad, opPrivStore:
					ops[i].idx = uint16(rng.Intn(privWords))
				case opTable:
					ops[i].idx = uint16(rng.Intn(tableWords))
				case opRecord:
					ops[i].idx = uint16(rng.Intn(numRecords))
				case opSlot:
					ops[i].peer = uint8((t + 1 + rng.Intn(synthThreads-1)) % synthThreads)
					ops[i].idx = uint16(rng.Intn(slotWords))
				}
			}
			prog.ops[ph][t] = ops
		}
		for i := range prog.updates[ph] {
			prog.updates[ph][i] = uint16(rng.Intn(tableWords))
		}
	}
	return prog
}

// synthWorkload runs a synthProgram; it implements apps.Workload, so a rep
// goes through the same steps as a SPLASH-2 kernel.
type synthWorkload struct {
	prog    *synthProgram
	priv    shasta.Addr
	table   shasta.Addr
	records shasta.Addr
	slots   shasta.Addr // [2 buffers][synthThreads][slotWords]
	lock0   int
	partial [synthThreads]float64
	sum     float64
}

func (w *synthWorkload) Name() string { return "synth-mix" }

func (w *synthWorkload) ProblemSize() string {
	return fmt.Sprintf("%d phases x %d threads x %d ops", len(w.prog.ops), synthThreads, len(w.prog.ops[0][0]))
}

func (w *synthWorkload) Setup(c *shasta.Cluster, _ bool) {
	// A thread's private page is homed at the processor that runs it, so
	// after the first touch its accesses are pure inline-check hits.
	w.priv = c.AllocHomed(synthThreads*privWords*8, 64, func(off int64) int {
		return int(off / (privWords * 8))
	})
	w.table = c.Alloc(tableWords*8, 64)
	w.records = c.Alloc(numRecords*64, 64)
	w.slots = c.AllocHomed(2*synthThreads*slotWords*8, 64, func(off int64) int {
		return int(off / (slotWords * 8))
	})
	w.lock0 = c.AllocLock()
	for i := 1; i < numRecords; i++ {
		c.AllocLock()
	}
}

func (w *synthWorkload) privAt(t int, i uint16) shasta.Addr {
	return w.priv + shasta.Addr((t*privWords+int(i))*8)
}

func (w *synthWorkload) slotAt(buf, t int, i uint16) shasta.Addr {
	return w.slots + shasta.Addr(((buf*synthThreads+t)*slotWords+int(i))*8)
}

func (w *synthWorkload) Body(p *shasta.Proc) {
	var mine []int // the logical threads this processor runs
	for t := p.ID(); t < synthThreads; t += p.NumProcs() {
		mine = append(mine, t)
	}

	for _, t := range mine {
		for i := 0; i < privWords; i++ {
			p.StoreF64(w.privAt(t, uint16(i)), float64(t))
		}
		for i := t * (tableWords / synthThreads); i < (t+1)*(tableWords/synthThreads); i++ {
			p.StoreF64(w.table+shasta.Addr(i*8), float64(i%97))
		}
		for buf := 0; buf < 2; buf++ {
			for i := 0; i < slotWords; i++ {
				p.StoreF64(w.slotAt(buf, t, uint16(i)), float64(buf))
			}
		}
	}
	p.Barrier()
	if p.ID() == 0 {
		p.ResetStats()
	}
	p.Barrier()

	var sums [synthThreads]float64
	for ph := range w.prog.ops {
		cur, prev := ph%2, (ph+1)%2
		for _, t := range mine {
			sum := sums[t]
			for _, op := range w.prog.ops[ph][t] {
				switch op.kind {
				case opPrivLoad:
					sum += p.LoadF64(w.privAt(t, op.idx))
				case opPrivStore:
					p.StoreF64(w.privAt(t, op.idx), float64(ph+int(op.idx)))
				case opTable:
					sum += p.LoadF64(w.table + shasta.Addr(int(op.idx)*8))
				case opRecord:
					rec := w.records + shasta.Addr(int(op.idx)*64)
					p.LockAcquire(w.lock0 + int(op.idx))
					p.StoreU64(rec, p.LoadU64(rec)+uint64(t+1))
					p.LockRelease(w.lock0 + int(op.idx))
				case opSlot:
					// The peer wrote buffer prev during the last phase and
					// nobody writes it during this one.
					sum += p.LoadF64(w.slotAt(prev, int(op.peer), op.idx))
					p.StoreF64(w.slotAt(cur, t, op.idx), float64(ph*synthThreads+t))
				}
			}
			sums[t] = sum
		}
		p.Barrier()
		// One thread rewrites a few table entries while the others wait, so
		// table reads keep missing but never race with a write.
		writer := ph % synthThreads
		if writer%p.NumProcs() == p.ID() {
			for i, e := range w.prog.updates[ph] {
				p.StoreF64(w.table+shasta.Addr(int(e)*8), float64(ph*tableWrites+i))
			}
		}
		p.Barrier()
	}
	if p.ID() == 0 {
		p.EndMeasured()
	}

	for _, t := range mine {
		w.partial[t] = sums[t]
	}
	p.Barrier()
	if p.ID() == 0 {
		total := 0.0
		for _, v := range w.partial {
			total += v
		}
		for r := 0; r < numRecords; r++ {
			total += float64(p.LoadU64(w.records + shasta.Addr(r*64)))
		}
		w.sum = total
	}
}

func (w *synthWorkload) Checksum() float64 { return w.sum }
