package sim

// Tests for the adaptive per-domain windows and the host-side hot paths of
// the parallel scheduler: window-count reduction vs fixed windows with
// bit-identical results, fixed-window equivalence fuzzing, and the
// allocation-freedom of the k-way emission merge.

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// TestAdaptiveWindowsReduceWindowCount runs a lopsided program — one
// domain computes for a long stretch while the other is blocked receiving
// — under fixed and adaptive windows. With fixed windows the busy domain
// is re-dispatched every Lookahead cycles; adaptive windows let it run
// ahead up to the window cap, cutting the number of windows by an order of
// magnitude. Results must stay identical to the serial schedule.
func TestAdaptiveWindowsReduceWindowCount(t *testing.T) {
	const lookahead = 50
	run := func(parallel, fixed bool) (finish, windows, recvAt int64) {
		e := NewEngine(4)
		e.Parallel = parallel
		e.FixedWindows = fixed
		e.Lookahead = lookahead
		e.SetDomains(pairDomains(4))
		finish = e.Run(func(p *Proc) {
			switch p.ID {
			case 0:
				for i := 0; i < 2000; i++ {
					p.Advance(stats.Task, 50)
				}
				p.Send(2, lookahead, "done")
			case 2:
				p.WaitRecv(stats.Read, "t")
				recvAt = p.Now()
			}
		})
		return finish, e.WindowsRun(), recvAt
	}

	sFin, _, sAt := run(false, false)
	fFin, fWin, fAt := run(true, true)
	aFin, aWin, aAt := run(true, false)

	if fFin != sFin || fAt != sAt {
		t.Errorf("fixed windows diverged from serial: finish %d vs %d, recv %d vs %d", fFin, sFin, fAt, sAt)
	}
	if aFin != sFin || aAt != sAt {
		t.Errorf("adaptive windows diverged from serial: finish %d vs %d, recv %d vs %d", aFin, sFin, aAt, sAt)
	}
	// 100000 cycles of compute at lookahead 50: fixed needs ~2000
	// windows; adaptive is capped at 64 lookaheads per window, so ~35.
	if aWin*4 >= fWin {
		t.Errorf("adaptive windows (%d) not substantially fewer than fixed (%d)", aWin, fWin)
	}
}

// TestFixedWindowsEquivalenceFuzz reruns the scheduler fuzz programs with
// adaptive window extension disabled: the FixedWindows knob must select a
// schedule that is still observably identical to the serial one (it is the
// benchmark baseline, so it has to stay correct, not just exist).
func TestFixedWindowsEquivalenceFuzz(t *testing.T) {
	const procs = 6
	const lookahead = 50
	for seed := int64(0); seed < 10; seed++ {
		se := NewEngine(procs)
		se.Lookahead = lookahead
		se.SetDomains(pairDomains(procs))
		sr := runRandomProgram(se, seed, lookahead)

		pe := NewEngine(procs)
		pe.Parallel = true
		pe.FixedWindows = true
		pe.Lookahead = lookahead
		pe.SetDomains(pairDomains(procs))
		pr := runRandomProgram(pe, seed, lookahead)

		compareRuns(t, fmt.Sprintf("fixed windows seed %d", seed), sr, pr)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// fillEmits stages count emissions on every processor with interleaved
// timestamps, as a window flush would find them.
func fillEmits(e *Engine, count int) {
	for i, p := range e.procs {
		for k := 0; k < count; k++ {
			p.emits = append(p.emits, emitRec{time: int64(i + k*e.NumProcs())})
		}
		p.listFlush()
	}
}

// TestMergeEmitsDoesNotAllocate pins the allocation behaviour of the k-way
// emission merge: after the first call has grown the reusable heap buffer,
// draining fully-loaded emission buffers performs zero heap allocations
// per window. This is the hot path of every window flush at high processor
// counts, so an accidental per-event or per-window allocation is a
// regression.
func TestMergeEmitsDoesNotAllocate(t *testing.T) {
	e := NewEngine(64)
	delivered := 0
	e.SetEmitFunc(func(tm int64, proc int, payload any) { delivered++ })
	fillEmits(e, 16)
	e.flushTo(1 << 60) // warm: grows emitHeap, the flush list and the emit buffers
	if delivered != 64*16 {
		t.Fatalf("warmup delivered %d emissions, want %d", delivered, 64*16)
	}
	allocs := testing.AllocsPerRun(20, func() {
		fillEmits(e, 16)
		e.flushTo(1 << 60)
	})
	if allocs != 0 {
		t.Fatalf("mergeEmits allocates %.1f objects per window, want 0", allocs)
	}
}

// TestMergeEmitsHeapOrder cross-checks the heap-based merge against the
// specified order — (emission time, processor ID) — on an adversarial
// pattern: equal timestamps across processors and uneven buffer lengths.
func TestMergeEmitsHeapOrder(t *testing.T) {
	e := NewEngine(5)
	var got []string
	e.SetEmitFunc(func(tm int64, proc int, payload any) {
		got = append(got, fmt.Sprintf("%d/%d", tm, proc))
	})
	// Equal times on procs 4..0 (reverse registration), plus extras on
	// the even processors so buffer lengths are uneven.
	for i := 4; i >= 0; i-- {
		p := e.procs[i]
		p.emits = append(p.emits, emitRec{time: 100})
		if i%2 == 0 {
			p.emits = append(p.emits, emitRec{time: 101 + int64(i)})
		}
		p.listFlush()
	}
	e.flushTo(1 << 60)
	want := []string{"100/0", "100/1", "100/2", "100/3", "100/4", "101/0", "103/2", "105/4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}
