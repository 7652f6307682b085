package sim

// Tests for the emission merge, the host-side hot path of every window
// flush: its allocation-freedom and its order.

import (
	"fmt"
	"testing"
)

// fillEmits stages count emissions on every processor with interleaved
// timestamps, as a window flush would find them.
func fillEmits(e *Engine, count int) {
	for i, p := range e.procs {
		for k := 0; k < count; k++ {
			p.emits = append(p.emits, emitRec{time: int64(i + k*e.NumProcs())})
		}
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
	}
	e.flushTo(1 << 60)
	want := []string{"100/0", "100/1", "100/2", "100/3", "100/4", "101/0", "103/2", "105/4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}
