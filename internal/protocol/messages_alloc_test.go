//go:build !race

// The race detector's runtime allocates on its own, so the malloc budget
// below is built and checked only without it.

package protocol

import (
	"runtime"
	"testing"
)

// TestMessageMallocsStayBounded pins what a message costs once the free
// lists are warm. Processor 4 of a Base-Shasta system works against homes
// on processor 0 (the other node): a lock acquire/release pair sends a
// request and a release and receives a grant, so the requester recycles
// one message and allocates one; a 2-hop read miss on a fresh block
// circulates one request/reply pair, the reply's block buffer included, so
// the messages cost nothing. What remains per operation is the lock wait's
// label and the lock queue, or the miss entry, the home's directory entry
// and the deferred reply, plus the growth of the maps that index 1,000 new
// blocks (37 mallocs). With a message per send and a block copy per data
// reply, the same operations cost 5,000 and 6,051 mallocs. The warm-up
// fills the lock home's free list to its bound.
func TestMessageMallocsStayBounded(t *testing.T) {
	// One P: with two, the counts of a loaded host varied by a few from
	// run to run; with one they repeat exactly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, warm = 1000, 300
	s := New(Config{NumProcs: 8, ProcsPerNode: 4, Clustering: 1, HeapBytes: 1 << 20})
	a := s.AllocPlaced(int64(n+warm)*64, 64, 0)
	s.Run(func(p *Proc) {
		if p.id != 4 {
			return // serve as homes from the final barrier
		}
		measure := func(what string, max uint64, op func(i int)) {
			runtime.GC() // a fresh heap: no collection inside the window
			for i := 0; i < warm; i++ {
				op(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+n; i++ {
				op(i)
			}
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			t.Logf("%d %s: %d mallocs", n, what, got)
			if got > max {
				t.Errorf("%d %s cost %d mallocs, want at most %d", n, what, got, max)
			}
		}
		measure("remote lock acquire/release pairs", 3*n, func(int) {
			p.LockAcquire(0)
			p.LockRelease(0)
		})
		measure("2-hop read misses", 3*n+40, func(i int) {
			_ = p.LoadF64(a + Addr8(8*i))
		})
	})
	for _, q := range s.procs {
		if len(q.free) > msgFreeCap {
			t.Errorf("proc %d keeps %d free messages, more than the bound %d", q.id, len(q.free), msgFreeCap)
		}
	}
}
