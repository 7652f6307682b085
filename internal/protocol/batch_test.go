package protocol

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memory"
)

// Tests for the batch check's requirement table: what a batch declares and
// touches must not depend on the order its references arrive in, a nested
// batch must not disturb the one it runs inside, and a batch whose blocks
// are all valid must cost the same however many blocks it names. The want
// strings of the order and nesting tests were captured from the
// implementation that kept the table in a map and sorted its keys per call.

// batchBlock is the block size of the arrays these tests batch over: two
// 64-byte lines, so a batch's line walk has to hop a block at a time.
const batchBlock = 128

// observeBatches runs body on processor 0 of an 8-processor, two-node
// system over eight blocks homed on the other node — so every block a batch
// names misses — and renders what the observatory saw of processor 0's
// batches: the batch, miss and touch events in emission order, then the
// per-block declared masks. Blocks are numbered from the array's first.
func observeBatches(t *testing.T, parallel bool, body func(p *Proc, a memory.Addr)) string {
	t.Helper()
	s := New(Config{NumProcs: 8, ProcsPerNode: 4, Clustering: 4, HeapBytes: 1 << 20, Parallel: parallel})
	a := s.AllocPlaced(8*batchBlock, batchBlock, 4)
	col := &CollectorTracer{}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		if p.ID() == 4 {
			for i := 0; i < 8*batchBlock/8; i++ {
				p.StoreF64(a+Addr8(i), float64(i))
			}
		}
		p.Barrier()
		if p.ID() == 0 {
			body(p, a)
		}
		p.Barrier()
	})
	if err := s.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	first := s.lay.LineOf(a)
	blk := func(base int) int { return (base - first) * s.lay.LineSize() / batchBlock }
	var out strings.Builder
	for _, e := range col.Events {
		if e.Proc != 0 {
			continue
		}
		switch e.Op {
		case "batch":
			fmt.Fprintf(&out, "batch n=%d\n", e.N)
		case "miss":
			fmt.Fprintf(&out, "miss b%d %v rd=%#x wr=%#x declared=%v\n", blk(e.BaseLine), e.Kind, e.Rd, e.Wr, e.Declared)
		case "touch":
			fmt.Fprintf(&out, "touch b%d rd=%#x wr=%#x\n", blk(e.BaseLine), e.Rd, e.Wr)
		}
	}
	for b := 0; b < 8; b++ {
		if st := s.Stats().Procs[0].Blocks[first+b*batchBlock/s.lay.LineSize()]; st != nil && st.ReadMask|st.WriteMask != 0 {
			fmt.Fprintf(&out, "mask b%d rd=%#x wr=%#x\n", b, st.ReadMask, st.WriteMask)
		}
	}
	return out.String()
}

// ref builds a BatchRef at a byte offset into the test array.
func ref(a memory.Addr, off, bytes int, store bool) BatchRef {
	return BatchRef{Base: a + memory.Addr(off), Bytes: bytes, Store: store}
}

func TestBatchReferenceOrder(t *testing.T) {
	at := func(a memory.Addr, off int) memory.Addr { return a + memory.Addr(off) }
	cases := []struct {
		name string
		body func(p *Proc, a memory.Addr)
		want string
	}{
		{"descending", func(p *Proc, a memory.Addr) {
			p.Batch([]BatchRef{ref(a, 640, 16, false), ref(a, 384, 8, false), ref(a, 128, 24, true)}, func(b *Batch) {
				b.LoadF64(at(a, 640))
				b.LoadF64(at(a, 648))
				b.LoadF64(at(a, 384))
				for i := 0; i < 3; i++ {
					b.StoreF64(at(a, 128+8*i), 1)
				}
			})
		}, `batch n=3
miss b1 write rd=0x0 wr=0x7 declared=true
miss b3 read rd=0x1 wr=0x0 declared=true
miss b5 read rd=0x3 wr=0x0 declared=true
touch b1 rd=0x0 wr=0x7
touch b3 rd=0x1 wr=0x0
touch b5 rd=0x3 wr=0x0
mask b1 rd=0x0 wr=0x7
mask b3 rd=0x1 wr=0x0
mask b5 rd=0x3 wr=0x0
`},
		{"interleaved", func(p *Proc, a memory.Addr) {
			p.Batch([]BatchRef{ref(a, 256, 8, false), ref(a, 768, 8, true), ref(a, 0, 8, false), ref(a, 512, 16, false)}, func(b *Batch) {
				b.LoadF64(at(a, 256))
				b.StoreF64(at(a, 768), 2)
				b.LoadF64(at(a, 0))
				b.LoadF64(at(a, 512)) // the declared second word stays untouched
			})
		}, `batch n=4
miss b0 read rd=0x1 wr=0x0 declared=true
miss b2 read rd=0x1 wr=0x0 declared=true
miss b4 read rd=0x3 wr=0x0 declared=true
miss b6 write rd=0x0 wr=0x1 declared=true
touch b0 rd=0x1 wr=0x0
touch b2 rd=0x1 wr=0x0
touch b4 rd=0x1 wr=0x0
touch b6 rd=0x0 wr=0x1
mask b0 rd=0x1 wr=0x0
mask b2 rd=0x1 wr=0x0
mask b4 rd=0x3 wr=0x0
mask b6 rd=0x0 wr=0x1
`},
		{"overlapping", func(p *Proc, a memory.Addr) {
			// Two references into block 1, one a store, and a third that
			// straddles blocks 0 and 1.
			p.Batch([]BatchRef{ref(a, 128, 16, false), ref(a, 192, 16, true), ref(a, 120, 16, false)}, func(b *Batch) {
				b.LoadF64(at(a, 128))
				b.StoreF64(at(a, 192), 3)
				b.LoadF64(at(a, 120))
				b.LoadF64(at(a, 128))
			})
		}, `batch n=2
miss b0 read rd=0x8000 wr=0x0 declared=true
miss b1 write rd=0x3 wr=0x300 declared=true
touch b0 rd=0x8000 wr=0x0
touch b1 rd=0x1 wr=0x100
mask b0 rd=0x8000 wr=0x0
mask b1 rd=0x3 wr=0x300
`},
		{"spanning", func(p *Proc, a memory.Addr) {
			// One store range from the middle of block 1 into block 3, and
			// a load reference into the block it passes over.
			p.Batch([]BatchRef{ref(a, 320, 8, false), ref(a, 200, 300, true)}, func(b *Batch) {
				b.StoreF64(at(a, 200), 4)
				b.StoreF64(at(a, 256), 4)
				b.LoadF64(at(a, 320))
				b.StoreF64(at(a, 496), 4)
			})
		}, `batch n=3
miss b1 write rd=0x0 wr=0xfe00 declared=true
miss b2 write rd=0x100 wr=0xffff declared=true
miss b3 write rd=0x0 wr=0x7fff declared=true
touch b1 rd=0x0 wr=0x200
touch b2 rd=0x100 wr=0x1
touch b3 rd=0x0 wr=0x4000
mask b1 rd=0x0 wr=0xfe00
mask b2 rd=0x100 wr=0xffff
mask b3 rd=0x0 wr=0x7fff
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := observeBatches(t, false, c.body); got != c.want {
				t.Errorf("batch observed as\n%swant\n%s", got, c.want)
			}
		})
	}
}

// nestedBatches runs a batch whose body runs a second batch on the same
// processor, both missing: the inner one's requirement table must not
// overwrite the outer one's, whose touch events and markers come after it.
func nestedBatches(p *Proc, a memory.Addr) {
	at := func(off int) memory.Addr { return a + memory.Addr(off) }
	p.Batch([]BatchRef{ref(a, 128, 8, false), ref(a, 0, 16, false)}, func(outer *Batch) {
		outer.LoadF64(at(0))
		p.Batch([]BatchRef{ref(a, 640, 8, true), ref(a, 512, 8, false), ref(a, 384, 8, false)}, func(inner *Batch) {
			inner.StoreF64(at(640), inner.LoadF64(at(512))+inner.LoadF64(at(384)))
		})
		outer.LoadF64(at(128))
		outer.LoadF64(at(8))
	})
}

const nestedWant = `batch n=2
miss b0 read rd=0x3 wr=0x0 declared=true
miss b1 read rd=0x1 wr=0x0 declared=true
batch n=3
miss b3 read rd=0x1 wr=0x0 declared=true
miss b4 read rd=0x1 wr=0x0 declared=true
miss b5 write rd=0x0 wr=0x1 declared=true
touch b3 rd=0x1 wr=0x0
touch b4 rd=0x1 wr=0x0
touch b5 rd=0x0 wr=0x1
touch b0 rd=0x3 wr=0x0
touch b1 rd=0x1 wr=0x0
mask b0 rd=0x3 wr=0x0
mask b1 rd=0x1 wr=0x0
mask b3 rd=0x1 wr=0x0
mask b4 rd=0x1 wr=0x0
mask b5 rd=0x0 wr=0x1
`

func TestNestedBatchKeepsOuterTable(t *testing.T) {
	if got := observeBatches(t, false, nestedBatches); got != nestedWant {
		t.Errorf("nested batches observed as\n%swant\n%s", got, nestedWant)
	}
}

// TestBatchTraceUnderParallelEngine runs the nested batches traced on the
// window scheduler: the per-processor event buffers are filled by domain
// workers and drained by the coordinator, which the race detector watches
// (make check runs this package under -race), and the trace must equal the
// serial one.
func TestBatchTraceUnderParallelEngine(t *testing.T) {
	if got := observeBatches(t, true, nestedBatches); got != nestedWant {
		t.Errorf("nested batches under the parallel engine observed as\n%swant\n%s", got, nestedWant)
	}
}

// TestBatchHitDoesNotAllocate pins the cost of the batch check proper: a
// batch whose blocks are all valid allocates nothing, whether it names one
// reference or eight references over eight blocks in no particular order —
// the context and its requirement table are the processor's, reused from
// call to call.
func TestBatchHitDoesNotAllocate(t *testing.T) {
	s := testSystem(1, 1)
	a := s.Alloc(8*batchBlock, batchBlock)
	one := []BatchRef{ref(a, 0, 64, false)}
	var eight []BatchRef
	for _, b := range []int{3, 7, 0, 5, 1, 6, 2, 4} {
		eight = append(eight, ref(a, b*batchBlock+8, 64, b%2 == 0))
	}
	body := func(b *Batch) { b.LoadF64(a) }
	s.Run(func(p *Proc) {
		p.Batch(eight, body) // warm: grow the table to eight rows
		n1 := testing.AllocsPerRun(100, func() { p.Batch(one, body) })
		n8 := testing.AllocsPerRun(100, func() { p.Batch(eight, body) })
		if n1 != 0 || n8 != 0 {
			t.Errorf("a batch hit allocates %v times over 1 block, %v over 8, want 0 and 0", n1, n8)
		}
	})
	if m := s.Stats().TotalMisses(); m != 0 {
		t.Errorf("%d misses: the batches were meant to hit", m)
	}
}
