package apps

import (
	"fmt"

	"repro"
)

// LU is the SPLASH-2 dense blocked LU factorization (without pivoting) of
// an n x n matrix, in both layouts the paper evaluates:
//
//   - LU: the matrix is a single row-major array, so a B x B block's rows
//     are scattered across the array and a block update touches many small
//     line-sized pieces (the paper raises this structure's granularity to
//     128 bytes in Table 2);
//   - LU-Contig: each B x B block is contiguous (2 KiB for B=16), the
//     structure the paper allocates with a 2048-byte block size and homes
//     at the owning processor.
//
// Blocks are owned 2D-cyclically; step k factors the diagonal block, then
// owners update the perimeter, then the interior, with barriers between
// phases — the paper's LU communication pattern (each step broadcasts the
// pivot block column/row to the processors owning the interior).
type LU struct {
	n, b       int  // matrix dim, block dim
	contig     bool // contiguous block layout
	misplaced  bool // home the whole matrix at processor 0
	sweeps     int  // measured re-initialize + factor repetitions
	mat        F64Array
	cluster    *shasta.Cluster
	nb         int // blocks per dimension
	checksum   float64
	partial    []float64
	flopCycles int64 // cycles charged per 2 flops (multiply-add)
}

// NewLU builds an LU workload at the given scale (matrix dimension
// 512*scale; the paper factors 1024x1024 and 2048x2048), in the requested
// layout.
func NewLU(scale int, contig bool) *LU {
	if scale < 1 {
		scale = 1
	}
	n := 512 * scale
	return &LU{n: n, b: 16, contig: contig, sweeps: 1, flopCycles: 1}
}

// NewLUIterated builds the row-major LU workload with two benchmarking
// knobs for the home-migration experiment: sweeps repeats the measured
// re-initialize-and-factor cycle (a repeated-factorization harness, as
// solver benchmarks run; every sweep produces the identical factorization,
// so the checksum is the single-sweep one), and misplaced homes the whole
// matrix at processor 0 — the placement a sequential first-touch
// initialization produces, where every directory access pays a remote hop
// to node 0.
func NewLUIterated(scale, sweeps int, misplaced bool) *LU {
	w := NewLU(scale, false)
	if sweeps > 1 {
		w.sweeps = sweeps
	}
	w.misplaced = misplaced
	return w
}

// Name implements Workload.
func (w *LU) Name() string {
	if w.contig {
		return "LU-Contig"
	}
	return "LU"
}

// ProblemSize implements Workload.
func (w *LU) ProblemSize() string { return fmt.Sprintf("%dx%d matrix", w.n, w.n) }

// Setup implements Workload.
func (w *LU) Setup(c *shasta.Cluster, variableGranularity bool) {
	w.cluster = c
	w.nb = w.n / w.b
	elems := w.n * w.n
	blockSize := 64
	if variableGranularity {
		if w.contig {
			blockSize = 2048 // Table 2: matrix block, 2048 bytes
		} else {
			blockSize = 128 // Table 2: matrix array, 128 bytes
		}
	}
	if w.contig {
		// Home placement: each 2 KiB block's pages at its owner.
		blockBytes := int64(w.b * w.b * 8)
		w.mat = F64Array{Base: c.AllocHomed(int64(elems)*8, blockSize, func(off int64) int {
			blk := int(off / blockBytes)
			bi, bj := blk/w.nb, blk%w.nb
			return w.owner(bi, bj, c.Procs())
		}), Len: elems}
	} else if w.misplaced {
		// Sequential-first-touch placement: every page homed at processor 0.
		w.mat = F64Array{Base: c.AllocHomed(int64(elems)*8, blockSize,
			func(int64) int { return 0 }), Len: elems}
	} else {
		w.mat = AllocF64(c, elems, blockSize)
	}
	w.partial = make([]float64, c.Procs())
}

// owner returns the 2D-cyclic owner of block (bi, bj).
func (w *LU) owner(bi, bj, procs int) int {
	pr := 1
	for pr*pr < procs {
		pr *= 2
	}
	for procs%pr != 0 {
		pr /= 2
	}
	pc := procs / pr
	return (bi%pr)*pc + (bj % pc)
}

// elem returns the address of element (i, j).
func (w *LU) elem(i, j int) shasta.Addr {
	if !w.contig {
		return w.mat.At(i*w.n + j)
	}
	bi, bj := i/w.b, j/w.b
	ii, jj := i%w.b, j%w.b
	return w.mat.At(((bi*w.nb+bj)*w.b+ii)*w.b + jj)
}

// blockRefs appends batch references covering block (bi, bj) to refs: one
// per row in the scattered layout, one contiguous range in the contiguous
// layout. Proc.Batch keeps nothing of the slice it is handed, so each
// processor builds every batch's references in one scratch slice (refs[:0]).
func (w *LU) blockRefs(refs []shasta.BatchRef, bi, bj int, store bool) []shasta.BatchRef {
	if w.contig {
		return append(refs, shasta.BatchRef{Base: w.elem(bi*w.b, bj*w.b), Bytes: w.b * w.b * 8, Store: store})
	}
	for ii := 0; ii < w.b; ii++ {
		refs = append(refs, shasta.BatchRef{Base: w.elem(bi*w.b+ii, bj*w.b), Bytes: w.b * 8, Store: store})
	}
	return refs
}

// loadBlock copies block (bi, bj) into buf (b*b elements) inside a batch.
func (w *LU) loadBlock(b *shasta.Batch, bi, bj int, buf []float64) {
	for ii := 0; ii < w.b; ii++ {
		row := w.elem(bi*w.b+ii, bj*w.b)
		for jj := 0; jj < w.b; jj++ {
			buf[ii*w.b+jj] = b.LoadF64(row + shasta.Addr(jj*8))
		}
	}
}

// storeBlock writes buf back to block (bi, bj) inside a batch.
func (w *LU) storeBlock(b *shasta.Batch, bi, bj int, buf []float64) {
	for ii := 0; ii < w.b; ii++ {
		row := w.elem(bi*w.b+ii, bj*w.b)
		for jj := 0; jj < w.b; jj++ {
			b.StoreF64(row+shasta.Addr(jj*8), buf[ii*w.b+jj])
		}
	}
}

// initBlocks fills every block owned by this processor (as in SPLASH-2 LU),
// with a per-block deterministic generator so the matrix is identical for
// any processor count — and for any repetition, so iterated sweeps all
// factor the same matrix.
func (w *LU) initBlocks(p *shasta.Proc, refs []shasta.BatchRef) {
	n, bdim, nb := w.n, w.b, w.nb
	procs := p.NumProcs()
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			if w.owner(bi, bj, procs) != p.ID() {
				continue
			}
			r := newRNG(uint64(12345 + bi*nb + bj))
			p.Batch(w.blockRefs(refs[:0], bi, bj, true), func(b *shasta.Batch) {
				for ii := 0; ii < bdim; ii++ {
					i := bi*bdim + ii
					for jj := 0; jj < bdim; jj++ {
						j := bj*bdim + jj
						v := r.rangeF(0.1, 1.0)
						if i == j {
							v += float64(n)
						}
						b.StoreF64(w.elem(i, j), v)
					}
				}
			})
		}
	}
}

// Body implements Workload.
func (w *LU) Body(p *shasta.Proc) {
	bdim := w.b
	// Scratch for the widest batch: an interior update names three blocks.
	refs := make([]shasta.BatchRef, 0, 3*bdim)

	w.initBlocks(p, refs)
	p.Barrier()
	if p.ID() == 0 {
		p.ResetStats()
	}
	p.Barrier()

	diag := make([]float64, bdim*bdim)
	left := make([]float64, bdim*bdim)
	up := make([]float64, bdim*bdim)
	cur := make([]float64, bdim*bdim)
	for sweep := 0; sweep < w.sweeps; sweep++ {
		if sweep > 0 {
			// Iterated sweeps re-create the matrix and factor it again:
			// the owners' re-initialization stores and the consumers'
			// re-reads repeat the factorization's sharing pattern.
			w.initBlocks(p, refs)
			p.Barrier()
		}
		w.factor(p, refs, diag, left, up, cur)
	}
	w.finish(p)
}

// factor runs one blocked factorization over the (freshly initialized)
// matrix; the scratch buffers are the caller's so sweeps reuse them.
func (w *LU) factor(p *shasta.Proc, refs []shasta.BatchRef, diag, left, up, cur []float64) {
	nb := w.nb
	procs := p.NumProcs()
	for k := 0; k < nb; k++ {
		// Phase 1: the diagonal block's owner factors it in place.
		if w.owner(k, k, procs) == p.ID() {
			p.Batch(w.blockRefs(refs[:0], k, k, true), func(b *shasta.Batch) {
				w.loadBlock(b, k, k, diag)
				w.factorDiag(p, diag)
				w.storeBlock(b, k, k, diag)
			})
		}
		p.Barrier()

		// Phase 2: perimeter updates.
		for j := k + 1; j < nb; j++ {
			if w.owner(k, j, procs) == p.ID() {
				refs = w.blockRefs(w.blockRefs(refs[:0], k, j, true), k, k, false)
				p.Batch(refs, func(b *shasta.Batch) {
					w.loadBlock(b, k, k, diag)
					w.loadBlock(b, k, j, cur)
					w.solveLower(p, diag, cur)
					w.storeBlock(b, k, j, cur)
				})
			}
		}
		for i := k + 1; i < nb; i++ {
			if w.owner(i, k, procs) == p.ID() {
				refs = w.blockRefs(w.blockRefs(refs[:0], i, k, true), k, k, false)
				p.Batch(refs, func(b *shasta.Batch) {
					w.loadBlock(b, k, k, diag)
					w.loadBlock(b, i, k, cur)
					w.solveUpper(p, diag, cur)
					w.storeBlock(b, i, k, cur)
				})
			}
		}
		p.Barrier()

		// Phase 3: interior updates A_ij -= A_ik * A_kj.
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				if w.owner(i, j, procs) != p.ID() {
					continue
				}
				refs = w.blockRefs(w.blockRefs(refs[:0], i, j, true), i, k, false)
				refs = w.blockRefs(refs, k, j, false)
				p.Batch(refs, func(b *shasta.Batch) {
					w.loadBlock(b, i, k, left)
					w.loadBlock(b, k, j, up)
					w.loadBlock(b, i, j, cur)
					w.matmulSub(p, cur, left, up)
					w.storeBlock(b, i, j, cur)
				})
			}
		}
		p.Barrier()
	}
}

// finish ends the measured phase and computes the verification checksum.
func (w *LU) finish(p *shasta.Proc) {
	nb, bdim := w.nb, w.b
	procs := p.NumProcs()
	if p.ID() == 0 {
		p.EndMeasured()
	}

	// Verification pass: weighted checksum over this processor's blocks.
	var sum float64
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			if w.owner(bi, bj, procs)%procs != p.ID() {
				continue
			}
			for ii := 0; ii < bdim; ii++ {
				for jj := 0; jj < bdim; jj++ {
					i, j := bi*bdim+ii, bj*bdim+jj
					wgt := 1 + float64((i*31+j*17)%97)/97
					sum += p.LoadF64(w.elem(i, j)) * wgt
				}
			}
		}
	}
	w.partial[p.ID()] = sum
	p.Barrier()
	if p.ID() == 0 {
		total := 0.0
		for _, v := range w.partial {
			total += v
		}
		w.checksum = total
	}
}

// factorDiag factors a diagonal block in place (LU without pivoting).
func (w *LU) factorDiag(p *shasta.Proc, a []float64) {
	b := w.b
	for k := 0; k < b; k++ {
		pivot := a[k*b+k]
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= pivot
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= a[i*b+k] * a[k*b+j]
			}
		}
	}
	p.Compute(w.flopCycles * int64(b*b*b) / 3)
}

// solveLower computes cur = L^-1 * cur for the unit lower triangle of diag.
func (w *LU) solveLower(p *shasta.Proc, diag, cur []float64) {
	b := w.b
	for i := 1; i < b; i++ {
		for k := 0; k < i; k++ {
			l := diag[i*b+k]
			for j := 0; j < b; j++ {
				cur[i*b+j] -= l * cur[k*b+j]
			}
		}
	}
	p.Compute(w.flopCycles * int64(b*b*b) / 2)
}

// solveUpper computes cur = cur * U^-1 for the upper triangle of diag.
func (w *LU) solveUpper(p *shasta.Proc, diag, cur []float64) {
	b := w.b
	for j := 0; j < b; j++ {
		pivot := diag[j*b+j]
		for i := 0; i < b; i++ {
			cur[i*b+j] /= pivot
		}
		for jj := j + 1; jj < b; jj++ {
			u := diag[j*b+jj]
			for i := 0; i < b; i++ {
				cur[i*b+jj] -= cur[i*b+j] * u
			}
		}
	}
	p.Compute(w.flopCycles * int64(b*b*b) / 2)
}

// matmulSub computes cur -= left * up.
func (w *LU) matmulSub(p *shasta.Proc, cur, left, up []float64) {
	b := w.b
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			l := left[i*b+k]
			for j := 0; j < b; j++ {
				cur[i*b+j] -= l * up[k*b+j]
			}
		}
	}
	p.Compute(w.flopCycles * int64(b*b*b))
}

// Checksum implements Workload.
func (w *LU) Checksum() float64 { return w.checksum }
