// Package memory models Shasta's shared virtual address space.
//
// Shared data lives in a flat heap of virtual addresses. The heap is
// divided into fixed-size lines (64 or 128 bytes; the experiments use 64),
// and a per-line state table records each line's coherence state. Blocks —
// the units of coherence and transfer — consist of one or more consecutive
// lines; uniquely among software DSM systems, Shasta lets the block size
// differ between allocations ("variable granularity"), chosen with a hint
// at allocation time.
//
// Every sharing group (a set of processors that share memory through the
// SMP hardware; size 1 in Base-Shasta) holds an Image: its own copy of the
// heap data plus the group's shared state table. SMP-Shasta additionally
// gives every processor a private state table (PrivateTable), consulted by
// the inline checks without any synchronization or fence instructions.
//
// When a line becomes invalid the protocol stores a designated flag value
// in each longword of the line, which lets load miss checks compare the
// loaded value against the flag instead of consulting the state table —
// making the load and its check effectively atomic.
package memory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Addr is a virtual address in the shared heap.
type Addr int64

// FlagWord is the invalid-flag value stored in every longword (4 bytes) of
// an invalidated line.
const FlagWord uint32 = 0xDEADBEEF

// FlagF64 is the float64 whose representation consists of two flag words;
// loads of float64 data compare against this pattern.
var FlagF64 = math.Float64frombits(uint64(FlagWord)<<32 | uint64(FlagWord))

// State is a line's coherence state in a group's shared state table.
type State uint8

// Line states. The three base states mirror a hardware protocol; the
// pending states mark lines with an outstanding request or an in-progress
// downgrade (SMP-Shasta).
const (
	// Invalid: the data is not valid in this group.
	Invalid State = iota
	// Shared: valid here, and other groups may hold copies.
	Shared
	// Exclusive: valid here and nowhere else.
	Exclusive
	// PendingRead: a read request for the block is outstanding.
	PendingRead
	// PendingExcl: a read-exclusive or upgrade request is outstanding.
	PendingExcl
	// PendingDowngrade: the block is being downgraded; intra-group
	// downgrade messages are still in flight (SMP-Shasta only).
	PendingDowngrade
)

// String returns a short name for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case PendingRead:
		return "Pr"
	case PendingExcl:
		return "Px"
	case PendingDowngrade:
		return "Pd"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether data in this state may satisfy a load.
func (s State) Valid() bool { return s == Shared || s == Exclusive }

// PageSize is the granularity of home assignment (a virtual page).
const PageSize = 4096

// Layout describes the structure of the shared heap: allocations and their
// block sizes. A single Layout is shared by every group's Image, since all
// groups see the same virtual address space.
type Layout struct {
	lineSize int
	// lineShift is log2(lineSize): the per-access line lookup is a shift.
	lineShift uint
	// heapSize is the capacity — a limit Alloc enforces, not memory held:
	// the per-line arrays below cover only the lines under brk and grow
	// with it (see setBrk).
	heapSize Addr
	brk      Addr
	// blockBase[l] is the line index of the first line of the block
	// containing line l; blockLines[b] (indexed by a block's first line)
	// is the block's length in lines.
	blockBase  []int32
	blockLines []int32
	// allocated[l] marks lines covered by an allocation; accesses to
	// alignment gaps between allocations are programming errors and are
	// rejected by InHeap.
	allocated []bool
	// migratable[b] (indexed by a block's first line) marks blocks whose
	// home the protocol may move at runtime (online home migration);
	// migEpoch[b] counts completed migrations of the block. Both are
	// written only by protocol code under the block's happens-before
	// chain, so the layout itself needs no locking.
	migratable []bool
	migEpoch   []int32
}

// NewLayout creates a layout with the given line size (which must be a
// power of two, at least 8) and total heap capacity in bytes (a multiple of
// it). protocol.Config.Validate reports both conditions as errors before a
// configuration gets here.
func NewLayout(lineSize int, heapSize int64) *Layout {
	if lineSize < 8 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("memory: invalid line size %d", lineSize))
	}
	if heapSize%int64(lineSize) != 0 {
		panic(fmt.Sprintf("memory: heap size %d not a multiple of line size", heapSize))
	}
	return &Layout{
		lineSize:  lineSize,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		heapSize:  Addr(heapSize),
	}
}

// setBrk moves the allocation pointer up to brk and extends the per-line
// arrays to the lines below it. New lines start as unallocated one-line
// blocks; Alloc overwrites the ones it hands out, alignment gaps stay so.
func (l *Layout) setBrk(brk Addr) {
	l.brk = brk
	old, n := len(l.blockBase), (int(brk)+l.lineSize-1)>>l.lineShift
	if n <= old {
		return
	}
	for li := old; li < n; li++ {
		l.blockBase = append(l.blockBase, int32(li))
		l.blockLines = append(l.blockLines, 1)
	}
	l.allocated = append(l.allocated, make([]bool, n-old)...)
	l.migratable = append(l.migratable, make([]bool, n-old)...)
	l.migEpoch = append(l.migEpoch, make([]int32, n-old)...)
}

// LineSize returns the line size in bytes.
func (l *Layout) LineSize() int { return l.lineSize }

// Used returns the number of heap bytes allocated so far.
func (l *Layout) Used() int64 { return int64(l.brk) }

// NumLines returns the number of lines in the heap's capacity.
func (l *Layout) NumLines() int { return int(l.heapSize) / l.lineSize }

// imageBytes is the extent of an Image or PrivateTable built now: the
// allocated prefix of the heap, rounded up to a whole page.
func (l *Layout) imageBytes() int64 {
	return (int64(l.brk) + PageSize - 1) / PageSize * PageSize
}

// UsedLines returns the number of lines below the allocation pointer: the
// lines the layout describes and the state tables built from it cover.
func (l *Layout) UsedLines() int { return len(l.blockBase) }

// AlignToPage advances the allocation pointer to the next page boundary.
// The heap allocator calls it before every allocation so that no two
// allocations share a virtual page: home assignment is per page, and a page
// shared between allocations with different placement policies would let a
// later allocation silently re-home an earlier one's data.
func (l *Layout) AlignToPage() {
	if rem := int64(l.brk) % PageSize; rem != 0 {
		l.setBrk(l.brk + Addr(PageSize-rem))
	}
}

// ErrHeapExhausted is the error of an Alloc that does not fit in what is
// left of the heap's capacity.
var ErrHeapExhausted = errors.New("memory: heap exhausted")

// Alloc carves size bytes out of the heap, kept coherent in blocks of
// blockSize bytes. Following the paper's policy, blockSize is rounded up to
// a whole number of lines; a blockSize of 0 selects the default policy
// (objects smaller than 1024 bytes become a single block, larger objects
// use one line per block). The allocation is aligned to a block boundary.
func (l *Layout) Alloc(size int64, blockSize int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("memory: alloc of non-positive size %d", size)
	}
	if blockSize == 0 {
		if size < 1024 {
			blockSize = int(size)
		} else {
			blockSize = l.lineSize
		}
	}
	// Round the block size up to whole lines.
	bLines := (blockSize + l.lineSize - 1) / l.lineSize
	bBytes := int64(bLines * l.lineSize)
	// Round the allocation up to whole blocks.
	nBlocks := (size + bBytes - 1) / bBytes
	total := nBlocks * bBytes
	start := l.brk
	if int64(start)+total > int64(l.heapSize) {
		return 0, fmt.Errorf("%w: need %d, have %d",
			ErrHeapExhausted, total, int64(l.heapSize)-int64(start))
	}
	l.setBrk(start + Addr(total))
	firstLine := l.LineOf(start)
	for li := firstLine; li < firstLine+int(total)/l.lineSize; li++ {
		l.allocated[li] = true
	}
	for b := 0; b < int(nBlocks); b++ {
		base := firstLine + b*bLines
		l.blockLines[base] = int32(bLines)
		for i := 0; i < bLines; i++ {
			l.blockBase[base+i] = int32(base)
		}
	}
	return start, nil
}

// LineOf returns the index of the line containing addr.
func (l *Layout) LineOf(addr Addr) int { return int(addr >> l.lineShift) }

// LineAddr returns the starting address of line index li.
func (l *Layout) LineAddr(li int) Addr { return Addr(li * l.lineSize) }

// BlockOf returns the first line index and length in lines of the block
// containing addr.
func (l *Layout) BlockOf(addr Addr) (baseLine, lines int) {
	li := l.LineOf(addr)
	base := int(l.blockBase[li])
	return base, int(l.blockLines[base])
}

// BlockBytes returns the block's starting address and size in bytes.
func (l *Layout) BlockBytes(addr Addr) (Addr, int) {
	base, lines := l.BlockOf(addr)
	return l.LineAddr(base), lines * l.lineSize
}

// InHeap reports whether [addr, addr+size) lies inside an allocation.
func (l *Layout) InHeap(addr Addr, size int) bool {
	if addr < 0 || addr+Addr(size) > l.brk {
		return false
	}
	return l.allocated[addr>>l.lineShift] && l.allocated[(addr+Addr(size)-1)>>l.lineShift]
}

// PageOf returns the virtual page number of addr, used for home assignment.
func (l *Layout) PageOf(addr Addr) int { return int(addr) / PageSize }

// SetMigratable marks (or unmarks) every block of [addr, addr+size) as a
// candidate for online home migration. Called at allocation time; the flag
// is immutable once the run starts.
func (l *Layout) SetMigratable(addr Addr, size int64, on bool) {
	first := l.LineOf(addr)
	last := l.LineOf(addr + Addr(size) - 1)
	for li := first; li <= last; li++ {
		l.migratable[l.blockBase[li]] = on
	}
}

// Migratable reports whether the block with the given base line may be
// re-homed at runtime.
func (l *Layout) Migratable(baseLine int) bool { return l.migratable[baseLine] }

// BumpMigEpoch records one completed migration of the block. Only the
// block's new home calls it, inside the migration handshake, so successive
// bumps of one block are ordered by the protocol's happens-before chain.
func (l *Layout) BumpMigEpoch(baseLine int) { l.migEpoch[baseLine]++ }

// MigEpoch returns how many times the block has been re-homed.
func (l *Layout) MigEpoch(baseLine int) int { return int(l.migEpoch[baseLine]) }

// Image is one sharing group's copy of the heap: its data bytes and the
// group's shared state table.
type Image struct {
	lay   *Layout
	data  []byte
	state []State
}

// NewImage creates a group image of the heap allocated so far, rounded up to
// a whole page: capacity the program never allocated costs nothing, and
// allocations made after this call are not covered. Lines start Invalid with
// the flag value filled in; protocol code arranges initial ownership.
func NewImage(lay *Layout) *Image {
	img := &Image{
		lay:   lay,
		data:  make([]byte, lay.imageBytes()),
		state: make([]State, lay.imageBytes()>>lay.lineShift),
	}
	fillFlag(img.data)
	return img
}

// flagQuad is two flag words, the unit fillFlag stores.
const flagQuad = uint64(FlagWord)<<32 | uint64(FlagWord)

// fillFlag stores the flag value into every longword of b, whose length
// must be a multiple of 4 (any whole number of lines is a multiple of 8).
// The first 64 bytes take 8-byte stores (a one-line block being invalidated
// is done there); anything longer doubles that seed with copy.
func fillFlag(b []byte) {
	head := b[:min(len(b), 64)]
	i := 0
	for ; i+8 <= len(head); i += 8 {
		binary.LittleEndian.PutUint64(head[i:], flagQuad)
	}
	if i < len(head) {
		binary.LittleEndian.PutUint32(head[i:], FlagWord)
	}
	for n := len(head); n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// Layout returns the image's layout.
func (img *Image) Layout() *Layout { return img.lay }

// State returns the state of line li.
func (img *Image) State(li int) State { return img.state[li] }

// SetState sets the state of line li.
func (img *Image) SetState(li int, s State) { img.state[li] = s }

// SetBlockState sets the state of every line of the block whose first line
// is baseLine.
func (img *Image) SetBlockState(baseLine int, s State) {
	n := int(img.lay.blockLines[baseLine])
	for i := 0; i < n; i++ {
		img.state[baseLine+i] = s
	}
}

// BlockState returns the state of the block containing addr (all lines of a
// block share one state).
func (img *Image) BlockState(addr Addr) State {
	base, _ := img.lay.BlockOf(addr)
	return img.state[base]
}

// FillFlag stores the invalid-flag value into every longword of the block
// whose first line is baseLine, as the protocol does when invalidating.
func (img *Image) FillFlag(baseLine int) {
	fillFlag(img.BlockData(baseLine))
}

// BlockData returns the block's bytes (aliasing the image).
func (img *Image) BlockData(baseLine int) []byte {
	start := baseLine * img.lay.lineSize
	n := int(img.lay.blockLines[baseLine]) * img.lay.lineSize
	return img.data[start : start+n]
}

// CopyBlockIn installs data (a protocol reply) into the block starting at
// baseLine.
func (img *Image) CopyBlockIn(baseLine int, data []byte) {
	copy(img.BlockData(baseLine), data)
}

// HasFlagWord reports whether the aligned longword containing addr holds
// the invalid-flag value — the comparison performed by flag-based load miss
// checks.
func (img *Image) HasFlagWord(addr Addr) bool {
	a := int(addr) &^ 3
	return binary.LittleEndian.Uint32(img.data[a:]) == FlagWord
}

// ReadU32 reads a 32-bit longword.
func (img *Image) ReadU32(addr Addr) uint32 {
	return binary.LittleEndian.Uint32(img.data[addr:])
}

// WriteU32 writes a 32-bit longword.
func (img *Image) WriteU32(addr Addr, v uint32) {
	binary.LittleEndian.PutUint32(img.data[addr:], v)
}

// ReadU64 reads a 64-bit quadword.
func (img *Image) ReadU64(addr Addr) uint64 {
	return binary.LittleEndian.Uint64(img.data[addr:])
}

// WriteU64 writes a 64-bit quadword.
func (img *Image) WriteU64(addr Addr, v uint64) {
	binary.LittleEndian.PutUint64(img.data[addr:], v)
}

// ReadF64 reads a float64.
func (img *Image) ReadF64(addr Addr) float64 {
	return math.Float64frombits(img.ReadU64(addr))
}

// WriteF64 writes a float64.
func (img *Image) WriteF64(addr Addr, v float64) {
	img.WriteU64(addr, math.Float64bits(v))
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (img *Image) ReadBytes(addr Addr, n int) []byte {
	out := make([]byte, n)
	copy(out, img.data[addr:int(addr)+n])
	return out
}

// WriteBytes stores b at addr.
func (img *Image) WriteBytes(addr Addr, b []byte) {
	copy(img.data[addr:], b)
}

// PrivateState is a processor's view of a line in its private state table.
// Unlike the shared table it has only the three base states; pending
// conditions are tracked in the shared table and miss table.
type PrivateState = State

// PrivateTable is a processor's private state table (SMP-Shasta). Inline
// checks read it without synchronization; it is modified only by protocol
// code under the same locks as the shared table.
type PrivateTable []State

// NewPrivateTable creates an all-Invalid private table over the lines a
// NewImage of the layout would cover at this point.
func NewPrivateTable(lay *Layout) PrivateTable {
	return make(PrivateTable, lay.imageBytes()>>lay.lineShift)
}

// Get returns the private state of line li.
func (t PrivateTable) Get(li int) State { return t[li] }

// Set sets the private state of line li.
func (t PrivateTable) Set(li int, s State) { t[li] = s }

// SetBlock sets the private state of a whole block.
func (t PrivateTable) SetBlock(lay *Layout, baseLine int, s State) {
	n := int(lay.blockLines[baseLine])
	for i := 0; i < n; i++ {
		t[baseLine+i] = s
	}
}
