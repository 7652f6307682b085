package memory

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestAllocBasic(t *testing.T) {
	l := NewLayout(64, 1<<20)
	a, err := l.Alloc(1000, 0) // <1024: single block of the whole object
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Fatalf("first alloc at %d, want 0", a)
	}
	base, lines := l.BlockOf(a + 500)
	if base != 0 || lines != 16 { // 1000 rounded to 16 lines (1024 bytes)
		t.Fatalf("BlockOf = (%d,%d), want (0,16)", base, lines)
	}
}

func TestAllocDefaultGranularityLargeObject(t *testing.T) {
	l := NewLayout(64, 1<<20)
	a, err := l.Alloc(8192, 0) // >=1024: line-sized blocks
	if err != nil {
		t.Fatal(err)
	}
	_, lines := l.BlockOf(a)
	if lines != 1 {
		t.Fatalf("large object block lines = %d, want 1", lines)
	}
}

func TestAllocVariableGranularity(t *testing.T) {
	l := NewLayout(64, 1<<20)
	a, err := l.Alloc(8192, 2048)
	if err != nil {
		t.Fatal(err)
	}
	base, lines := l.BlockOf(a + 2048 + 5)
	if lines != 32 {
		t.Fatalf("block lines = %d, want 32 (2048/64)", lines)
	}
	if l.LineAddr(base) != a+2048 {
		t.Fatalf("second block base addr = %d, want %d", l.LineAddr(base), a+2048)
	}
}

func TestAllocAlignmentAndAdjacency(t *testing.T) {
	l := NewLayout(64, 1<<20)
	a1, _ := l.Alloc(100, 0) // one 128-byte block (2 lines)
	a2, _ := l.Alloc(64, 64) // one line
	if a2 != a1+128 {
		t.Fatalf("second alloc at %d, want %d", a2, a1+128)
	}
	b1, _ := l.BlockOf(a1)
	b2, _ := l.BlockOf(a2)
	if b1 == b2 {
		t.Fatal("distinct allocations share a block")
	}
}

func TestAllocExhaustion(t *testing.T) {
	l := NewLayout(64, 1024)
	if _, err := l.Alloc(2048, 64); err == nil {
		t.Fatal("expected heap exhaustion error")
	}
	if _, err := l.Alloc(-1, 64); err == nil {
		t.Fatal("expected error for negative size")
	}
}

// pageLayout returns a one-page heap with the page allocated, so an image of
// it covers all 4096 bytes.
func pageLayout(t testing.TB) *Layout {
	l := NewLayout(64, 4096)
	if _, err := l.Alloc(4096, 64); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestImageStartsFlagFilled(t *testing.T) {
	img := NewImage(pageLayout(t))
	for a := Addr(0); a < 4096; a += 4 {
		if !img.HasFlagWord(a) {
			t.Fatalf("address %d not flag-filled at start", a)
		}
	}
	if img.State(0) != Invalid {
		t.Fatal("lines should start Invalid")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	img := NewImage(pageLayout(t))
	img.WriteF64(8, 3.25)
	if got := img.ReadF64(8); got != 3.25 {
		t.Fatalf("ReadF64 = %v", got)
	}
	img.WriteU32(100, 0xCAFE)
	if got := img.ReadU32(100); got != 0xCAFE {
		t.Fatalf("ReadU32 = %#x", got)
	}
	img.WriteU64(200, 1<<40)
	if got := img.ReadU64(200); got != 1<<40 {
		t.Fatalf("ReadU64 = %d", got)
	}
}

func TestFillFlagAndCopyIn(t *testing.T) {
	l := NewLayout(64, 4096)
	a, _ := l.Alloc(128, 128)
	img := NewImage(l)
	base, _ := l.BlockOf(a)
	img.WriteF64(a, 42.0)
	img.FillFlag(base)
	if !img.HasFlagWord(a) {
		t.Fatal("FillFlag did not store the flag")
	}
	fresh := make([]byte, 128)
	for i := range fresh {
		fresh[i] = byte(i)
	}
	img.CopyBlockIn(base, fresh)
	got := img.BlockData(base)
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("byte %d = %d after CopyBlockIn", i, got[i])
		}
	}
}

func TestBlockStateCoversWholeBlock(t *testing.T) {
	l := NewLayout(64, 4096)
	a, _ := l.Alloc(256, 256) // 4-line block
	img := NewImage(l)
	base, lines := l.BlockOf(a)
	img.SetBlockState(base, Exclusive)
	for i := 0; i < lines; i++ {
		if img.State(base+i) != Exclusive {
			t.Fatalf("line %d state = %v", base+i, img.State(base+i))
		}
	}
	if img.BlockState(a+200) != Exclusive {
		t.Fatal("BlockState on interior address wrong")
	}
}

func TestFlagF64Pattern(t *testing.T) {
	bits := math.Float64bits(FlagF64)
	if uint32(bits) != FlagWord || uint32(bits>>32) != FlagWord {
		t.Fatalf("FlagF64 bits = %#x, want both halves %#x", bits, FlagWord)
	}
}

func TestPrivateTable(t *testing.T) {
	l := NewLayout(64, 4096)
	a, _ := l.Alloc(256, 256)
	pt := NewPrivateTable(l)
	base, lines := l.BlockOf(a)
	if pt.Get(base) != Invalid {
		t.Fatal("private table should start Invalid")
	}
	pt.SetBlock(l, base, Shared)
	for i := 0; i < lines; i++ {
		if pt.Get(base+i) != Shared {
			t.Fatalf("line %d private state = %v", base+i, pt.Get(base+i))
		}
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E",
		PendingRead: "Pr", PendingExcl: "Px", PendingDowngrade: "Pd",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !Shared.Valid() || !Exclusive.Valid() || Invalid.Valid() || PendingRead.Valid() {
		t.Error("Valid() classification wrong")
	}
}

// Property: every address within an allocation maps to a block fully
// contained in that allocation, block bases are block-size aligned relative
// to the allocation start, and all lines of a block agree on their base.
func TestQuickBlockMapping(t *testing.T) {
	f := func(sz, bsz uint16, probe uint16) bool {
		size := int64(sz%5000) + 1
		blockSize := int(bsz%1024) + 1
		l := NewLayout(64, 1<<20)
		a, err := l.Alloc(size, blockSize)
		if err != nil {
			return false
		}
		off := int64(probe) % size
		base, lines := l.BlockOf(a + Addr(off))
		baseAddr := l.LineAddr(base)
		// Block contains the address.
		if baseAddr > a+Addr(off) || baseAddr+Addr(lines*64) <= a+Addr(off) {
			return false
		}
		// All lines in the block agree.
		for i := 0; i < lines; i++ {
			b2, n2 := l.BlockOf(baseAddr + Addr(i*64))
			if b2 != base || n2 != lines {
				return false
			}
		}
		// Block length covers the rounded block size.
		bLines := (blockSize + 63) / 64
		return lines == bLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: data written with WriteU32 at a flag-free location never reads
// back as the flag unless the written value is the flag itself.
func TestQuickFlagDetection(t *testing.T) {
	l := pageLayout(t)
	f := func(v uint32, off uint8) bool {
		img := NewImage(l)
		addr := Addr(int(off)%1000) &^ 3
		img.WriteU32(addr, v)
		return img.HasFlagWord(addr) == (v == FlagWord)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestImageCoversTheAllocatedPrefix pins what an image costs: the pages
// allocated when it is built, whatever the capacity.
func TestImageCoversTheAllocatedPrefix(t *testing.T) {
	for _, heap := range []int64{1 << 20, 64 << 20} {
		l := NewLayout(64, heap)
		if n := len(NewImage(l).data) + len(NewPrivateTable(l)) + l.UsedLines(); n != 0 {
			t.Errorf("heap %d: empty layout built %d bytes and lines", heap, n)
		}
		l.Alloc(100, 0)
		l.AlignToPage()
		l.Alloc(5000, 64)
		img, pt := NewImage(l), NewPrivateTable(l)
		if len(img.data) != 3*PageSize || len(img.state) != 3*PageSize/64 || len(pt) != len(img.state) {
			t.Errorf("heap %d: image %d B, %d states, private %d; want 3 pages",
				heap, len(img.data), len(img.state), len(pt))
		}
		if want := (PageSize + 5056) / 64; l.UsedLines() != want {
			t.Errorf("heap %d: layout describes %d lines, want %d", heap, l.UsedLines(), want)
		}
		// The alignment gap is in range and unallocated.
		if l.InHeap(2048, 8) || !l.InHeap(PageSize+5000, 8) {
			t.Errorf("heap %d: InHeap wrong around the alignment gap", heap)
		}
		if base, lines := l.BlockOf(2048); base != 32 || lines != 1 {
			t.Errorf("heap %d: gap line is block (%d,%d), want (32,1)", heap, base, lines)
		}
	}
}

// TestFillPatternIsFlagWordEverywhere checks the 8-byte and doubling-copy
// fills against the definition — every longword is the flag — over block
// sizes on both sides of the seed, odd line counts, and a length that is a
// multiple of 4 but not of 8.
func TestFillPatternIsFlagWordEverywhere(t *testing.T) {
	check := func(name string, b []byte) {
		t.Helper()
		for i := 0; i+4 <= len(b); i += 4 {
			if got := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24; got != FlagWord {
				t.Fatalf("%s: longword at %d = %#x", name, i, got)
			}
		}
	}
	for _, n := range []int{0, 4, 8, 12, 60, 64, 68, 100, 128, 132, 1 << 10, 4096 + 4, 3 * 4096} {
		b := make([]byte, n+8)
		fillFlag(b[4 : 4+n])
		check(fmt.Sprintf("fillFlag(%d)", n), b[4:4+n])
		for _, i := range []int{0, 1, 2, 3, n + 4, n + 5, n + 6, n + 7} {
			if b[i] != 0 {
				t.Fatalf("fillFlag(%d) wrote outside its range at %d", n, i-4)
			}
		}
	}
	for _, lineSize := range []int{8, 64, 128} {
		for _, blockLines := range []int{1, 2, 3, 5, 7, 17, 33} {
			l := NewLayout(lineSize, 1<<20)
			bs := blockLines * lineSize
			a, err := l.Alloc(int64(3*bs), bs)
			if err != nil {
				t.Fatal(err)
			}
			img := NewImage(l)
			check(fmt.Sprintf("NewImage line %d", lineSize), img.data)
			for i := range img.data {
				img.data[i] = 0
			}
			mid, _ := l.BlockOf(a + Addr(bs))
			img.FillFlag(mid)
			check(fmt.Sprintf("FillFlag %dx%d", blockLines, lineSize), img.BlockData(mid))
			for i, v := range img.data {
				if in := i >= bs && i < 2*bs; !in && v != 0 {
					t.Fatalf("FillFlag %dx%d wrote byte %d outside the block", blockLines, lineSize, i)
				}
			}
		}
	}
}
