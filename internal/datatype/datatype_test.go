package datatype

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"ddr/internal/grid"
)

// fillPattern writes a distinct byte pattern derived from the element's
// global coordinates into a local array buffer.
func fillPattern(buf []byte, array grid.Box, elemSize int) {
	w := array.Dims[0]
	h := array.Dims[1]
	idx := 0
	for z := 0; z < array.Dims[2]; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				gx := array.Offset[0] + x
				gy := array.Offset[1] + y
				gz := array.Offset[2] + z
				v := uint32(gx + 1000*gy + 1000000*gz)
				for b := 0; b < elemSize; b++ {
					buf[idx*elemSize+b] = byte(v >> (8 * (b % 4)))
				}
				idx++
			}
		}
	}
}

func TestNewSubarrayValidation(t *testing.T) {
	arr := grid.Box2(0, 0, 8, 8)
	if _, err := NewSubarray(0, arr, grid.Box2(0, 0, 2, 2)); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := NewSubarray(4, arr, grid.Box1(0, 2)); err == nil {
		t.Error("dimensionality mismatch accepted")
	}
	if _, err := NewSubarray(4, arr, grid.Box2(6, 6, 4, 4)); err == nil {
		t.Error("out-of-bounds sub-region accepted")
	}
	s, err := NewSubarray(4, arr, grid.Box2(4, 0, 4, 4))
	if err != nil {
		t.Fatalf("NewSubarray: %v", err)
	}
	if s.PackedSize() != 4*4*4 {
		t.Errorf("PackedSize = %d, want 64", s.PackedSize())
	}
}

func TestPackE1Row(t *testing.T) {
	// E1 from the paper: rank 0 owns row y=0 of an 8x8 float32 domain and
	// must send its right half (x in [4,8)) to rank 1.
	chunk := grid.Box2(0, 0, 8, 1)
	overlap := grid.Box2(4, 0, 4, 1)
	s, err := NewSubarray(4, chunk, overlap)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]byte, 8*4)
	for x := 0; x < 8; x++ {
		binary.LittleEndian.PutUint32(local[4*x:], uint32(x))
	}
	wire := make([]byte, s.PackedSize())
	if n := s.Pack(local, wire); n != 16 {
		t.Fatalf("Pack wrote %d bytes, want 16", n)
	}
	for i := 0; i < 4; i++ {
		if got := binary.LittleEndian.Uint32(wire[4*i:]); got != uint32(4+i) {
			t.Errorf("wire[%d] = %d, want %d", i, got, 4+i)
		}
	}
}

func TestUnpackIntoQuadrant(t *testing.T) {
	// Receiving side of E1: rank 0 needs quadrant (0,0)+(4,4) and receives
	// the sub-row (0,1)+(4,1) from rank 1.
	need := grid.Box2(0, 0, 4, 4)
	overlap := grid.Box2(0, 1, 4, 1)
	s, err := NewSubarray(1, need, overlap)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]byte, need.Volume())
	wire := []byte{0xA, 0xB, 0xC, 0xD}
	if n := s.Unpack(wire, local); n != 4 {
		t.Fatalf("Unpack consumed %d bytes, want 4", n)
	}
	// Row y=1 of the 4x4 buffer is elements 4..7.
	if !bytes.Equal(local[4:8], wire) {
		t.Errorf("row 1 = %v, want %v", local[4:8], wire)
	}
	for _, i := range []int{0, 3, 8, 15} {
		if local[i] != 0 {
			t.Errorf("element %d disturbed: %d", i, local[i])
		}
	}
}

func TestPackUnpackRoundTrip3D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		elemSize := []int{1, 2, 4, 8}[rng.Intn(4)]
		array := grid.Box3(rng.Intn(5), rng.Intn(5), rng.Intn(5),
			1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9))
		sub := grid.RandomBoxIn(rng, array)
		s, err := NewSubarray(elemSize, array, sub)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		src := make([]byte, array.Volume()*elemSize)
		fillPattern(src, array, elemSize)
		wire := make([]byte, s.PackedSize())
		if s.Pack(src, wire) != s.PackedSize() {
			return false
		}
		// Unpack into a zeroed buffer of the same geometry; the sub-region
		// must match src exactly and everything else must stay zero.
		dst := make([]byte, len(src))
		if s.Unpack(wire, dst) != s.PackedSize() {
			return false
		}
		w, h := array.Dims[0], array.Dims[1]
		for z := 0; z < array.Dims[2]; z++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					idx := (((z*h)+y)*w + x) * elemSize
					p := [3]int{array.Offset[0] + x, array.Offset[1] + y, array.Offset[2] + z}
					inside := sub.ContainsPoint(p)
					for b := 0; b < elemSize; b++ {
						if inside && dst[idx+b] != src[idx+b] {
							return false
						}
						if !inside && dst[idx+b] != 0 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPackFullArrayIsIdentity(t *testing.T) {
	array := grid.Box2(2, 3, 7, 5)
	s, err := NewSubarray(2, array, array)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, array.Volume()*2)
	fillPattern(src, array, 2)
	wire := make([]byte, s.PackedSize())
	s.Pack(src, wire)
	if !bytes.Equal(wire, src) {
		t.Error("packing the whole array should be a straight copy")
	}
}

func TestEmptySubarray(t *testing.T) {
	array := grid.Box1(0, 10)
	s, err := NewSubarray(4, array, grid.Box1(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.PackedSize() != 0 {
		t.Errorf("PackedSize = %d, want 0", s.PackedSize())
	}
	if n := s.Pack(make([]byte, 40), nil); n != 0 {
		t.Errorf("Pack = %d, want 0", n)
	}
}

func TestContiguous(t *testing.T) {
	c := Contiguous{Bytes: 6}
	src := []byte{1, 2, 3, 4, 5, 6, 7}
	wire := make([]byte, 6)
	if n := c.Pack(src, wire); n != 6 {
		t.Fatalf("Pack = %d", n)
	}
	dst := make([]byte, 7)
	if n := c.Unpack(wire, dst); n != 6 {
		t.Fatalf("Unpack = %d", n)
	}
	if !bytes.Equal(dst[:6], src[:6]) || dst[6] != 0 {
		t.Errorf("dst = %v", dst)
	}
}

func TestEmptyType(t *testing.T) {
	var e Empty
	if e.PackedSize() != 0 || e.Pack(nil, nil) != 0 || e.Unpack(nil, nil) != 0 {
		t.Error("Empty type moved bytes")
	}
}

// randomSubarray builds a valid random Subarray within a small 3D array.
func randomSubarray(rng *rand.Rand) *Subarray {
	dims := [3]int{1 + rng.Intn(12), 1 + rng.Intn(10), 1 + rng.Intn(8)}
	array := grid.Box{NDims: 3, Dims: [grid.MaxDims]int{dims[0], dims[1], dims[2]}}
	var sub grid.Box
	sub.NDims = 3
	for d := 0; d < 3; d++ {
		sub.Offset[d] = rng.Intn(dims[d])
		sub.Dims[d] = 1 + rng.Intn(dims[d]-sub.Offset[d])
	}
	elem := []int{1, 2, 4, 8}[rng.Intn(4)]
	s, err := NewSubarray(elem, array, sub)
	if err != nil {
		panic(err)
	}
	return s
}

// TestAppendRunsMatchesPack: for every Type, the runs its Runs cursor
// returns, concatenated, are exactly Pack's wire bytes — what a vectored
// write of the runs puts on the wire — and each run is non-empty and
// aliases local.
func TestAppendRunsMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(name string, ty Type, local []byte) {
		t.Helper()
		want := make([]byte, ty.PackedSize())
		ty.Pack(local, want)
		lo := uintptr(unsafe.Pointer(&local[0]))
		var got []byte
		for cursor := ty.Runs(local); ; {
			run := cursor.Next()
			if run == nil {
				break
			}
			at := uintptr(unsafe.Pointer(unsafe.SliceData(run)))
			if len(run) == 0 || at < lo || at+uintptr(len(run)) > lo+uintptr(len(local)) {
				t.Fatalf("%s: run of %d bytes does not alias local", name, len(run))
			}
			got = append(got, run...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: runs carry %d bytes, pack %d, or they differ", name, len(got), len(want))
		}
	}
	for trial := 0; trial < 200; trial++ {
		s := randomSubarray(rng)
		local := make([]byte, s.Array.Volume()*s.ElemSize)
		rng.Read(local)
		check(s.String(), s, local)
	}
	local := make([]byte, 64)
	rng.Read(local)
	check("contiguous", Contiguous{Bytes: 40}, local)
	if cursor := (Contiguous{}).Runs(local); cursor.Next() != nil {
		t.Fatal("an empty Contiguous's Runs cursor has a run")
	}
	if cursor := (Empty{}).Runs(local); cursor.Next() != nil {
		t.Fatal("Empty's Runs cursor has a run")
	}
}

// offsetTable is the reference BenchmarkPackUnpack measures the Subarray
// stride loop against, not a kernel: one precomputed local offset per
// row, walked by a flat loop of equal-length copies.
type offsetTable struct {
	offs []int
	run  int
}

func newOffsetTable(s *Subarray) offsetTable {
	t := offsetTable{run: s.run}
	for z := 0; z < s.nz; z++ {
		for y := 0; y < s.ny; y++ {
			t.offs = append(t.offs, s.start+z*s.strideZ+y*s.strideY)
		}
	}
	return t
}

func (t offsetTable) pack(local, wire []byte) {
	for i, off := range t.offs {
		copy(wire[i*t.run:(i+1)*t.run], local[off:off+t.run])
	}
}

func (t offsetTable) unpack(wire, local []byte) {
	for i, off := range t.offs {
		copy(local[off:off+t.run], wire[i*t.run:(i+1)*t.run])
	}
}

// BenchmarkPackUnpack is the per-geometry table of the one gather
// kernel: the Subarray stride loop against the offset-table reference,
// packing and unpacking 2-D and 3-D regions of 4 KiB and 64 KiB whose
// rows hold 1 to 4096 elements of 8 B. Each row sits in an array twice
// its width (and, in 3-D, one row taller than the region), so every
// region is strided. Rows wider than half the region are skipped.
func BenchmarkPackUnpack(b *testing.B) {
	const elem = 8
	for _, nd := range []int{2, 3} {
		for _, region := range []int{4 << 10, 64 << 10} {
			for _, row := range []int{1, 4, 16, 64, 256, 1024, 4096} {
				rows := region / (row * elem)
				if rows < 2 {
					continue
				}
				array, sub := grid.Box2(0, 0, 2*row, rows), grid.Box2(row/2, 0, row, rows)
				if nd == 3 {
					array, sub = grid.Box3(0, 0, 0, 2*row, rows/2+1, 2), grid.Box3(row/2, 1, 0, row, rows/2, 2)
				}
				s, err := NewSubarray(elem, array, sub)
				if err != nil {
					b.Fatal(err)
				}
				local := make([]byte, array.Volume()*elem)
				wire := make([]byte, s.PackedSize())
				tab := newOffsetTable(s)
				for _, k := range []struct {
					name string
					move func()
				}{
					{"pack/subarray", func() { s.Pack(local, wire) }},
					{"pack/offsets", func() { tab.pack(local, wire) }},
					{"unpack/subarray", func() { s.Unpack(wire, local) }},
					{"unpack/offsets", func() { tab.unpack(wire, local) }},
				} {
					b.Run(fmt.Sprintf("%dd/%dKiB/row=%d/%s", nd, region>>10, row, k.name), func(b *testing.B) {
						b.SetBytes(int64(region))
						for i := 0; i < b.N; i++ {
							k.move()
						}
					})
				}
			}
		}
	}
}
