package datatype

import (
	"bytes"
	"math/rand"
	"testing"

	"ddr/internal/grid"
)

// regionMask scatters 0xFF through the region into a zeroed local array,
// yielding the exact byte footprint of the type.
func regionMask(t Type, localBytes int) []byte {
	local := make([]byte, localBytes)
	wire := make([]byte, t.PackedSize())
	for i := range wire {
		wire[i] = 0xFF
	}
	t.Unpack(wire, local)
	return local
}

// TestContiguousSpanProperty checks ContiguousSpan against ground truth
// on random subarrays: ok must hold exactly when the region's byte
// footprint is one contiguous interval, and when it does, the packed wire
// must equal local[off : off+n] verbatim.
func TestContiguousSpanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = 1 + rng.Intn(6)
		}
		array := grid.MustBox(make([]int, nd), dims)
		sub := grid.RandomBoxIn(rng, array)
		elemSize := 1 + rng.Intn(4)
		s, err := NewSubarray(elemSize, array, sub)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		localBytes := array.Volume() * elemSize
		mask := regionMask(s, localBytes)
		// Ground truth: is the footprint one contiguous interval?
		first, last, count := -1, -1, 0
		for i, b := range mask {
			if b == 0xFF {
				if first < 0 {
					first = i
				}
				last = i
				count++
			}
		}
		contiguous := count > 0 && last-first+1 == count
		off, n, ok := s.ContiguousSpan()
		if ok != contiguous {
			t.Fatalf("trial %d: %v reports ok=%v, footprint contiguous=%v", trial, s, ok, contiguous)
		}
		if !ok {
			continue
		}
		if off != first || n != count {
			t.Fatalf("trial %d: %v span (%d,%d), footprint (%d,%d)", trial, s, off, n, first, count)
		}
		// The wire representation is the local sub-slice verbatim.
		local := make([]byte, localBytes)
		for i := range local {
			local[i] = byte(rng.Intn(256))
		}
		wire := make([]byte, s.PackedSize())
		s.Pack(local, wire)
		if !bytes.Equal(wire, local[off:off+n]) {
			t.Fatalf("trial %d: %v packed wire differs from local[%d:%d]", trial, s, off, off+n)
		}
	}
}

func TestContiguousSpanKnownCases(t *testing.T) {
	array := grid.Box2(0, 0, 8, 6)
	cases := []struct {
		sub grid.Box
		ok  bool
	}{
		{grid.Box2(0, 0, 8, 6), true},  // whole array
		{grid.Box2(0, 2, 8, 3), true},  // full-width band
		{grid.Box2(2, 3, 5, 1), true},  // single row segment
		{grid.Box2(2, 0, 5, 1), true},  // segment of first row
		{grid.Box2(0, 0, 4, 6), false}, // column strip
		{grid.Box2(1, 1, 6, 4), false}, // interior box
		{grid.Box2(2, 3, 5, 2), false}, // two partial rows
	}
	for _, tc := range cases {
		s, err := NewSubarray(4, array, tc.sub)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.ContiguousSpan(); ok != tc.ok {
			t.Errorf("%v: ContiguousSpan ok=%v, want %v", tc.sub, ok, tc.ok)
		}
	}
	if off, n, ok := (Contiguous{Bytes: 40}).ContiguousSpan(); !ok || off != 0 || n != 40 {
		t.Errorf("Contiguous span (%d,%d,%v)", off, n, ok)
	}
	if _, _, ok := (Empty{}).ContiguousSpan(); !ok {
		t.Error("Empty must be contiguous")
	}
}

// TestForkJoin verifies the fork-join runner matches serial execution for
// every pool size, with items of uneven size.
func TestForkJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	array := grid.Box2(0, 0, 64, 64)
	local := make([]byte, array.Volume())
	for i := range local {
		local[i] = byte(rng.Intn(256))
	}
	var types []*Subarray
	var wires, serial [][]byte
	for i := 0; i < 13; i++ {
		s, err := NewSubarray(1, array, grid.RandomBoxIn(rng, array))
		if err != nil {
			t.Fatal(err)
		}
		w := make([]byte, s.PackedSize())
		s.Pack(local, w)
		types = append(types, s)
		serial = append(serial, w)
		wires = append(wires, make([]byte, len(w)))
	}
	for _, par := range []int{0, 1, 2, 8, 100} {
		for i := range wires {
			clear(wires[i])
		}
		ForkJoin(len(types), par, func(i int) { types[i].Pack(local, wires[i]) })
		for i := range wires {
			if !bytes.Equal(wires[i], serial[i]) {
				t.Fatalf("par %d: item %d output differs from serial", par, i)
			}
		}
	}
	ForkJoin(0, 4, func(int) { t.Error("empty batch ran an item") })
}
