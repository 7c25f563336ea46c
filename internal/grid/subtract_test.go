package grid

import (
	"math/rand"
	"testing"
)

// checkSubtract verifies the SubtractAppend contract cell by cell: the result
// boxes are disjoint, lie inside a, avoid b, and together cover every
// cell of a outside b.
func checkSubtract(t *testing.T, a, b Box) {
	t.Helper()
	out := SubtractAppend(nil, a, b)
	if len(out) > 2*a.NDims {
		t.Fatalf("SubtractAppend(nil, %v, %v) produced %d boxes, max is %d", a, b, len(out), 2*a.NDims)
	}
	covered := map[[MaxDims]int]int{}
	for _, box := range out {
		if !a.Contains(box) {
			t.Fatalf("SubtractAppend(nil, %v, %v): piece %v escapes a", a, b, box)
		}
		if box.Overlaps(b) {
			t.Fatalf("SubtractAppend(nil, %v, %v): piece %v overlaps b", a, b, box)
		}
		forEachPoint(box, func(p [MaxDims]int) { covered[p]++ })
	}
	forEachPoint(a, func(p [MaxDims]int) {
		want := 1
		if b.ContainsPoint(p) {
			want = 0
		}
		if covered[p] != want {
			t.Fatalf("SubtractAppend(nil, %v, %v): cell %v covered %d times, want %d", a, b, p, covered[p], want)
		}
	})
}

func forEachPoint(b Box, f func(p [MaxDims]int)) {
	dims := [MaxDims]int{1, 1, 1}
	for i := 0; i < b.NDims; i++ {
		dims[i] = b.Dims[i]
	}
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				f([MaxDims]int{b.Offset[0] + x, b.Offset[1] + y, b.Offset[2] + z})
			}
		}
	}
}

func TestSubtractCases(t *testing.T) {
	cases := []struct{ a, b Box }{
		{Box1(0, 8), Box1(2, 3)},                         // middle cut
		{Box1(0, 8), Box1(0, 8)},                         // full cover
		{Box1(0, 8), Box1(10, 2)},                        // disjoint
		{Box1(0, 8), Box1(-2, 4)},                        // left overhang
		{Box2(0, 0, 6, 6), Box2(2, 2, 2, 2)},             // hole
		{Box2(0, 0, 6, 6), Box2(4, 4, 8, 8)},             // corner
		{Box3(0, 0, 0, 4, 4, 4), Box3(1, 1, 1, 2, 2, 2)}, // 3D hole
		{Box3(0, 0, 0, 4, 4, 4), Box3(0, 0, 2, 4, 4, 4)}, // z slab
	}
	for _, tc := range cases {
		checkSubtract(t, tc.a, tc.b)
	}
	if got := SubtractAppend(nil, Box1(0, 8), Box1(0, 8)); len(got) != 0 {
		t.Fatalf("full cover left %v", got)
	}
	if got := SubtractAppend(nil, Box1(0, 8), Box1(9, 2)); len(got) != 1 || !got[0].Equal(Box1(0, 8)) {
		t.Fatalf("disjoint subtract = %v, want the original box", got)
	}
}

func TestSubtractRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		nd := 1 + rng.Intn(3)
		randBox := func() Box {
			off := make([]int, nd)
			dims := make([]int, nd)
			for d := 0; d < nd; d++ {
				off[d] = rng.Intn(9) - 4
				dims[d] = 1 + rng.Intn(6)
			}
			return MustBox(off, dims)
		}
		checkSubtract(t, randBox(), randBox())
	}
}
