package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitEven(t *testing.T) {
	got := SplitEven(10, 3)
	want := []int{0, 4, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("SplitEven(10,3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitEven(10,3) = %v, want %v", got, want)
		}
	}
	// Pieces differ by at most one element.
	f := func(n uint16, parts uint8) bool {
		p := int(parts%64) + 1
		s := SplitEven(int(n%4096), p)
		lo, hi := 1<<30, -1
		for i := 0; i < p; i++ {
			d := s[i+1] - s[i]
			lo, hi = min(lo, d), max(hi, d)
		}
		return s[0] == 0 && s[p] == int(n%4096) && hi-lo <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlabsTile(t *testing.T) {
	domain := Box2(0, 0, 100, 37)
	for _, count := range []int{1, 2, 3, 5, 37} {
		slabs := Slabs(domain, 1, count)
		if len(slabs) != count {
			t.Fatalf("Slabs returned %d boxes, want %d", len(slabs), count)
		}
		if err := VerifyTilingOwned(domain, slabs, nil); err != nil {
			t.Errorf("Slabs(%d): %v", count, err)
		}
	}
}

func TestFactor2(t *testing.T) {
	cases := []struct{ n, r, c int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4}, {32, 4, 8}, {7, 1, 7},
	}
	for _, c := range cases {
		r, col := Factor2(c.n)
		if r != c.r || col != c.c {
			t.Errorf("Factor2(%d) = %d,%d; want %d,%d", c.n, r, col, c.r, c.c)
		}
	}
}

func TestFactor3(t *testing.T) {
	cases := []struct{ n, x, y, z int }{
		{27, 3, 3, 3}, {64, 4, 4, 4}, {125, 5, 5, 5}, {216, 6, 6, 6},
		{8, 2, 2, 2}, {12, 2, 2, 3}, {1, 1, 1, 1}, {30, 2, 3, 5},
	}
	for _, c := range cases {
		x, y, z := Factor3(c.n)
		if x*y*z != c.n {
			t.Fatalf("Factor3(%d) = %d,%d,%d does not multiply back", c.n, x, y, z)
		}
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("Factor3(%d) = %d,%d,%d; want %d,%d,%d", c.n, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestGrid2DTiles(t *testing.T) {
	domain := Box2(0, 0, 3238, 1295)
	rows, cols := Factor2(32)
	boxes := Grid2D(domain, rows, cols)
	if len(boxes) != 32 {
		t.Fatalf("Grid2D returned %d boxes", len(boxes))
	}
	if err := VerifyTilingOwned(domain, boxes, nil); err != nil {
		t.Error(err)
	}
}

func TestBricks3DTiles(t *testing.T) {
	domain := Box3(0, 0, 0, 64, 32, 64)
	for _, n := range []int{27, 64, 8} {
		x, y, z := Factor3(n)
		boxes := Bricks3D(domain, x, y, z)
		if err := VerifyTilingOwned(domain, boxes, nil); err != nil {
			t.Errorf("Bricks3D(%d): %v", n, err)
		}
	}
}

func TestRoundRobinSlices(t *testing.T) {
	domain := Box3(0, 0, 0, 16, 8, 10)
	per := RoundRobinSlices(domain, 2, 4)
	var all []Box
	for r, chunks := range per {
		for i, c := range chunks {
			if c.Dims[2] != 1 {
				t.Errorf("rank %d chunk %d thickness %d, want 1", r, i, c.Dims[2])
			}
			if c.Offset[2]%4 != r {
				t.Errorf("slice %d assigned to rank %d, not round-robin", c.Offset[2], r)
			}
		}
		all = append(all, chunks...)
	}
	if err := VerifyTilingOwned(domain, all, nil); err != nil {
		t.Error(err)
	}
	// 10 slices over 4 ranks: ranks 0,1 get 3 slices; ranks 2,3 get 2.
	if len(per[0]) != 3 || len(per[1]) != 3 || len(per[2]) != 2 || len(per[3]) != 2 {
		t.Errorf("chunk counts %d,%d,%d,%d", len(per[0]), len(per[1]), len(per[2]), len(per[3]))
	}
}

func TestConsecutiveSlices(t *testing.T) {
	domain := Box3(0, 0, 0, 16, 8, 10)
	per := ConsecutiveSlices(domain, 2, 4)
	var all []Box
	for r, chunks := range per {
		if len(chunks) != 1 {
			t.Fatalf("rank %d owns %d chunks, want 1", r, len(chunks))
		}
		all = append(all, chunks...)
	}
	if err := VerifyTilingOwned(domain, all, nil); err != nil {
		t.Error(err)
	}
	// More ranks than slices: some ranks own nothing.
	per = ConsecutiveSlices(Box3(0, 0, 0, 4, 4, 2), 2, 5)
	owners := 0
	for _, chunks := range per {
		owners += len(chunks)
	}
	if owners != 2 {
		t.Errorf("2 slices over 5 ranks produced %d chunks", owners)
	}
}

func TestVerifyTilingDetectsErrors(t *testing.T) {
	domain := Box2(0, 0, 8, 8)
	if err := VerifyTilingOwned(domain, []Box{Box2(0, 0, 8, 4), Box2(0, 4, 8, 4)}, nil); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
	err := VerifyTilingOwned(domain, []Box{Box2(0, 0, 8, 5), Box2(0, 4, 8, 4)}, nil)
	if ce, ok := err.(*CoverageError); !ok || len(ce.Overlaps) == 0 {
		t.Errorf("overlap not detected: %v", err)
	} else if p := ce.Overlaps[0]; p.Boxes != [2]int{0, 1} || p.Owners != [2]int{-1, -1} {
		t.Errorf("wrong pair attribution: %+v", p)
	}
	err = VerifyTilingOwned(domain, []Box{Box2(0, 0, 8, 5), Box2(0, 4, 8, 4)}, []int{3, 7})
	if ce, ok := err.(*CoverageError); !ok || len(ce.Overlaps) != 1 {
		t.Errorf("owned overlap not detected: %v", err)
	} else if p := ce.Overlaps[0]; p.Owners != [2]int{3, 7} || !p.Region.Equal(Box2(0, 4, 8, 1)) {
		t.Errorf("wrong owned pair: %+v", p)
	}
	err = VerifyTilingOwned(domain, []Box{Box2(0, 0, 8, 4), Box2(0, 4, 9, 4)}, nil)
	if ce, ok := err.(*CoverageError); !ok || ce.Escapee == nil {
		t.Errorf("escapee not detected: %v", err)
	}
	err = VerifyTilingOwned(domain, []Box{Box2(0, 0, 8, 4)}, nil)
	if ce, ok := err.(*CoverageError); !ok || ce.Shortage != 32 {
		t.Errorf("shortage not detected: %v", err)
	}
}

func TestRandomTilingAlwaysTiles(t *testing.T) {
	f := func(seed int64, parts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		domain := Box3(0, 0, 0, 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12))
		n := int(parts%32) + 1
		boxes := RandomTiling(rng, domain, n)
		if err := VerifyTilingOwned(domain, boxes, nil); err != nil {
			t.Logf("seed %d parts %d: %v", seed, n, err)
			return false
		}
		want := n
		if domain.Volume() < want {
			want = domain.Volume()
		}
		return len(boxes) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomBoxInStaysInside(t *testing.T) {
	domain := Box2(3, -2, 17, 9)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		b := RandomBoxIn(rng, domain)
		if b.Empty() || !domain.Contains(b) {
			t.Fatalf("RandomBoxIn produced %v outside %v", b, domain)
		}
	}
}
