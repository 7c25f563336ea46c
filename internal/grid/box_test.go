package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox([]int{0}, []int{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewBox(nil, nil); err == nil {
		t.Error("zero-dimensional box accepted")
	}
	if _, err := NewBox([]int{0, 0, 0, 0}, []int{1, 1, 1, 1}); err == nil {
		t.Error("4D box accepted")
	}
	if _, err := NewBox([]int{0}, []int{-1}); err == nil {
		t.Error("negative extent accepted")
	}
	b, err := NewBox([]int{3, 4}, []int{5, 6})
	if err != nil {
		t.Fatalf("NewBox: %v", err)
	}
	if b.NDims != 2 || b.Offset != [3]int{3, 4, 0} || b.Dims != [3]int{5, 6, 1} {
		t.Errorf("unexpected box %+v", b)
	}
}

func TestVolume(t *testing.T) {
	cases := []struct {
		b    Box
		want int
	}{
		{Box1(5, 7), 7},
		{Box2(0, 0, 8, 8), 64},
		{Box3(1, 2, 3, 4, 5, 6), 120},
		{Box2(0, 0, 0, 9), 0},
	}
	for _, c := range cases {
		if got := c.b.Volume(); got != c.want {
			t.Errorf("%v.Volume() = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Box2(0, 0, 8, 1)
	need := Box2(4, 0, 4, 4)
	got, ok := a.Intersect(need)
	if !ok || !got.Equal(Box2(4, 0, 4, 1)) {
		t.Errorf("Intersect = %v, %v; want (4,0)+(4,1), true", got, ok)
	}
	if _, ok := Box2(0, 0, 4, 4).Intersect(Box2(4, 4, 4, 4)); ok {
		t.Error("disjoint quadrants reported overlapping")
	}
	// Touching edges do not overlap.
	if Box1(0, 5).Overlaps(Box1(5, 5)) {
		t.Error("adjacent 1D boxes reported overlapping")
	}
}

func TestIntersectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	domain := Box3(0, 0, 0, 20, 17, 9)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandomBoxIn(r, domain)
		b := RandomBoxIn(r, domain)
		ab, okAB := a.Intersect(b)
		ba, okBA := b.Intersect(a)
		if okAB != okBA {
			return false
		}
		if okAB {
			// Commutative, contained in both, and idempotent.
			if !ab.Equal(ba) || !a.Contains(ab) || !b.Contains(ab) {
				return false
			}
			again, ok := ab.Intersect(ab)
			if !ok || !again.Equal(ab) {
				return false
			}
		} else {
			// Verify emptiness by brute force on a few sampled points.
			for i := 0; i < 10; i++ {
				p := [3]int{
					a.Offset[0] + rng.Intn(a.Dims[0]),
					a.Offset[1] + rng.Intn(a.Dims[1]),
					a.Offset[2] + rng.Intn(a.Dims[2]),
				}
				if b.ContainsPoint(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	outer := Box2(0, 0, 8, 8)
	if !outer.Contains(Box2(4, 4, 4, 4)) {
		t.Error("quadrant not contained in its domain")
	}
	if outer.Contains(Box2(5, 5, 4, 4)) {
		t.Error("overflowing box reported contained")
	}
	if !outer.Contains(Box2(3, 3, 0, 0)) {
		t.Error("empty box should be trivially contained")
	}
}

func TestLocalTo(t *testing.T) {
	chunk := Box2(0, 4, 8, 1)
	overlap := Box2(4, 4, 4, 1)
	local := overlap.LocalTo(chunk)
	if !local.Equal(Box2(4, 0, 4, 1)) {
		t.Errorf("LocalTo = %v, want (4,0)+(4,1)", local)
	}
}

func TestBoundingBox(t *testing.T) {
	b, ok := BoundingBox([]Box{Box2(2, 3, 2, 2), Box2(5, 1, 1, 1), Box2(4, 4, 0, 5)})
	if !ok || !b.Equal(Box2(2, 1, 4, 4)) {
		t.Errorf("bounding = %v, ok=%v", b, ok)
	}
	if _, ok := BoundingBox(nil); ok {
		t.Error("empty input produced a box")
	}
	if _, ok := BoundingBox([]Box{Box1(3, 0)}); ok {
		t.Error("all-empty input produced a box")
	}
	single, ok := BoundingBox([]Box{Box3(1, 2, 3, 4, 5, 6)})
	if !ok || !single.Equal(Box3(1, 2, 3, 4, 5, 6)) {
		t.Errorf("single box = %v", single)
	}
}

func TestStringAndSlices(t *testing.T) {
	b := Box2(0, 4, 4, 4)
	if got := b.String(); got != "(0,4)+(4,4)" {
		t.Errorf("String() = %q", got)
	}
	if got := b.OffsetSlice(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("OffsetSlice() = %v", got)
	}
	if got := b.DimsSlice(); len(got) != 2 || got[0] != 4 || got[1] != 4 {
		t.Errorf("DimsSlice() = %v", got)
	}
}
