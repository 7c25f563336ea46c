package grid

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bruteQuery is the reference the index must agree with exactly.
func bruteQuery(boxes []Box, q Box) []int {
	var out []int
	for i, b := range boxes {
		if !b.Empty() && q.Overlaps(b) {
			out = append(out, i)
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64, parts uint8, queries uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		offs := make([]int, nd)
		for i := range dims {
			dims[i] = 4 + rng.Intn(20)
			offs[i] = rng.Intn(9) - 4
		}
		domain := MustBox(offs, dims)
		boxes := RandomTiling(rng, domain, 1+int(parts%64))
		// Mix in a few empty and escaping boxes so the index sees the
		// irregular populations VerifyTilingOwned feeds it.
		empty := domain
		empty.Dims[0] = 0
		escaping := domain
		for i := 0; i < nd; i++ {
			escaping.Offset[i] -= 2
			escaping.Dims[i] += 4
		}
		boxes = append(boxes, empty, escaping)
		ix := NewIndex(boxes)
		for q := 0; q < 1+int(queries%16); q++ {
			query := RandomBoxIn(rng, domain)
			if rng.Intn(3) == 0 {
				query.Offset[0] -= 3 // partially outside
			}
			if !sameInts(ix.QueryAppend(nil, query), bruteQuery(boxes, query)) {
				t.Logf("seed %d query %v: %v != %v", seed, query, ix.QueryAppend(nil, query), bruteQuery(boxes, query))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIndexLargePopulation(t *testing.T) {
	// A population big enough to exercise several internal levels.
	domain := Box3(0, 0, 0, 64, 64, 64)
	boxes := Bricks3D(domain, 16, 16, 16) // 4096 bricks
	ix := NewIndex(boxes)
	if len(ix.live) != len(boxes) {
		t.Fatalf("%d live boxes, want %d", len(ix.live), len(boxes))
	}
	rng := rand.New(rand.NewSource(42))
	var scratch []int
	for q := 0; q < 200; q++ {
		query := RandomBoxIn(rng, domain)
		scratch = ix.QueryAppend(scratch[:0], query)
		want := bruteQuery(boxes, query)
		if !sameInts(scratch, want) {
			t.Fatalf("query %v: got %d hits, want %d", query, len(scratch), len(want))
		}
		if !sort.IntsAreSorted(scratch) {
			t.Fatalf("query %v results not ascending: %v", query, scratch)
		}
	}
}

func TestIndexEmptyAndDegenerate(t *testing.T) {
	if got := NewIndex(nil).QueryAppend(nil, Box1(0, 10)); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
	only := []Box{Box1(0, 0)} // a single empty box
	if got := NewIndex(only).QueryAppend(nil, Box1(0, 10)); len(got) != 0 {
		t.Errorf("index of empty boxes returned %v", got)
	}
	ix := NewIndex([]Box{Box1(2, 3)})
	if got := ix.QueryAppend(nil, Box1(0, 0)); len(got) != 0 {
		t.Errorf("empty query returned %v", got)
	}
	if got := ix.QueryAppend(nil, Box1(4, 2)); !sameInts(got, []int{0}) {
		t.Errorf("overlap query returned %v", got)
	}
}

func TestVerifyTilingReportsAllPairsBounded(t *testing.T) {
	// Twelve identical boxes: 66 overlapping pairs, reported capped.
	boxes := make([]Box, 12)
	owners := make([]int, 12)
	for i := range boxes {
		boxes[i] = Box2(0, 0, 4, 4)
		owners[i] = i * 10
	}
	err := VerifyTilingOwned(Box2(0, 0, 4, 4), boxes, owners)
	ce, ok := err.(*CoverageError)
	if !ok {
		t.Fatalf("expected CoverageError, got %v", err)
	}
	if len(ce.Overlaps) != MaxReportedOverlaps || !ce.Truncated {
		t.Fatalf("got %d pairs (truncated=%v), want %d truncated",
			len(ce.Overlaps), ce.Truncated, MaxReportedOverlaps)
	}
	for _, p := range ce.Overlaps {
		if p.Owners[0] != p.Boxes[0]*10 || p.Owners[1] != p.Boxes[1]*10 {
			t.Errorf("owner attribution wrong: %+v", p)
		}
	}
}

func TestVerifyTilingStackedSlabs(t *testing.T) {
	// Stacked horizontal slabs share the full axis-0 range — the layout
	// that degenerated the old axis-0 sweep to quadratic. Verify both the
	// clean and one-overlap variants at a size that would be felt if the
	// check regressed to O(n^2) element-wise work.
	domain := Box2(0, 0, 4, 4096)
	slabs := Slabs(domain, 1, 4096)
	if err := VerifyTilingOwned(domain, slabs, nil); err != nil {
		t.Fatal(err)
	}
	slabs[100].Dims[1]++ // now overlaps slab 101
	err := VerifyTilingOwned(domain, slabs, nil)
	ce, ok := err.(*CoverageError)
	if !ok || len(ce.Overlaps) == 0 {
		t.Fatalf("overlap not detected: %v", err)
	}
	if ce.Overlaps[0].Boxes != [2]int{100, 101} {
		t.Errorf("wrong pair: %+v", ce.Overlaps[0])
	}
}
