package ddrtest

// Elastic-resize half of the harness: seeded random (old geometry, new
// geometry) pairs — survivors whose need shifted, ranks leaving the
// group, ranks joining with no prior data — run as the redistribution a
// resize is (every rank owns its old need box and needs its new one)
// through SetupDataMapping and ReorganizeData on a chosen transport,
// optionally under a deterministic chaos schedule, and the surviving
// ranks' new buffers are checked against the closed-form invariant:
// cells some old rank held carry the fill value, cells nobody held keep
// the sentinel, and cells in regions a partial completion reported
// missing hold one or the other but never garbage.

import (
	"fmt"
	"math/rand"

	"ddr/internal/core"
	"ddr/internal/grid"
)

// ResizeCase is one fully specified elastic-resize scenario over the
// resize collective's NProcs ranks (the union of old and new groups).
// A zero-extent OldNeeds entry marks a joiner, a zero-extent NewNeeds
// entry a leaver. All fields derive deterministically from Seed.
type ResizeCase struct {
	Seed     uint64
	NProcs   int
	Layout   core.Layout
	ElemSize int
	Domain   grid.Box
	OldNeeds []grid.Box
	NewNeeds []grid.Box
}

func (rc *ResizeCase) String() string {
	return fmt.Sprintf("resize seed=%d nprocs=%d layout=%v elem=%d domain=%v",
		rc.Seed, rc.NProcs, rc.Layout, rc.ElemSize, rc.Domain)
}

// GenResizeCase derives a random resize case from seed, bounded by
// maxProcs ranks and maxExtent cells per axis. Equal arguments produce
// equal cases.
func GenResizeCase(seed uint64, maxProcs, maxExtent int) ResizeCase {
	if maxProcs < 2 {
		maxProcs = 2
	}
	if maxExtent < 4 {
		maxExtent = 4
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rc := ResizeCase{
		Seed:     seed,
		NProcs:   2 + rng.Intn(maxProcs-1),
		Layout:   core.Layout(1 + rng.Intn(3)),
		ElemSize: elemSizes[rng.Intn(len(elemSizes))],
	}
	nd := rc.Layout.NDims()
	dims := make([]int, nd)
	for i := 0; i < nd; i++ {
		dims[i] = 4 + rng.Intn(maxExtent-3)
	}
	rc.Domain = grid.MustBox(make([]int, nd), dims)
	empty := grid.MustBox(make([]int, nd), make([]int, nd))

	rc.OldNeeds = make([]grid.Box, rc.NProcs)
	rc.NewNeeds = make([]grid.Box, rc.NProcs)
	for r := 0; r < rc.NProcs; r++ {
		switch role := rng.Intn(8); {
		case role == 0: // joiner: no old data, receives everything
			rc.OldNeeds[r] = empty
			rc.NewNeeds[r] = grid.RandomBoxIn(rng, rc.Domain)
		case role == 1: // leaver: hands its data off, keeps nothing
			rc.OldNeeds[r] = grid.RandomBoxIn(rng, rc.Domain)
			rc.NewNeeds[r] = empty
		case role == 2: // survivor with an unrelated new need
			rc.OldNeeds[r] = grid.RandomBoxIn(rng, rc.Domain)
			rc.NewNeeds[r] = grid.RandomBoxIn(rng, rc.Domain)
		default: // survivor whose need shifted and rescaled a little
			old := grid.RandomBoxIn(rng, rc.Domain)
			nb := old
			for a := 0; a < nd; a++ {
				nb.Offset[a] += rng.Intn(5) - 2
				nb.Dims[a] += rng.Intn(5) - 2
				if nb.Dims[a] < 1 {
					nb.Dims[a] = 1
				}
				if nb.Offset[a] < 0 {
					nb.Offset[a] = 0
				}
				if end := rc.Domain.End(a); nb.Offset[a]+nb.Dims[a] > end {
					nb.Offset[a] = end - nb.Dims[a]
				}
			}
			rc.OldNeeds[r] = old
			rc.NewNeeds[r] = nb
		}
	}
	return rc
}

// Case is the resize as the redistribution it runs: every rank owns its
// old need box as its one chunk and needs its new one. Run it with Case.Run; the fill invariant then
// reads "held by some rank" where a tiling reads "inside the domain".
func (rc *ResizeCase) Case() Case {
	tc := Case{
		Seed: rc.Seed, NProcs: rc.NProcs, Layout: rc.Layout, ElemSize: rc.ElemSize,
		Domain: rc.Domain,
		Chunks: make([][]grid.Box, rc.NProcs), Needs: rc.NewNeeds,
	}
	for r := range tc.Chunks {
		tc.Chunks[r] = rc.OldNeeds[r : r+1]
	}
	return tc
}
