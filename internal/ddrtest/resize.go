package ddrtest

// Elastic-resize half of the harness: seeded random (old geometry, new
// geometry) pairs — survivors whose need shifted, ranks leaving the
// group, ranks joining with no prior data — run through core.CompileDelta
// and DeltaPlan.Exchange on a chosen transport, optionally under a
// deterministic chaos schedule, and the surviving ranks' new buffers are
// checked against the closed-form invariant: cells some old rank held
// carry the fill value, cells nobody held keep the sentinel, and cells
// in regions a partial completion reported missing hold one or the other
// but never garbage.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
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

// valueAt is the closed-form fill, shared with the redistribution half
// of the harness so resize and exchange cases agree on ground truth.
func (rc *ResizeCase) valueAt(x, y, z, b int) byte {
	v := mix(rc.Seed ^ uint64(uint32(x)) ^ uint64(uint32(y))<<20 ^ uint64(uint32(z))<<40)
	return byte(v >> (8 * (b % 8)))
}

// FillBox renders the closed-form pattern for box, row-major, x fastest.
func (rc *ResizeCase) FillBox(box grid.Box) []byte {
	buf := make([]byte, box.Volume()*rc.ElemSize)
	i := 0
	forEachCell(box, func(x, y, z int) {
		for b := 0; b < rc.ElemSize; b++ {
			buf[i] = rc.valueAt(x, y, z, b)
			i++
		}
	})
	return buf
}

// CheckNew verifies the resize invariant over a surviving rank's new
// buffer: cells covered by some rank's old need hold the closed-form
// value, cells nobody held keep the sentinel, and cells inside missing
// (regions a partial completion reported lost) may hold either — but
// never anything else.
func (rc *ResizeCase) CheckNew(need grid.Box, buf []byte, missing []grid.Box) error {
	if len(buf) != need.Volume()*rc.ElemSize {
		return fmt.Errorf("new buffer holds %d bytes, want %d", len(buf), need.Volume()*rc.ElemSize)
	}
	var firstErr error
	i := 0
	forEachCell(need, func(x, y, z int) {
		cell := buf[i : i+rc.ElemSize]
		i += rc.ElemSize
		if firstErr != nil {
			return
		}
		pt := [grid.MaxDims]int{x, y, z}
		held := false
		for _, b := range rc.OldNeeds {
			if !b.Empty() && b.ContainsPoint(pt) {
				held = true
				break
			}
		}
		sentinel := true
		expected := true
		for b := 0; b < rc.ElemSize; b++ {
			if cell[b] != Sentinel {
				sentinel = false
			}
			if cell[b] != rc.valueAt(x, y, z, b) {
				expected = false
			}
		}
		switch {
		case !held:
			if !sentinel {
				firstErr = fmt.Errorf("cell (%d,%d,%d) no old rank held was overwritten", x, y, z)
			}
		case inBoxes(missing, pt):
			if !sentinel && !expected {
				firstErr = fmt.Errorf("cell (%d,%d,%d) in a reported-missing region holds corrupt data", x, y, z)
			}
		default:
			if !expected {
				firstErr = fmt.Errorf("cell (%d,%d,%d) byte mismatch: got %v", x, y, z, cell)
			}
		}
	})
	return firstErr
}

// ResizeRunOptions selects how a resize case executes.
type ResizeRunOptions struct {
	Transport string                // as RunOptions.Transport: "" (in-process), "tcp", "shm"
	Injector  mpi.FaultInjector     // nil runs fault-free
	Deadline  time.Duration         // per-exchange bound; required for sever schedules
	Mutate    func(*core.DeltaPlan) // test hook: corrupt the compiled plan on rank 0
}

// RunResize compiles the case's delta plans and executes the resize
// exchange, returning per-rank results (indexed by resize-collective
// rank). Leavers have nothing to check, so their CheckErr stays nil. The
// returned error reports infrastructure failures; exchange and invariant
// outcomes land in the results.
func (rc *ResizeCase) RunResize(opt ResizeRunOptions) ([]RankResult, error) {
	plans, err := core.CompileDelta(rc.ElemSize, rc.OldNeeds, rc.NewNeeds)
	if err != nil {
		return nil, err
	}
	if opt.Mutate != nil {
		opt.Mutate(plans[0])
	}
	results := make([]RankResult, rc.NProcs)
	body := func(c *mpi.Comm) error {
		rank := c.Rank()
		res := &results[rank]
		var oldData, newData []byte
		if !rc.OldNeeds[rank].Empty() {
			oldData = rc.FillBox(rc.OldNeeds[rank])
		}
		if !rc.NewNeeds[rank].Empty() {
			newData = make([]byte, rc.NewNeeds[rank].Volume()*rc.ElemSize)
			for i := range newData {
				newData[i] = Sentinel
			}
		}
		err := plans[rank].ExchangeCtx(nil, c, oldData, newData, opt.Deadline)
		var pe *core.PartialError
		if errors.As(err, &pe) {
			res.Partial = pe
			err = nil
		}
		if err != nil {
			res.Err = err
			return nil
		}
		if rc.NewNeeds[rank].Empty() {
			return nil
		}
		var missing []grid.Box
		if res.Partial != nil {
			missing = res.Partial.Missing
		}
		res.CheckErr = rc.CheckNew(rc.NewNeeds[rank], newData, missing)
		return nil
	}
	launchOpts, err := launchOptions(opt.Transport, opt.Injector)
	if err != nil {
		return results, err
	}
	return results, mpi.Launch(rc.NProcs, body, launchOpts...)
}
