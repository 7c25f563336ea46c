// resize: elastic consumer-group malleability. An analysis group of 4
// ranks holds vertical slabs of a 2-D field and rescales mid-stream —
// growing to 6 ranks (two joiners enter with empty sessions), shrinking
// back to 4 (two leavers hand their data off and abandon their
// sessions), then repartitioning the survivors between slab orientations
// — without ever tearing the coupling down.
//
// Each swing goes through Regridder.Resize: a redistribution from the
// old need boxes, each rank owning its own, to the new ones, which ships
// only the bytes whose ownership changed; everything still resident is
// copied locally. The run prints, per swing and rank, how much crossed
// the wire versus stayed put — the quantity a resize keeps small — and
// verifies every surviving rank's field bit-for-bit after each swing.
// The closing oscillation revisits geometry pairs the group has already
// mapped, so its later swings are resize plan-cache hits; the final line
// shows the split.
//
// Run with: go run ./examples/resize
package main

import (
	"fmt"
	"os"
	"sync"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/transit"
)

const (
	width    = 96
	height   = 64
	maxProcs = 6 // world size: union of every group the session visits
)

// value is the ground truth for cell (x, y): checking the field after a
// resize is just re-evaluating it over the new need box.
func value(x, y int) byte { return byte(7*x + 13*y + 5) }

// fill renders the ground truth into a need buffer.
func fill(need grid.Box, buf []byte) {
	i := 0
	for y := 0; y < need.Dims[1]; y++ {
		for x := 0; x < need.Dims[0]; x++ {
			buf[i] = value(need.Offset[0]+x, need.Offset[1]+y)
			i++
		}
	}
}

// check verifies a need buffer against the ground truth.
func check(need grid.Box, buf []byte) error {
	i := 0
	for y := 0; y < need.Dims[1]; y++ {
		for x := 0; x < need.Dims[0]; x++ {
			if want := value(need.Offset[0]+x, need.Offset[1]+y); buf[i] != want {
				return fmt.Errorf("cell (%d,%d): got %d, want %d",
					need.Offset[0]+x, need.Offset[1]+y, buf[i], want)
			}
			i++
		}
	}
	return nil
}

// needFor is rank r's slab when the group has n active ranks, sliced
// along the given axis (0 = vertical slabs, 1 = horizontal); a rank
// outside the group gets a zero-extent box ("not a member").
func needFor(r, n, axis int) grid.Box {
	if r >= n {
		return grid.Box2(0, 0, 0, 0)
	}
	return grid.Slabs(grid.Box2(0, 0, width, height), axis, n)[r]
}

func main() {
	domain := grid.Box2(0, 0, width, height)
	// One long-lived session per world rank; ranks 4 and 5 start outside
	// the group (zero-extent need) and join at the first resize.
	sessions := make([]*transit.Regridder, maxProcs)
	for r := range sessions {
		desc, err := core.NewDescriptor(4, core.Layout2D, core.Uint8)
		if err != nil {
			fatal(err)
		}
		sessions[r] = transit.NewRegridder(desc, needFor(r, 4, 0))
	}

	fmt.Printf("field %dx%d, starting with 4 consumer ranks\n\n", width, height)
	var mu sync.Mutex
	// swing resizes every session in world (the union of old and new
	// participants) to the n-rank layout sliced along axis.
	swing := func(title string, world, n, axis int) {
		fmt.Printf("%s\n", title)
		err := mpi.Launch(world, func(c *mpi.Comm) error {
			r := c.Rank()
			rg := sessions[r]
			oldNeed, newNeed := rg.Need(), needFor(r, n, axis)

			var oldData []byte
			if !oldNeed.Empty() {
				oldData = make([]byte, oldNeed.Volume())
				fill(oldNeed, oldData) // the state this rank carried in
			}
			var newData []byte
			if !newNeed.Empty() {
				newData = make([]byte, newNeed.Volume())
			}
			rep, err := rg.Resize(c, newNeed, oldData, newData)
			if err != nil {
				return fmt.Errorf("rank %d: %w", r, err)
			}
			if !newNeed.Empty() {
				if err := check(newNeed, newData); err != nil {
					return fmt.Errorf("rank %d after resize: %w", r, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case rg.Abandoned():
				fmt.Printf("  rank %d: left the group (handed off %d B)\n",
					r, oldNeed.Volume())
			case oldNeed.Empty():
				fmt.Printf("  rank %d: joined, received %d B over the wire\n",
					r, rep.MovedBytes)
			default:
				fmt.Printf("  rank %d: kept %d B locally, received %d B of %d B need\n",
					r, rep.RetainedBytes, rep.MovedBytes, rep.NeedBytes)
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	swing("grow: 4 -> 6 ranks", maxProcs, 6, 0)
	swing("shrink: 6 -> 4 ranks (ranks 4 and 5 leave)", maxProcs, 4, 0)

	// The four survivors now repartition in place, oscillating between
	// vertical and horizontal slabs. Membership is stable, so the second
	// visit to each geometry pair replays the cached resize plan.
	swing("repartition: vertical -> horizontal slabs", 4, 4, 1)
	swing("repartition: horizontal -> vertical slabs", 4, 4, 0)
	swing("repartition again: vertical -> horizontal (cached)", 4, 4, 1)
	swing("repartition again: horizontal -> vertical (cached)", 4, 4, 0)

	hits, misses := sessions[0].ResizeCacheStats()
	fmt.Printf("verified %d cells after every swing; resize plan cache: %d hits, %d misses\n",
		domain.Volume(), hits, misses)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resize:", err)
	os.Exit(1)
}
