package transit

import (
	"fmt"
	"testing"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// TestRegridderReconnectCycles drives the consumer side of use case B
// through four connection epochs: a cold connect, a steady-state
// reconnect with identical geometry, a producer rescale, and a return to
// the original layout. The first and third must compile; the second and
// fourth must be plan-cache hits that replay the exact cached plan.
func TestRegridderReconnectCycles(t *testing.T) {
	const n = 2
	domain := grid.Box2(0, 0, 24, 16)
	squares := grid.Grid2D(domain, 1, n)

	value := func(x, y, epoch int) byte { return byte(3*x + 7*y + 41*epoch) }

	err := mpi.Launch(n, func(c *mpi.Comm) error {
		me := c.Rank()
		desc, err := core.NewDescriptor(n, core.Layout2D, core.Uint8)
		if err != nil {
			return err
		}
		rg := NewRegridder(desc, squares[me])

		// chunksFor assigns m producer slabs to the n consumers in
		// contiguous blocks, as the coupling does.
		chunksFor := func(m, rank int) []grid.Box {
			slabs := grid.Slabs(domain, 1, m)
			blocks := grid.SplitEven(m, n)
			return slabs[blocks[rank]:blocks[rank+1]]
		}
		runEpoch := func(epoch int, own []grid.Box) error {
			if err := rg.Connect(c, own); err != nil {
				return err
			}
			bufs := make([][]byte, len(own))
			for i, b := range own {
				buf := make([]byte, b.Volume())
				k := 0
				for y := 0; y < b.Dims[1]; y++ {
					for x := 0; x < b.Dims[0]; x++ {
						buf[k] = value(b.Offset[0]+x, b.Offset[1]+y, epoch)
						k++
					}
				}
				bufs[i] = buf
			}
			need := squares[me]
			needBuf := make([]byte, need.Volume())
			if err := rg.Regrid(c, bufs, needBuf); err != nil {
				return err
			}
			k := 0
			for y := 0; y < need.Dims[1]; y++ {
				for x := 0; x < need.Dims[0]; x++ {
					if want := value(need.Offset[0]+x, need.Offset[1]+y, epoch); needBuf[k] != want {
						return fmt.Errorf("epoch %d rank %d (%d,%d): %d != %d",
							epoch, me, x, y, needBuf[k], want)
					}
					k++
				}
			}
			return nil
		}
		expectStats := func(when string, hits, misses int64) error {
			h, m := rg.desc.PlanCacheStats()
			if h != hits || m != misses {
				return fmt.Errorf("%s: cache stats %d hits / %d misses, want %d / %d", when, h, m, hits, misses)
			}
			return nil
		}

		// Epoch 0: cold connect at m = 4 producers.
		if err := runEpoch(0, chunksFor(4, me)); err != nil {
			return err
		}
		if err := expectStats("cold connect", 0, 1); err != nil {
			return err
		}
		coldPlan := desc.Plan()

		// Epoch 1: the producers restart with the same layout — the
		// steady-state reconnect. Must replay the identical cached plan.
		if err := runEpoch(1, chunksFor(4, me)); err != nil {
			return err
		}
		if err := expectStats("warm reconnect", 1, 1); err != nil {
			return err
		}
		if desc.Plan() != coldPlan {
			return fmt.Errorf("warm reconnect compiled a new plan instead of replaying the cached one")
		}

		// Epoch 2: the producers rescale from 4 to 2 ranks — new geometry,
		// new compile.
		if err := runEpoch(2, chunksFor(2, me)); err != nil {
			return err
		}
		if err := expectStats("rescale", 1, 2); err != nil {
			return err
		}

		// Epoch 3: back to the original scale; both layouts fit the LRU, so
		// this is a hit again.
		if err := runEpoch(3, chunksFor(4, me)); err != nil {
			return err
		}
		if err := expectStats("return to original scale", 2, 2); err != nil {
			return err
		}
		if desc.Plan() != coldPlan {
			return fmt.Errorf("returning layout did not replay its cached plan")
		}
		if rg.epochs != 4 {
			return fmt.Errorf("epochs = %d, want 4", rg.epochs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegridderGuards covers the misuse paths.
func TestRegridderGuards(t *testing.T) {
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		desc, err := core.NewDescriptor(1, core.Layout1D, core.Uint8)
		if err != nil {
			return err
		}
		rg := NewRegridder(desc, grid.Box1(0, 8))
		if err := rg.Regrid(c, nil, make([]byte, 8)); err == nil {
			return fmt.Errorf("Regrid before Connect succeeded")
		}
		if err := rg.Connect(c, []grid.Box{grid.Box1(0, 8)}); err != nil {
			return err
		}
		if got := len(rg.own); got != 1 {
			return fmt.Errorf("Chunks() has %d entries, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
