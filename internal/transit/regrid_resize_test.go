package transit

import (
	"bytes"
	"fmt"
	"testing"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// resizeValue is the closed-form cell pattern for the resize tests.
func resizeValue(x, y int) byte { return byte(5*x + 11*y + 3) }

func fillNeed(b grid.Box) []byte {
	buf := make([]byte, b.Volume())
	k := 0
	for y := 0; y < b.Dims[1]; y++ {
		for x := 0; x < b.Dims[0]; x++ {
			buf[k] = resizeValue(b.Offset[0]+x, b.Offset[1]+y)
			k++
		}
	}
	return buf
}

func checkNeed(b grid.Box, buf []byte) error {
	k := 0
	for y := 0; y < b.Dims[1]; y++ {
		for x := 0; x < b.Dims[0]; x++ {
			if want := resizeValue(b.Offset[0]+x, b.Offset[1]+y); buf[k] != want {
				return fmt.Errorf("cell (%d,%d) = %d, want %d", b.Offset[0]+x, b.Offset[1]+y, buf[k], want)
			}
			k++
		}
	}
	return nil
}

// TestRegridderResizeGrowShrink walks one session through the full
// elastic lifecycle: 4 consumers grow to 5 (rank 4 joins with no old
// data), the resized group reconnects and regrids, then shrinks back to
// 4 (rank 4 leaves and its session is abandoned), and the survivors
// reconnect on a split communicator.
func TestRegridderResizeGrowShrink(t *testing.T) {
	const world = 5
	domain := grid.Box2(0, 0, 40, 20)
	oldSlabs := grid.Slabs(domain, 0, 4)
	newSlabs := grid.Slabs(domain, 0, 5)

	err := mpi.Launch(world, func(c *mpi.Comm) error {
		me := c.Rank()
		joiner := me == 4
		nProcs := 4
		if joiner {
			nProcs = 1 // re-targeted by the first Resize
		}
		desc, err := core.NewDescriptor(nProcs, core.Layout2D, core.Uint8)
		if err != nil {
			return err
		}
		var rg *Regridder
		var oldData []byte
		if joiner {
			rg = NewRegridder(desc, grid.Box{})
		} else {
			rg = NewRegridder(desc, oldSlabs[me])
			oldData = fillNeed(oldSlabs[me])
		}

		// Grow 4 → 5.
		newData := bytes.Repeat([]byte{0xEE}, newSlabs[me].Volume())
		rep, err := rg.Resize(c, newSlabs[me], oldData, newData)
		if err != nil {
			return fmt.Errorf("rank %d grow: %w", me, err)
		}
		if rep.NewGroupSize != 5 || rep.Resize != 1 {
			return fmt.Errorf("rank %d grow report: %+v", me, rep)
		}
		if err := checkNeed(newSlabs[me], newData); err != nil {
			return fmt.Errorf("rank %d after grow: %w", me, err)
		}
		if joiner && rep.MovedBytes != rep.NeedBytes {
			return fmt.Errorf("joiner moved %d of %d bytes; a joiner receives everything", rep.MovedBytes, rep.NeedBytes)
		}
		if !joiner && rep.RetainedBytes == 0 {
			return fmt.Errorf("rank %d retained nothing across an overlapping resize", me)
		}

		// The resized group reconnects (identity producer layout) and
		// regrids one step — the session is live at the new scale.
		// SetupDataMapping rejects a descriptor sized for another group,
		// so this also checks that the grow reshaped it to 5 ranks.
		if err := rg.Connect(c, []grid.Box{newSlabs[me]}); err != nil {
			return err
		}
		if err := rg.Regrid(c, [][]byte{fillNeed(newSlabs[me])}, newData); err != nil {
			return err
		}

		// Shrink 5 → 4: rank 4 leaves.
		var backNeed grid.Box
		var backData []byte
		if !joiner {
			backNeed = oldSlabs[me]
			backData = bytes.Repeat([]byte{0xEE}, backNeed.Volume())
		}
		rep, err = rg.Resize(c, backNeed, newData, backData)
		if err != nil {
			return fmt.Errorf("rank %d shrink: %w", me, err)
		}
		if rep.NewGroupSize != 4 || rep.Resize != 2 {
			return fmt.Errorf("rank %d shrink report: %+v", me, rep)
		}

		// Survivors continue on a split communicator; the leaver's session
		// is terminally abandoned.
		sub, err := c.Split(boolColor(joiner), me)
		if err != nil {
			return err
		}
		if joiner {
			if !rg.Abandoned() {
				return fmt.Errorf("leaver's session not abandoned")
			}
			if err := rg.Connect(sub, nil); err == nil {
				return fmt.Errorf("Connect on an abandoned session succeeded")
			}
			if _, err := rg.Resize(sub, grid.Box{}, nil, nil); err == nil {
				return fmt.Errorf("Resize on an abandoned session succeeded")
			}
			return nil
		}
		if err := checkNeed(oldSlabs[me], backData); err != nil {
			return fmt.Errorf("rank %d after shrink: %w", me, err)
		}
		if err := rg.Connect(sub, []grid.Box{oldSlabs[me]}); err != nil {
			return err
		}
		if err := rg.Regrid(sub, [][]byte{fillNeed(oldSlabs[me])}, backData); err != nil {
			return err
		}
		if rg.epochs != 2 || rg.resizes != 2 {
			return fmt.Errorf("rank %d: epochs %d resizes %d, want 2/2", me, rg.epochs, rg.resizes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func boolColor(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRegridderResizeOscillation pins the resize descriptor's plan
// cache: a consumer group that swings between two scales replays cached
// resize plans after the first full swing.
func TestRegridderResizeOscillation(t *testing.T) {
	domain := grid.Box2(0, 0, 24, 12)
	layoutA := grid.Slabs(domain, 0, 2)
	layoutB := grid.Slabs(domain, 1, 2)

	err := mpi.Launch(2, func(c *mpi.Comm) error {
		me := c.Rank()
		desc, err := core.NewDescriptor(2, core.Layout2D, core.Uint8)
		if err != nil {
			return err
		}
		rg := NewRegridder(desc, layoutA[me])
		cur := fillNeed(layoutA[me])
		layouts := [][]grid.Box{layoutB, layoutA, layoutB, layoutA}
		for i, l := range layouts {
			next := bytes.Repeat([]byte{0xEE}, l[me].Volume())
			if _, err := rg.Resize(c, l[me], cur, next); err != nil {
				return fmt.Errorf("swing %d: %w", i, err)
			}
			if err := checkNeed(l[me], next); err != nil {
				return fmt.Errorf("swing %d: %w", i, err)
			}
			cur = next
		}
		hits, misses := rg.ResizeCacheStats()
		if hits != 2 || misses != 2 {
			return fmt.Errorf("resize cache stats %d hits / %d misses, want 2 / 2", hits, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegridderConnectFailureResetsState is the regression test for the
// stale-session bug: a Connect that fails after a successful one must
// poison the session — mapping reset, Regrid refused — instead of
// leaving the prior epoch's plan silently live, and a subsequent good
// Connect must recover (warm, from the surviving cache entry).
func TestRegridderConnectFailureResetsState(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		me := c.Rank()
		desc, err := core.NewDescriptor(2, core.Layout1D, core.Uint8, core.WithValidation())
		if err != nil {
			return err
		}
		need := grid.Box1(8*me, 8)
		rg := NewRegridder(desc, need)
		good := []grid.Box{grid.Box1(8*me, 8)}
		// Overlapping chunks fail WithValidation's ownership check.
		bad := []grid.Box{grid.Box1(0, 16)}

		if err := rg.Connect(c, good); err != nil {
			return err
		}
		needBuf := make([]byte, 8)
		if err := rg.Regrid(c, [][]byte{make([]byte, 8)}, needBuf); err != nil {
			return err
		}

		if err := rg.Connect(c, bad); err == nil {
			return fmt.Errorf("overlapping chunk layout accepted")
		}
		if rg.state != stateStale {
			return fmt.Errorf("failed Connect left the session active")
		}
		if desc.Plan() != nil {
			return fmt.Errorf("failed Connect left the dead epoch's plan installed")
		}
		if err := rg.Regrid(c, [][]byte{make([]byte, 8)}, needBuf); err == nil {
			return fmt.Errorf("Regrid on a stale session succeeded")
		}
		if n := desc.PlanCacheLen(); n != 1 {
			return fmt.Errorf("plan cache holds %d entries after failed connect, want the 1 good epoch", n)
		}

		// Recovery: the good geometry reconnects warm and regrids.
		if err := rg.Connect(c, good); err != nil {
			return err
		}
		if rg.state == stateStale {
			return fmt.Errorf("successful Connect left the session stale")
		}
		if err := rg.Regrid(c, [][]byte{make([]byte, 8)}, needBuf); err != nil {
			return err
		}
		hits, misses := rg.desc.PlanCacheStats()
		if hits != 1 || misses != 2 {
			return fmt.Errorf("cache stats %d hits / %d misses, want 1 / 2", hits, misses)
		}
		if rg.epochs != 2 {
			return fmt.Errorf("epochs = %d, want 2 (failed connect opens no epoch)", rg.epochs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegridderResizeMetrics checks the resize telemetry lands in the
// descriptor's metrics registry.
func TestRegridderResizeMetrics(t *testing.T) {
	domain := grid.Box2(0, 0, 16, 8)
	layoutA := grid.Slabs(domain, 0, 2)
	layoutB := grid.Slabs(domain, 1, 2)
	regs := make([]*obs.Registry, 2)

	err := mpi.Launch(2, func(c *mpi.Comm) error {
		me := c.Rank()
		regs[me] = obs.NewRegistry()
		desc, err := core.NewDescriptor(2, core.Layout2D, core.Uint8, core.WithMetrics(regs[me]))
		if err != nil {
			return err
		}
		rg := NewRegridder(desc, layoutA[me])
		next := make([]byte, layoutB[me].Volume())
		_, err = rg.Resize(c, layoutB[me], fillNeed(layoutA[me]), next)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for me, reg := range regs {
		if got := reg.Counter("ddr_resize_total", "").Value(); got != 1 {
			t.Errorf("rank %d: ddr_resize_total = %d, want 1", me, got)
		}
		moved := reg.Counter("ddr_resize_moved_bytes_total", "").Value()
		retained := reg.Counter("ddr_resize_retained_bytes_total", "").Value()
		total := reg.Counter("ddr_resize_need_bytes_total", "").Value()
		if moved+retained != total || total != int64(layoutB[me].Volume()) {
			t.Errorf("rank %d: moved %d + retained %d != need %d", me, moved, retained, total)
		}
	}
}
