package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"ddr/internal/colormap"
	"ddr/internal/grid"
	"ddr/internal/lbm"
	"ddr/internal/mpi"
)

// The paper's §II-C distinguishes two couplings for live analysis:
// in-situ (analysis runs on the simulation's own ranks, stealing cycles
// from it) and in-transit (analysis runs on separate ranks fed over the
// network, where DDR regrids the arriving data). RunInSitu implements the
// former so the two can be compared on identical workloads.

// InSituResult summarizes an in-situ run.
type InSituResult struct {
	Frames         int
	SimTime        time.Duration // max across ranks, time inside Step
	RenderTime     time.Duration // max across ranks, time in render+encode
	WallTime       time.Duration
	ProcessedBytes int64
}

// RunInSitu runs the LBM on M ranks that also render: every OutputEvery
// iterations the simulation pauses, each rank colors its own slab of the
// vorticity field, rank 0 gathers the strips and JPEG-encodes the frame.
// No redistribution is needed — the render consumes the simulation's own
// slab layout — but the simulation stalls for every frame.
func RunInSitu(cfg InTransitConfig) (*InSituResult, error) {
	cfg.fillDefaults()
	if cfg.OutputEvery <= 0 || cfg.Iterations < cfg.OutputEvery {
		return nil, fmt.Errorf("experiments: need OutputEvery in (0, Iterations]")
	}
	params := lbm.Params{
		Width:         cfg.GridW,
		Height:        cfg.GridH,
		Viscosity:     cfg.Viscosity,
		InletVelocity: cfg.InletVelocity,
		Barrier:       lbm.CylinderBarrier(cfg.GridW/4, cfg.GridH/2, cfg.GridH/9),
	}
	var (
		mu  sync.Mutex
		res *InSituResult
	)
	wallStart := time.Now()
	err := mpi.Launch(cfg.M, func(c *mpi.Comm) error {
		sim, err := lbm.NewParallel(c, params)
		if err != nil {
			return err
		}
		starts := grid.SplitEven(cfg.GridH, cfg.M)
		local := &InSituResult{}
		var simTime, renderTime time.Duration
		for it := 1; it <= cfg.Iterations; it++ {
			t0 := time.Now()
			if err := sim.Step(); err != nil {
				return err
			}
			simTime += time.Since(t0)
			if it%cfg.OutputEvery != 0 {
				continue
			}
			t0 = time.Now()
			vort, err := sim.Vorticity()
			if err != nil {
				return err
			}
			// Gather slab fields at rank 0 and encode.
			parts, err := c.Gather(0, lbm.Float32sToBytes(vort))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				field := make([]float32, cfg.GridW*cfg.GridH)
				for r, part := range parts {
					copy(field[starts[r]*cfg.GridW:], lbm.BytesToFloat32s(part))
				}
				lo, hi := colormap.SymmetricRange(field)
				img, err := colormap.FieldToImage(field, cfg.GridW, cfg.GridH, lo, hi, colormap.BlueWhiteRed)
				if err != nil {
					return err
				}
				var jbuf bytes.Buffer
				if err := colormap.EncodeJPEG(&jbuf, img, cfg.JPEGQuality); err != nil {
					return err
				}
				local.Frames++
				local.ProcessedBytes += int64(jbuf.Len())
			}
			renderTime += time.Since(t0)
		}
		simMax, err := maxDuration(c, simTime)
		if err != nil {
			return err
		}
		renderMax, err := maxDuration(c, renderTime)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			local.SimTime = simMax
			local.RenderTime = renderMax
			res = local
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("experiments: in-situ run produced no result")
	}
	res.WallTime = time.Since(wallStart)
	return res, nil
}
