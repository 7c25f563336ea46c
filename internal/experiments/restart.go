package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"ddr/internal/bov"
	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// RestartResult summarizes a checkpoint/restart study: a volume written
// as bricks by one world is re-read by a differently-sized world that
// needs bricks, either directly (strided reads) or as slabs followed by a
// DDR redistribution — the paper's producer-layout vs consumer-layout
// story on a file substrate.
type RestartResult struct {
	WriteProcs, ReadProcs int

	DirectRuns int           // total positional I/O ops, direct brick reads
	SlabRuns   int           // total positional I/O ops, slab reads
	DirectTime time.Duration // max across ranks
	SlabTime   time.Duration // max across ranks (read + redistribute)
	Match      bool          // both strategies produced identical bricks
}

// RunRestartStudy writes a synthetic volume checkpoint with writeProcs
// ranks (brick layout), then restarts it on readProcs ranks comparing the
// direct strided brick read against the slab-read + DDR approach.
func RunRestartStudy(path string, writeProcs, readProcs int, h bov.Header) (*RestartResult, error) {
	if h.ElemSize != 1 {
		return nil, fmt.Errorf("experiments: restart study uses 1-byte elements, got %d", h.ElemSize)
	}
	f, err := bov.Create(path, h)
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	domain := h.Domain()
	value := func(x, y, z int) byte { return byte(x + 5*y + 11*z) }
	fill := func(box grid.Box) []byte {
		out := make([]byte, box.Volume())
		i := 0
		for z := 0; z < box.Dims[2]; z++ {
			for y := 0; y < box.Dims[1]; y++ {
				for x := 0; x < box.Dims[0]; x++ {
					out[i] = value(box.Offset[0]+x, box.Offset[1]+y, box.Offset[2]+z)
					i++
				}
			}
		}
		return out
	}

	// Phase 1: checkpoint written as bricks by writeProcs ranks.
	wx, wy, wz := grid.Factor3(writeProcs)
	writeBricks := grid.Bricks3D(domain, wx, wy, wz)
	err = mpi.Launch(writeProcs, func(c *mpi.Comm) error {
		v, err := bov.Open(path)
		if err != nil {
			return err
		}
		defer v.Close()
		return v.WriteBox(writeBricks[c.Rank()], fill(writeBricks[c.Rank()]))
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: restart on readProcs ranks needing bricks.
	rx, ry, rz := grid.Factor3(readProcs)
	readBricks := grid.Bricks3D(domain, rx, ry, rz)
	slabs := grid.Slabs(domain, 2, readProcs)

	res := &RestartResult{WriteProcs: writeProcs, ReadProcs: readProcs, Match: true}
	var mu sync.Mutex
	err = mpi.Launch(readProcs, func(c *mpi.Comm) error {
		v, err := bov.Open(path)
		if err != nil {
			return err
		}
		defer v.Close()
		brick := readBricks[c.Rank()]
		slab := slabs[c.Rank()]

		// Strategy A: direct strided brick read.
		start := time.Now()
		direct, err := v.ReadBox(brick)
		if err != nil {
			return err
		}
		directTime := time.Since(start)

		// Strategy B: one sequential slab read, then DDR to bricks.
		start = time.Now()
		slabData, err := v.ReadBox(slab)
		if err != nil {
			return err
		}
		viaDDR, err := core.Redistribute(c, core.Layout3D, core.Uint8, []core.Chunk{{Box: slab, Data: slabData}}, brick,
			core.WithPipelineDepth(1)) // the paper's serial round: one step per MPI_Alltoallw
		if err != nil {
			return err
		}
		slabTime := time.Since(start)

		match := bytes.Equal(direct, viaDDR) && bytes.Equal(direct, fill(brick))
		dMax, err := maxDuration(c, directTime)
		if err != nil {
			return err
		}
		sMax, err := maxDuration(c, slabTime)
		if err != nil {
			return err
		}
		runs, err := c.AllreduceInt64([]int64{int64(v.RunCount(brick)), int64(v.RunCount(slab))}, mpi.OpSum)
		if err != nil {
			return err
		}
		mu.Lock()
		if !match {
			res.Match = false
		}
		if c.Rank() == 0 {
			res.DirectTime = dMax
			res.SlabTime = sMax
			res.DirectRuns = int(runs[0])
			res.SlabRuns = int(runs[1])
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
