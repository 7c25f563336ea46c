// Package experiments contains the drivers that reproduce the paper's
// tables and figures: the parallel TIFF-loading study (use case A, Tables
// II/III and Figure 3), the volume rendering of Figure 2, and the
// in-transit LBM streaming study (use case B, Figures 4/5 and Table IV).
// cmd/ddrbench and the top-level benchmarks are thin wrappers around this
// package.
package experiments

import (
	"fmt"
	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/render"
	"ddr/internal/tiff"
)

// Technique selects how slices are assigned to reading processes, the two
// DDR configurations of the paper's §IV-A.
type Technique int

// Slice assignment techniques.
const (
	// RoundRobin assigns slice i to rank i%p; every slice is its own chunk.
	RoundRobin Technique = iota
	// Consecutive assigns each rank one contiguous run of slices, a single
	// chunk per rank.
	Consecutive
)

func (t Technique) String() string {
	if t == RoundRobin {
		return "round-robin"
	}
	return "consecutive"
}

// StackGeometry builds the global DDR geometry for loading a stack that
// fills `domain` (width × height × numImages) on p ranks: ownership
// follows the slice-assignment technique, and every rank needs the
// near-cube brick of the domain it will render.
func StackGeometry(domain grid.Box, p int, tech Technique) (allChunks [][]grid.Box, allNeeds []grid.Box) {
	switch tech {
	case RoundRobin:
		allChunks = grid.RoundRobinSlices(domain, 2, p)
	default:
		allChunks = grid.ConsecutiveSlices(domain, 2, p)
	}
	nx, ny, nz := grid.Factor3(p)
	allNeeds = grid.Bricks3D(domain, nx, ny, nz)
	return allChunks, allNeeds
}

// BrickDepthSplits returns nz, the number of brick layers along the slice
// axis for p ranks — the divisor of per-process image reads in the
// baseline loader.
func BrickDepthSplits(p int) int {
	_, _, nz := grid.Factor3(p)
	return nz
}

// LoadResult is the outcome of a parallel stack load on one rank.
type LoadResult struct {
	Brick      render.Brick
	ImagesRead int
	ReadTime   time.Duration
	CommTime   time.Duration
	Stats      core.ScheduleStats // zero for the baseline loader
}

// readSlices reads global slices [z0, z0+d) of the stack into one buffer
// (x fastest, then y, then z), returning the raw sample bytes.
func readSlices(info tiff.StackInfo, z0, d int) ([]byte, error) {
	bps := info.BytesPerSample()
	sliceBytes := info.Width * info.Height * bps
	buf := make([]byte, sliceBytes*d)
	for i := 0; i < d; i++ {
		img, err := tiff.ReadFile(tiff.SlicePath(info.Dir, z0+i))
		if err != nil {
			return nil, err
		}
		if img.Width != info.Width || img.Height != info.Height || img.BytesPerSample() != bps {
			return nil, fmt.Errorf("experiments: slice %d geometry differs from stack", z0+i)
		}
		copy(buf[i*sliceBytes:], img.Pixels)
	}
	return buf, nil
}

// LoadStackDDR performs the paper's DDR-assisted load: this rank reads
// only the slices the technique assigns to it, then one DDR
// redistribution delivers every rank its brick. Collective over c.
func LoadStackDDR(c *mpi.Comm, info tiff.StackInfo, tech Technique) (*LoadResult, error) {
	domain := grid.Box3(0, 0, 0, info.Width, info.Height, info.Depth)
	allChunks, allNeeds := StackGeometry(domain, c.Size(), tech)
	myChunks := allChunks[c.Rank()]
	need := allNeeds[c.Rank()]
	bps := info.BytesPerSample()

	res := &LoadResult{}
	start := time.Now()
	bufs := make([][]byte, len(myChunks))
	for i, chunk := range myChunks {
		var err error
		if bufs[i], err = readSlices(info, chunk.Offset[2], chunk.Dims[2]); err != nil {
			return nil, err
		}
		res.ImagesRead += chunk.Dims[2]
	}
	res.ReadTime = time.Since(start)

	elem := core.Uint8
	// Table II times the paper's mechanism: one round per chunk, each run
	// to completion before the next is packed — its one MPI_Alltoallw per
	// round is one step at depth 1.
	desc, err := core.NewDescriptor(c.Size(), core.Layout3D, elem, core.WithElemSize(bps),
		core.WithPipelineDepth(1))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := desc.SetupDataMapping(c, myChunks, need); err != nil {
		return nil, err
	}
	needBuf := make([]byte, need.Volume()*bps)
	if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
		return nil, err
	}
	res.CommTime = time.Since(start)
	res.Stats = desc.Plan().Stats()

	values, err := render.NormalizeSamples(needBuf, info.BitsPerSample, info.SampleFormat)
	if err != nil {
		return nil, err
	}
	res.Brick = render.Brick{Box: need, Values: values}
	return res, nil
}

// LoadStackNoDDR performs the baseline load the paper compares against:
// every rank independently reads and decodes every image intersecting its
// brick and throws away the pixels outside it.
func LoadStackNoDDR(c *mpi.Comm, info tiff.StackInfo) (*LoadResult, error) {
	domain := grid.Box3(0, 0, 0, info.Width, info.Height, info.Depth)
	nx, ny, nz := grid.Factor3(c.Size())
	need := grid.Bricks3D(domain, nx, ny, nz)[c.Rank()]
	bps := info.BytesPerSample()

	res := &LoadResult{}
	needBuf := make([]byte, need.Volume()*bps)
	rowBytes := need.Dims[0] * bps
	start := time.Now()
	for zi := 0; zi < need.Dims[2]; zi++ {
		gz := need.Offset[2] + zi
		img, err := tiff.ReadFile(tiff.SlicePath(info.Dir, gz))
		if err != nil {
			return nil, err
		}
		res.ImagesRead++
		// Extract just the brick's window from the fully decoded image.
		for yi := 0; yi < need.Dims[1]; yi++ {
			gy := need.Offset[1] + yi
			srcOff := (gy*info.Width + need.Offset[0]) * bps
			dstOff := ((zi*need.Dims[1] + yi) * need.Dims[0]) * bps
			copy(needBuf[dstOff:dstOff+rowBytes], img.Pixels[srcOff:srcOff+rowBytes])
		}
	}
	res.ReadTime = time.Since(start)

	values, err := render.NormalizeSamples(needBuf, info.BitsPerSample, info.SampleFormat)
	if err != nil {
		return nil, err
	}
	res.Brick = render.Brick{Box: need, Values: values}
	return res, nil
}
