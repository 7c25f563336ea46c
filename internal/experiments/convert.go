package experiments

import (
	"fmt"
	"time"

	"ddr/internal/bov"
	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/tiff"
)

// ConvertResult summarizes a parallel stack conversion.
type ConvertResult struct {
	Slices    int
	Bytes     int64
	ReadTime  time.Duration // max across ranks
	CommTime  time.Duration
	WriteTime time.Duration
}

// ConvertStackToBOV converts a TIFF slice stack into a single bov volume
// in parallel: each rank reads an equal share of the images (every image
// decoded exactly once), DDR redistributes pixels into contiguous write
// slabs, and each rank issues one large sequential write — the on-the-fly
// format conversion the paper's introduction motivates for tools like
// ParaView. Collective over c.
func ConvertStackToBOV(c *mpi.Comm, info tiff.StackInfo, outPath string) (*ConvertResult, error) {
	domain := grid.Box3(0, 0, 0, info.Width, info.Height, info.Depth)
	bps := info.BytesPerSample()

	// Readers own consecutive runs of slices; writers own z-slabs too, but
	// re-balanced so each rank's write region is contiguous in the output
	// file. (With consecutive read chunks these coincide, which makes the
	// redistribution mostly local — DDR detects that automatically and
	// moves only what differs.)
	readChunks := grid.ConsecutiveSlices(domain, 2, c.Size())[c.Rank()]
	writeSlab := grid.Slabs(domain, 2, c.Size())[c.Rank()]

	out := &ConvertResult{Slices: info.Depth, Bytes: int64(domain.Volume()) * int64(bps)}

	if c.Rank() == 0 {
		v, err := bov.Create(outPath, bov.Header{
			Dims:     [3]int{info.Width, info.Height, info.Depth},
			ElemSize: bps,
			Kind:     fmt.Sprintf("%d-bit %v from TIFF stack", info.BitsPerSample, info.SampleFormat),
		})
		if err != nil {
			return nil, err
		}
		if err := v.Close(); err != nil {
			return nil, err
		}
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}

	start := time.Now()
	bufs := make([][]byte, len(readChunks))
	for i, chunk := range readChunks {
		var err error
		if bufs[i], err = readSlices(info, chunk.Offset[2], chunk.Dims[2]); err != nil {
			return nil, err
		}
	}
	readTime := time.Since(start)

	start = time.Now()
	desc, err := core.NewDescriptor(c.Size(), core.Layout3D, core.Uint8, core.WithElemSize(bps),
		core.WithPipelineDepth(1)) // the paper's serial round, as in LoadStackDDR
	if err != nil {
		return nil, err
	}
	if err := desc.SetupDataMapping(c, readChunks, writeSlab); err != nil {
		return nil, err
	}
	slabBuf := make([]byte, writeSlab.Volume()*bps)
	if err := desc.ReorganizeData(c, bufs, slabBuf); err != nil {
		return nil, err
	}
	commTime := time.Since(start)

	start = time.Now()
	v, err := bov.Open(outPath)
	if err != nil {
		return nil, err
	}
	if err := v.WriteBox(writeSlab, slabBuf); err != nil {
		v.Close()
		return nil, err
	}
	if err := v.Close(); err != nil {
		return nil, err
	}
	writeTime := time.Since(start)
	if err := c.Barrier(); err != nil {
		return nil, err
	}

	if out.ReadTime, err = maxDuration(c, readTime); err != nil {
		return nil, err
	}
	if out.CommTime, err = maxDuration(c, commTime); err != nil {
		return nil, err
	}
	if out.WriteTime, err = maxDuration(c, writeTime); err != nil {
		return nil, err
	}
	return out, nil
}
