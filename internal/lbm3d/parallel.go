package lbm3d

import (
	"fmt"

	"ddr/internal/fielddata"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Reserved tags for 3D halo traffic (distinct from the 2D solver's).
const (
	tagHaloUp   = 9101
	tagHaloDown = 9102
)

// Parallel couples one z-slab per rank, exchanging ghost planes with at
// most two neighbors per iteration.
type Parallel struct {
	Comm *mpi.Comm
	Slab *Slab
}

// NewParallel decomposes the domain of p into comm.Size() z-slabs and
// returns this rank's simulator.
func NewParallel(c *mpi.Comm, p Params) (*Parallel, error) {
	if c.Size() > p.Depth {
		return nil, fmt.Errorf("lbm3d: %d ranks for %d planes", c.Size(), p.Depth)
	}
	starts := grid.SplitEven(p.Depth, c.Size())
	z0 := starts[c.Rank()]
	nz := starts[c.Rank()+1] - z0
	slab, err := NewSlab(p, z0, nz)
	if err != nil {
		return nil, err
	}
	return &Parallel{Comm: c, Slab: slab}, nil
}

// Step advances the global simulation one iteration.
func (ps *Parallel) Step() error {
	s := ps.Slab
	c := ps.Comm
	s.Collide()

	low, high := s.EdgePlanes()
	var reqs []*mpi.Request
	var recvLow, recvHigh *mpi.Request
	if c.Rank() > 0 {
		reqs = append(reqs, c.Isend(c.Rank()-1, tagHaloDown, fielddata.Float64Bytes(low)))
		recvLow = c.Irecv(c.Rank()-1, tagHaloUp)
	}
	if c.Rank() < c.Size()-1 {
		reqs = append(reqs, c.Isend(c.Rank()+1, tagHaloUp, fielddata.Float64Bytes(high)))
		recvHigh = c.Irecv(c.Rank()+1, tagHaloDown)
	}
	if err := mpi.WaitAll(reqs...); err != nil {
		return err
	}
	var haloLow, haloHigh []float64
	if recvLow != nil {
		data, _, _, err := recvLow.Wait()
		if err != nil {
			return err
		}
		haloLow = fielddata.BytesFloat64(data)
		mpi.PutBuffer(data)
	}
	if recvHigh != nil {
		data, _, _, err := recvHigh.Wait()
		if err != nil {
			return err
		}
		haloHigh = fielddata.BytesFloat64(data)
		mpi.PutBuffer(data)
	}
	if err := s.SetHalo(haloLow, haloHigh); err != nil {
		return err
	}
	s.Stream()
	return nil
}
