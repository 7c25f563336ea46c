package lbm

import (
	"fmt"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Reserved tags for halo traffic (kept below the DDR-reserved range).
const (
	tagHaloUp     = 9001 // rows travelling to the neighbor above
	tagHaloDown   = 9002 // rows travelling to the neighbor below
	tagVelocityUp = 9003
	tagVelocityDn = 9004
)

// Parallel couples one slab per rank of a communicator, performing the
// halo exchanges the paper describes (each rank communicates with at most
// its two vertical neighbors per iteration).
type Parallel struct {
	Comm *mpi.Comm
	Slab *Slab
}

// NewParallel decomposes the domain of p into comm.Size() horizontal
// slabs and returns this rank's simulator.
func NewParallel(c *mpi.Comm, p Params) (*Parallel, error) {
	if c.Size() > p.Height {
		return nil, fmt.Errorf("lbm: %d ranks for %d rows", c.Size(), p.Height)
	}
	starts := grid.SplitEven(p.Height, c.Size())
	y0 := starts[c.Rank()]
	ny := starts[c.Rank()+1] - y0
	slab, err := NewSlab(p, y0, ny)
	if err != nil {
		return nil, err
	}
	return &Parallel{Comm: c, Slab: slab}, nil
}

// Step advances the global simulation one iteration: collide locally,
// exchange post-collision edge rows with the neighbors, then stream.
func (ps *Parallel) Step() error {
	s := ps.Slab
	c := ps.Comm
	s.Collide()

	low, high := s.EdgeRows()
	var reqs []*mpi.Request
	var recvLow, recvHigh *mpi.Request
	if c.Rank() > 0 {
		reqs = append(reqs, c.Isend(c.Rank()-1, tagHaloDown, floatsToBytes(low)))
		recvLow = c.Irecv(c.Rank()-1, tagHaloUp)
	}
	if c.Rank() < c.Size()-1 {
		reqs = append(reqs, c.Isend(c.Rank()+1, tagHaloUp, floatsToBytes(high)))
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
		haloLow = bytesToFloats(data)
		mpi.PutBuffer(data)
	}
	if recvHigh != nil {
		data, _, _, err := recvHigh.Wait()
		if err != nil {
			return err
		}
		haloHigh = bytesToFloats(data)
		mpi.PutBuffer(data)
	}
	if err := s.SetHalo(haloLow, haloHigh); err != nil {
		return err
	}
	s.Stream()
	return nil
}

// Vorticity exchanges boundary velocity rows with the neighbors and
// returns the slab's vorticity field (NY*Width float32 values).
func (ps *Parallel) Vorticity() ([]float32, error) {
	s := ps.Slab
	c := ps.Comm
	uxLow, uyLow, uxHigh, uyHigh := s.VelocityEdgeRows()

	var reqs []*mpi.Request
	var recvLow, recvHigh *mpi.Request
	if c.Rank() > 0 {
		reqs = append(reqs, c.Isend(c.Rank()-1, tagVelocityDn, floatsToBytes(append(uxLow, uyLow...))))
		recvLow = c.Irecv(c.Rank()-1, tagVelocityUp)
	}
	if c.Rank() < c.Size()-1 {
		reqs = append(reqs, c.Isend(c.Rank()+1, tagVelocityUp, floatsToBytes(append(uxHigh, uyHigh...))))
		recvHigh = c.Irecv(c.Rank()+1, tagVelocityDn)
	}
	if err := mpi.WaitAll(reqs...); err != nil {
		return nil, err
	}
	w := s.P.Width
	var uxBelow, uyBelow, uxAbove, uyAbove []float64
	if recvLow != nil {
		data, _, _, err := recvLow.Wait()
		if err != nil {
			return nil, err
		}
		fl := bytesToFloats(data)
		mpi.PutBuffer(data)
		uxBelow, uyBelow = fl[:w], fl[w:]
	}
	if recvHigh != nil {
		data, _, _, err := recvHigh.Wait()
		if err != nil {
			return nil, err
		}
		fl := bytesToFloats(data)
		mpi.PutBuffer(data)
		uxAbove, uyAbove = fl[:w], fl[w:]
	}
	return s.VorticityInterior(uxBelow, uyBelow, uxAbove, uyAbove), nil
}
