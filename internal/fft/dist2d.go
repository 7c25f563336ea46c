package fft

import (
	"fmt"
	"unsafe"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Dist2D is a distributed 2D FFT over an n×n complex grid on P ranks.
//
// The grid lives in two decompositions at once:
//
//   - row slabs: rank r owns rows [r·H, (r+1)·H), H = n/P, stored
//     row-major in rowBuf (x fastest) — the layout row FFTs want;
//   - column pencils: rank r owns columns [r·W, (r+1)·W), W = n/P,
//     stored row-major in colBuf (W wide × n tall) — every column of
//     the global grid is complete on exactly one rank.
//
// Forward runs row FFTs in the slab decomposition, redistributes to
// pencils, and runs column FFTs; Inverse is the mirror image. The
// slab↔pencil redistribution is the classic distributed-FFT transpose
// and is exactly a DDR exchange: each direction is one descriptor whose
// own side is the current decomposition and whose need box is the
// other. To give the pipelined exchange engine rounds to overlap, each
// rank registers its slab as nb equal chunks (nb = Blocks()); the plan
// then runs nb rounds per direction, and at pipeline depth k ≥ 2 round
// r+1's pack and round r−1's unpack hide behind round r's wire time.
//
// The forward own chunks are horizontal row bands — strided against the
// column-pencil need, so packs do real gather work — while the inverse
// own chunks are full-width bands of colBuf, contiguous spans that take
// the zero-copy send path. One workload exercises both extremes.
type Dist2D struct {
	n     int // grid edge (power of two)
	nb    int // chunks (= exchange rounds) per transpose direction
	rank  int
	procs int

	rowBuf  []complex128 // H×n row slab, row-major
	colBuf  []complex128 // n×W column pencil slab, row-major
	scratch []complex128 // one row: the copy the row kernel permutes from

	rowChunkBytes [][]byte // nb views into rowBuf, one per forward own chunk
	colChunkBytes [][]byte // nb views into colBuf, one per inverse own chunk
	rowBytes      []byte   // whole rowBuf (inverse need buffer)
	colBytes      []byte   // whole colBuf (forward need buffer)

	fwd, inv *core.Descriptor
	plan     *Plan // length-n transform shared by rows and columns

	// handWire holds the hand baseline's per-peer pack buffers, built by
	// its first forward transpose: the DDR path never needs them.
	handWire [][]complex128
}

// Hand-baseline tags: below core.ExchangeTagBase so they cannot collide
// with DDR's exchange tag range, far above anything the mapping
// collectives use. Exported so benchmarks can aim fault injectors at
// both engines' data traffic with one tag floor.
const (
	// HandTagFloor is the first tag the hand-written transpose uses;
	// delaying every tag ≥ HandTagFloor slows DDR and hand traffic alike.
	HandTagFloor = 1 << 19
	handTagFwd   = HandTagFloor
	handTagInv   = HandTagFloor + 1
)

// complexBytes reinterprets a complex128 slice as its backing bytes.
func complexBytes(x []complex128) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), len(x)*16)
}

// NewDist2D builds the distributed transform state on one rank and runs
// the two collective SetupDataMapping calls. n must be a power of two
// divisible by c.Size()·nb, so every rank holds whole row and column
// bands and every band splits into nb equal chunks. Extra descriptor
// options (core.WithPipelineDepth, core.WithMemoryBudget, ...) are
// appended to both directions' descriptors.
func NewDist2D(c *mpi.Comm, n, nb int, opts ...core.Option) (*Dist2D, error) {
	p := c.Size()
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: grid edge %d is not a power of two", n)
	}
	if nb < 1 {
		return nil, fmt.Errorf("fft: block count %d must be positive", nb)
	}
	if n%(p*nb) != 0 {
		return nil, fmt.Errorf("fft: grid edge %d not divisible by ranks×blocks = %d×%d", n, p, nb)
	}
	plan, err := PlanFor(n)
	if err != nil {
		return nil, err
	}
	d := &Dist2D{
		n:       n,
		nb:      nb,
		rank:    c.Rank(),
		procs:   p,
		rowBuf:  make([]complex128, n/p*n),
		colBuf:  make([]complex128, n*(n/p)),
		scratch: make([]complex128, n),
		plan:    plan,
	}
	h := d.rowsPerRank() / nb // rows per forward chunk
	g := n / nb               // rows per inverse chunk
	w := d.colsPerRank()
	rowChunks := make([]grid.Box, nb)
	colChunks := make([]grid.Box, nb)
	d.rowChunkBytes = make([][]byte, nb)
	d.colChunkBytes = make([][]byte, nb)
	for j := 0; j < nb; j++ {
		rowChunks[j] = grid.Box2(0, d.rank*d.rowsPerRank()+j*h, n, h)
		colChunks[j] = grid.Box2(d.rank*w, j*g, w, g)
		d.rowChunkBytes[j] = complexBytes(d.rowBuf[j*h*n : (j+1)*h*n])
		d.colChunkBytes[j] = complexBytes(d.colBuf[j*g*w : (j+1)*g*w])
	}
	d.rowBytes = complexBytes(d.rowBuf)
	d.colBytes = complexBytes(d.colBuf)

	dopts := append([]core.Option{core.WithElemSize(16)}, opts...)
	if d.fwd, err = core.NewDescriptor(p, core.Layout2D, core.Uint8, dopts...); err != nil {
		return nil, err
	}
	if d.inv, err = core.NewDescriptor(p, core.Layout2D, core.Uint8, dopts...); err != nil {
		return nil, err
	}
	if err = d.fwd.SetupDataMapping(c, rowChunks, grid.Box2(d.rank*w, 0, w, n)); err != nil {
		return nil, fmt.Errorf("fft: forward transpose mapping: %w", err)
	}
	if err = d.inv.SetupDataMapping(c, colChunks, grid.Box2(0, d.rank*d.rowsPerRank(), n, d.rowsPerRank())); err != nil {
		return nil, fmt.Errorf("fft: inverse transpose mapping: %w", err)
	}
	return d, nil
}

func (d *Dist2D) rowsPerRank() int { return d.n / d.procs }
func (d *Dist2D) colsPerRank() int { return d.n / d.procs }

// Rows exposes this rank's row slab: rowsPerRank rows of n elements,
// row-major. Fill it before Forward; Inverse restores it.
func (d *Dist2D) Rows() []complex128 { return d.rowBuf }

// Pencils exposes this rank's column-pencil slab after Forward: n rows
// of colsPerRank elements, row-major, holding the 2D spectrum columns
// [rank·W, (rank+1)·W). Pointwise spectral operators apply here.
func (d *Dist2D) Pencils() []complex128 { return d.colBuf }

// Descriptors returns the forward and inverse transpose descriptors, so
// callers can read LastTimings, LastOverlapRatio, or staging telemetry.
func (d *Dist2D) Descriptors() (fwd, inv *core.Descriptor) { return d.fwd, d.inv }

// TransposeForward redistributes the row slab into the column-pencil
// slab via the DDR exchange (nb rounds, pipelined per the descriptor's
// depth).
func (d *Dist2D) TransposeForward(c *mpi.Comm) error {
	return d.fwd.ReorganizeData(c, d.rowChunkBytes, d.colBytes)
}

// TransposeInverse redistributes the column-pencil slab back into the
// row slab.
func (d *Dist2D) TransposeInverse(c *mpi.Comm) error {
	return d.inv.ReorganizeData(c, d.colChunkBytes, d.rowBytes)
}

// rowPass transforms every local row in place (inverse=false forward,
// true inverse).
func (d *Dist2D) rowPass(inverse bool) {
	for i := 0; i < d.rowsPerRank(); i++ {
		d.plan.transform(d.rowBuf[i*d.n:(i+1)*d.n], d.scratch, inverse)
	}
}

// colPass transforms every local column of the pencil slab in place,
// all W at once.
func (d *Dist2D) colPass(inverse bool) {
	d.plan.transformCols(d.colBuf, d.colsPerRank(), inverse)
}

// Forward computes the 2D forward transform: row FFTs on the slab,
// slab→pencil transpose, column FFTs on the pencils. On return Pencils
// holds this rank's columns of the spectrum.
func (d *Dist2D) Forward(c *mpi.Comm) error {
	d.rowPass(false)
	if err := d.TransposeForward(c); err != nil {
		return err
	}
	d.colPass(false)
	return nil
}

// Inverse undoes Forward: column inverse FFTs, pencil→slab transpose,
// row inverse FFTs. After Forward+Inverse the row slab is restored up
// to rounding.
func (d *Dist2D) Inverse(c *mpi.Comm) error {
	d.colPass(true)
	if err := d.TransposeInverse(c); err != nil {
		return err
	}
	d.rowPass(true)
	return nil
}

// Step is one spectral timestep: forward transform, then inverse. Real
// solvers would apply a pointwise operator between the two; for the
// benchmark the identity keeps the round trip checkable.
func (d *Dist2D) Step(c *mpi.Comm) error {
	if err := d.Forward(c); err != nil {
		return err
	}
	return d.Inverse(c)
}

// HandTransposeForward is the hand-written slab→pencil transpose every
// distributed FFT ships before it grows a redistribution library: one
// eagerly-sent message per peer, manual strided pack on the send side,
// contiguous unpack on the receive side. It is the baseline the DDR
// path must stay within ~1.2× of.
func (d *Dist2D) HandTransposeForward(c *mpi.Comm) error {
	hh, w := d.rowsPerRank(), d.colsPerRank()
	if d.handWire == nil {
		d.handWire = make([][]complex128, d.procs)
		for peer := range d.handWire {
			if peer != d.rank {
				d.handWire[peer] = make([]complex128, hh*w)
			}
		}
	}
	for peer := 0; peer < d.procs; peer++ {
		if peer == d.rank {
			continue
		}
		wire := d.handWire[peer]
		for i := 0; i < hh; i++ {
			copy(wire[i*w:(i+1)*w], d.rowBuf[i*d.n+peer*w:i*d.n+(peer+1)*w])
		}
		if err := c.Send(peer, handTagFwd, complexBytes(wire)); err != nil {
			return err
		}
	}
	for i := 0; i < hh; i++ {
		copy(d.colBuf[(d.rank*hh+i)*w:(d.rank*hh+i+1)*w], d.rowBuf[i*d.n+d.rank*w:i*d.n+(d.rank+1)*w])
	}
	for peers := d.procs - 1; peers > 0; peers-- {
		data, from, _, err := c.Recv(mpi.AnySource, handTagFwd)
		if err != nil {
			return err
		}
		// Peer from's rows are globally contiguous in the pencil slab.
		copy(d.colBytes[from*hh*w*16:(from+1)*hh*w*16], data)
		mpi.PutBuffer(data)
	}
	return nil
}

// HandTransposeInverse is the mirror baseline: full-width bands of the
// pencil slab are contiguous, so sends are zero-copy slices and the
// receive side pays the strided scatter.
func (d *Dist2D) HandTransposeInverse(c *mpi.Comm) error {
	hh, w := d.rowsPerRank(), d.colsPerRank()
	for peer := 0; peer < d.procs; peer++ {
		if peer == d.rank {
			continue
		}
		if err := c.Send(peer, handTagInv, complexBytes(d.colBuf[peer*hh*w:(peer+1)*hh*w])); err != nil {
			return err
		}
	}
	for i := 0; i < hh; i++ {
		copy(d.rowBuf[i*d.n+d.rank*w:i*d.n+(d.rank+1)*w], d.colBuf[(d.rank*hh+i)*w:(d.rank*hh+i+1)*w])
	}
	for peers := d.procs - 1; peers > 0; peers-- {
		data, from, _, err := c.Recv(mpi.AnySource, handTagInv)
		if err != nil {
			return err
		}
		// Byte-wise scatter: the transport owns data's alignment, so no
		// complex128 reinterpretation of the wire buffer.
		for i := 0; i < hh; i++ {
			copy(d.rowBytes[(i*d.n+from*w)*16:(i*d.n+(from+1)*w)*16], data[i*w*16:(i+1)*w*16])
		}
		mpi.PutBuffer(data)
	}
	return nil
}

// HandStep is Step with both transposes replaced by the hand-written
// baseline; FFT compute is identical, so any timing difference is the
// redistribution engines'.
func (d *Dist2D) HandStep(c *mpi.Comm) error {
	d.rowPass(false)
	if err := d.HandTransposeForward(c); err != nil {
		return err
	}
	d.colPass(false)
	d.colPass(true)
	if err := d.HandTransposeInverse(c); err != nil {
		return err
	}
	d.rowPass(true)
	return nil
}
