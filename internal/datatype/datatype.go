// Package datatype implements the sub-array data layouts DDR uses to
// address multidimensional subsets of process-local buffers, playing the
// role MPI derived datatypes (MPI_Type_create_subarray) play in the
// original C implementation.
//
// A Type describes which bytes of a local array participate in a message.
// Pack gathers those bytes into a contiguous wire buffer and Unpack
// scatters a wire buffer back into a local array. All arrays are row-major
// with x fastest, matching the paper's [w], [w,h], [w,h,d] convention.
package datatype

import (
	"fmt"

	"ddr/internal/grid"
)

// Type describes the portion of a process-local buffer that participates
// in a single message.
type Type interface {
	// PackedSize returns the number of bytes the region occupies on the wire.
	PackedSize() int
	// Pack copies the region from the local array into wire, which must be
	// at least PackedSize() bytes. It returns the bytes written.
	Pack(local []byte, wire []byte) int
	// Unpack copies wire (PackedSize() bytes) into the region of the local
	// array. It returns the bytes consumed.
	Unpack(wire []byte, local []byte) int
	// ContiguousSpan reports whether the region occupies a single
	// contiguous byte range of the local array and, if so, its byte offset
	// and length. Contiguous regions need no gather/scatter staging: the
	// wire representation is local[off : off+n] verbatim, which enables the
	// zero-copy fast paths in the exchange engine.
	ContiguousSpan() (off, n int, ok bool)
	// Runs returns a cursor over the region's contiguous byte runs,
	// sub-slices of local in pack order — what a vectored write sends in
	// place of Pack's output.
	Runs(local []byte) Runs
}

// Subarray addresses a box-shaped sub-region of a local array.
//
// Array describes the full extents of the local buffer; its offset gives
// the buffer's position in the global domain, so a Sub box expressed in
// global coordinates is located within the buffer by subtracting Array's
// offset. ElemSize is the byte size of one element.
type Subarray struct {
	ElemSize int
	Array    grid.Box // full local array (global offset + extents)
	Sub      grid.Box // region to transfer, in global coordinates

	// The row-run geometry of the copy loops, derived once by Init, so a
	// Subarray built any other way moves nothing: the byte offset of the
	// first element, the length of one contiguous run, the strides
	// between consecutive runs along y and z, and the run counts — zero
	// for an empty region. The exported fields must not change after.
	start, run, strideY, strideZ, ny, nz int
}

// NewSubarray validates and builds a Subarray. The sub box must lie within
// the array box and elemSize must be positive.
func NewSubarray(elemSize int, array, sub grid.Box) (*Subarray, error) {
	s := new(Subarray)
	if err := s.Init(elemSize, array, sub); err != nil {
		return nil, err
	}
	return s, nil
}

// Init is NewSubarray in place: it validates the arguments as NewSubarray
// does and builds the Subarray into s, so a caller that needs many can
// allocate them as one slice. s is left unchanged on error.
func (s *Subarray) Init(elemSize int, array, sub grid.Box) error {
	if elemSize <= 0 {
		return fmt.Errorf("datatype: element size %d must be positive", elemSize)
	}
	if array.NDims != sub.NDims {
		return fmt.Errorf("datatype: array is %dD but sub-region is %dD", array.NDims, sub.NDims)
	}
	if !array.Contains(sub) {
		return fmt.Errorf("datatype: sub-region %v not contained in array %v", sub, array)
	}
	*s = Subarray{ElemSize: elemSize, Array: array, Sub: sub}
	if !sub.Empty() {
		local := sub.LocalTo(array)
		w := array.Dims[0]
		h := 1
		if array.NDims >= 2 {
			h = array.Dims[1]
		}
		s.start = (((local.Offset[2]*h)+local.Offset[1])*w + local.Offset[0]) * elemSize
		s.run = local.Dims[0] * elemSize
		s.strideY = w * elemSize
		s.strideZ = w * h * elemSize
		s.ny, s.nz = local.Dims[1], local.Dims[2]
	}
	return nil
}

// PackedSize implements Type.
func (s *Subarray) PackedSize() int { return s.Sub.Volume() * s.ElemSize }

// Pack implements Type.
func (s *Subarray) Pack(local []byte, wire []byte) int {
	start, run, strideY, strideZ, ny, nz := s.start, s.run, s.strideY, s.strideZ, s.ny, s.nz
	w := 0
	for z := 0; z < nz; z++ {
		rowBase := start + z*strideZ
		for y := 0; y < ny; y++ {
			copy(wire[w:w+run], local[rowBase:rowBase+run])
			w += run
			rowBase += strideY
		}
	}
	return w
}

// Runs implements Type.
func (s *Subarray) Runs(local []byte) Runs {
	return Runs{local: local, start: s.start, run: s.run, strideY: s.strideY, strideZ: s.strideZ, ny: s.ny, nz: s.nz}
}

// Unpack implements Type.
func (s *Subarray) Unpack(wire []byte, local []byte) int {
	start, run, strideY, strideZ, ny, nz := s.start, s.run, s.strideY, s.strideZ, s.ny, s.nz
	r := 0
	for z := 0; z < nz; z++ {
		rowBase := start + z*strideZ
		for y := 0; y < ny; y++ {
			copy(local[rowBase:rowBase+run], wire[r:r+run])
			r += run
			rowBase += strideY
		}
	}
	return r
}

// ContiguousSpan implements Type. A sub-region is contiguous in the
// row-major local array exactly when it spans the full array extent on
// every axis below its first partial axis and is flat (extent 1) on every
// axis above it: full-width row bands in 2D, whole xy-slab stacks in 3D,
// any 1D interval, and the whole array itself.
func (s *Subarray) ContiguousSpan() (off, n int, ok bool) {
	local := s.Sub.LocalTo(s.Array)
	first := -1
	for d := 0; d < grid.MaxDims; d++ {
		if local.Offset[d] == 0 && local.Dims[d] == s.Array.Dims[d] {
			continue
		}
		first = d
		break
	}
	if first >= 0 {
		for d := first + 1; d < grid.MaxDims; d++ {
			if local.Dims[d] != 1 {
				return 0, 0, false
			}
		}
	}
	return s.start, s.PackedSize(), true
}

// String describes the subarray for diagnostics.
func (s *Subarray) String() string {
	return fmt.Sprintf("subarray{%v of %v, %dB elems}", s.Sub, s.Array, s.ElemSize)
}

// Runs is a cursor over a region's contiguous byte runs, sub-slices of
// the local array in pack order, one at a time and without a list. The
// zero value has no runs.
type Runs struct {
	local                                []byte
	start, run, strideY, strideZ, ny, nz int
	y, z                                 int
}

// Next returns the next run, or nil after the last.
func (r *Runs) Next() []byte {
	if r.z == r.nz {
		return nil
	}
	at := r.start + r.z*r.strideZ + r.y*r.strideY
	if r.y++; r.y == r.ny {
		r.y, r.z = 0, r.z+1
	}
	return r.local[at : at+r.run]
}

// Contiguous is a Type covering an entire contiguous byte range — the
// degenerate datatype used for already-linear payloads such as streamed
// simulation slabs.
type Contiguous struct {
	Bytes int
}

// PackedSize implements Type.
func (c Contiguous) PackedSize() int { return c.Bytes }

// Pack implements Type.
func (c Contiguous) Pack(local []byte, wire []byte) int {
	return copy(wire[:c.Bytes], local[:c.Bytes])
}

// Unpack implements Type.
func (c Contiguous) Unpack(wire []byte, local []byte) int {
	return copy(local[:c.Bytes], wire[:c.Bytes])
}

// ContiguousSpan implements Type.
func (c Contiguous) ContiguousSpan() (off, n int, ok bool) { return 0, c.Bytes, true }

// Runs implements Type.
func (c Contiguous) Runs(local []byte) Runs {
	if c.Bytes == 0 {
		return Runs{}
	}
	return Runs{local: local, run: c.Bytes, ny: 1, nz: 1}
}

// Empty is a zero-size Type used for peers that exchange no data in a
// given round (the alltoallw slots MPI would fill with zero counts).
type Empty struct{}

// PackedSize implements Type.
func (Empty) PackedSize() int { return 0 }

// Pack implements Type.
func (Empty) Pack([]byte, []byte) int { return 0 }

// Unpack implements Type.
func (Empty) Unpack([]byte, []byte) int { return 0 }

// ContiguousSpan implements Type.
func (Empty) ContiguousSpan() (off, n int, ok bool) { return 0, 0, true }

// Runs implements Type.
func (Empty) Runs([]byte) Runs { return Runs{} }
