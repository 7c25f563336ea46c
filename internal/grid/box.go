// Package grid provides the integer-lattice geometry used throughout the
// DDR library: axis-aligned boxes in 1, 2, or 3 dimensions, intersection
// tests, and the domain decompositions that the paper's use cases rely on
// (slabs, near-cube bricks, and round-robin slice assignments).
//
// Conventions follow the paper: dimension vectors are ordered [w], [w,h],
// or [w,h,d]; offsets use the same order; the linear index of element
// (x,y,z) in a w×h×d array is ((z*h)+y)*w + x.
package grid

import (
	"fmt"
	"strings"
)

// MaxDims is the maximum number of spatial dimensions supported (the DDR
// paper supports 1D, 2D, and 3D arrays).
const MaxDims = 3

// Box is an axis-aligned region of an N-dimensional integer lattice.
// Offset is the position of the box's low corner within the overall
// domain and Dims is the box's extent along each axis. Only the first
// NDims entries of each array are meaningful; the rest must be zero for
// Offset and one for Dims so that volume computations stay correct.
type Box struct {
	NDims  int
	Offset [MaxDims]int
	Dims   [MaxDims]int
}

// NewBox builds a Box from offset and dimension slices of equal length
// (1 to MaxDims entries). Unused trailing dimensions are normalized to
// offset 0 and extent 1.
func NewBox(offset, dims []int) (Box, error) {
	if len(offset) != len(dims) {
		return Box{}, fmt.Errorf("grid: offset has %d entries but dims has %d", len(offset), len(dims))
	}
	if len(dims) < 1 || len(dims) > MaxDims {
		return Box{}, fmt.Errorf("grid: dimensionality %d out of range [1,%d]", len(dims), MaxDims)
	}
	b := Box{NDims: len(dims)}
	for i := range b.Dims {
		b.Dims[i] = 1
	}
	for i, d := range dims {
		if d < 0 {
			return Box{}, fmt.Errorf("grid: negative extent %d on axis %d", d, i)
		}
		b.Dims[i] = d
		b.Offset[i] = offset[i]
	}
	return b, nil
}

// MustBox is NewBox for statically correct literals; it panics on error.
func MustBox(offset, dims []int) Box {
	b, err := NewBox(offset, dims)
	if err != nil {
		panic(err)
	}
	return b
}

// Box1 returns a 1D box covering [off, off+w).
func Box1(off, w int) Box { return MustBox([]int{off}, []int{w}) }

// Box2 returns a 2D box with low corner (ox,oy) and extent w×h.
func Box2(ox, oy, w, h int) Box { return MustBox([]int{ox, oy}, []int{w, h}) }

// Box3 returns a 3D box with low corner (ox,oy,oz) and extent w×h×d.
func Box3(ox, oy, oz, w, h, d int) Box { return MustBox([]int{ox, oy, oz}, []int{w, h, d}) }

// Volume reports the number of lattice elements contained in the box.
func (b Box) Volume() int {
	v := 1
	for i := 0; i < b.NDims; i++ {
		v *= b.Dims[i]
	}
	return v
}

// Empty reports whether the box contains no elements.
func (b Box) Empty() bool { return b.Volume() == 0 }

// End returns the exclusive high corner along axis i.
func (b Box) End(i int) int { return b.Offset[i] + b.Dims[i] }

// Contains reports whether every element of inner lies within b.
func (b Box) Contains(inner Box) bool {
	if inner.Empty() {
		return true
	}
	for i := 0; i < max(b.NDims, inner.NDims); i++ {
		if inner.Offset[i] < b.Offset[i] || inner.End(i) > b.End(i) {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the lattice point p (NDims entries used)
// lies within b.
func (b Box) ContainsPoint(p [MaxDims]int) bool {
	for i := 0; i < b.NDims; i++ {
		if p[i] < b.Offset[i] || p[i] >= b.End(i) {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of a and b and whether it is non-empty.
// The result has the dimensionality of a.
func (a Box) Intersect(b Box) (Box, bool) {
	out := Box{NDims: a.NDims}
	for i := range out.Dims {
		out.Dims[i] = 1
	}
	for i := 0; i < a.NDims; i++ {
		lo := max(a.Offset[i], b.Offset[i])
		hi := min(a.End(i), b.End(i))
		if hi <= lo {
			return Box{NDims: a.NDims}, false
		}
		out.Offset[i] = lo
		out.Dims[i] = hi - lo
	}
	return out, true
}

// Overlaps reports whether a and b share at least one element: the ok of
// Intersect without building the overlap.
func (a Box) Overlaps(b Box) bool {
	for i := 0; i < a.NDims; i++ {
		if min(a.End(i), b.End(i)) <= max(a.Offset[i], b.Offset[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether a and b describe the same region with the same
// dimensionality.
func (a Box) Equal(b Box) bool {
	if a.NDims != b.NDims {
		return false
	}
	for i := 0; i < a.NDims; i++ {
		if a.Offset[i] != b.Offset[i] || a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	return true
}

// LocalTo re-expresses b relative to the low corner of base, i.e. the
// returned box has base's corner subtracted from b's offset. It is used
// to address a sub-region within a chunk's private buffer.
func (b Box) LocalTo(base Box) Box {
	out := b
	for i := 0; i < b.NDims; i++ {
		out.Offset[i] = b.Offset[i] - base.Offset[i]
	}
	return out
}

// OffsetSlice returns the significant offset entries as a fresh slice.
func (b Box) OffsetSlice() []int {
	out := make([]int, b.NDims)
	copy(out, b.Offset[:b.NDims])
	return out
}

// DimsSlice returns the significant extent entries as a fresh slice.
func (b Box) DimsSlice() []int {
	out := make([]int, b.NDims)
	copy(out, b.Dims[:b.NDims])
	return out
}

// BoundingBox returns the smallest box containing every non-empty input
// box (dimensionality taken from the first). ok is false when no
// non-empty boxes were given.
func BoundingBox(boxes []Box) (Box, bool) {
	var out Box
	found := false
	for _, b := range boxes {
		if b.Empty() {
			continue
		}
		if !found {
			out = b
			found = true
			continue
		}
		for i := 0; i < out.NDims; i++ {
			lo := min(out.Offset[i], b.Offset[i])
			hi := max(out.End(i), b.End(i))
			out.Offset[i] = lo
			out.Dims[i] = hi - lo
		}
	}
	return out, found
}

// String renders the box as "offset+dims", e.g. "(0,4)+(4,4)".
func (b Box) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i := 0; i < b.NDims; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", b.Offset[i])
	}
	sb.WriteString(")+(")
	for i := 0; i < b.NDims; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", b.Dims[i])
	}
	sb.WriteByte(')')
	return sb.String()
}
