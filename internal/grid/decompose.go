package grid

import (
	"fmt"
	"strings"
)

// SplitEven partitions length n into parts pieces whose sizes differ by at
// most one, returning the start offset of each piece plus a final sentinel
// equal to n. Earlier pieces receive the remainder, matching the common
// block distribution used by the paper's use cases.
func SplitEven(n, parts int) []int {
	if parts <= 0 {
		panic(fmt.Sprintf("grid: SplitEven with %d parts", parts))
	}
	starts := make([]int, parts+1)
	base, rem := n/parts, n%parts
	off := 0
	for i := 0; i < parts; i++ {
		starts[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	starts[parts] = n
	return starts
}

// Slabs decomposes domain into count slabs along the given axis. Slab i is
// returned in element order; sizes differ by at most one element along the
// split axis. This is the decomposition the paper's LBM simulation uses
// (horizontal slices so each rank talks to at most two neighbors).
func Slabs(domain Box, axis, count int) []Box {
	if axis < 0 || axis >= domain.NDims {
		panic(fmt.Sprintf("grid: slab axis %d out of range for %dD domain", axis, domain.NDims))
	}
	starts := SplitEven(domain.Dims[axis], count)
	out := make([]Box, count)
	for i := range out {
		b := domain
		b.Offset[axis] = domain.Offset[axis] + starts[i]
		b.Dims[axis] = starts[i+1] - starts[i]
		out[i] = b
	}
	return out
}

// Factor2 returns the factorization rows×cols = count with rows ≤ cols and
// the two factors as close as possible — the "as close to square as
// possible" grid the paper's analysis application expects.
func Factor2(count int) (rows, cols int) {
	rows = 1
	for f := 1; f*f <= count; f++ {
		if count%f == 0 {
			rows = f
		}
	}
	return rows, count / rows
}

// Factor3 returns nx×ny×nz = count with the three factors as close to the
// cube root as possible (largest factor ≤ cube-root first), matching the
// near-cube brick decomposition used for distributed volume rendering.
func Factor3(count int) (nx, ny, nz int) {
	best := [3]int{1, 1, count}
	bestScore := -1
	for a := 1; a*a*a <= count; a++ {
		if count%a != 0 {
			continue
		}
		rest := count / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			// Prefer the most balanced triple: maximize the minimum
			// factor, then minimize the maximum.
			score := a*1_000_000 + b*1_000 - c
			if score > bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// Grid2D decomposes a 2D domain into rows×cols near-equal rectangles,
// returned row-major (rank = row*cols + col).
func Grid2D(domain Box, rows, cols int) []Box {
	if domain.NDims != 2 {
		panic("grid: Grid2D requires a 2D domain")
	}
	xs := SplitEven(domain.Dims[0], cols)
	ys := SplitEven(domain.Dims[1], rows)
	out := make([]Box, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, Box2(
				domain.Offset[0]+xs[c], domain.Offset[1]+ys[r],
				xs[c+1]-xs[c], ys[r+1]-ys[r]))
		}
	}
	return out
}

// Bricks3D decomposes a 3D domain into nx×ny×nz near-equal boxes, returned
// x-fastest (rank = (z*ny+y)*nx + x). This is the brick decomposition the
// DVR use case needs.
func Bricks3D(domain Box, nx, ny, nz int) []Box {
	if domain.NDims != 3 {
		panic("grid: Bricks3D requires a 3D domain")
	}
	xs := SplitEven(domain.Dims[0], nx)
	ys := SplitEven(domain.Dims[1], ny)
	zs := SplitEven(domain.Dims[2], nz)
	out := make([]Box, 0, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				out = append(out, Box3(
					domain.Offset[0]+xs[x], domain.Offset[1]+ys[y], domain.Offset[2]+zs[z],
					xs[x+1]-xs[x], ys[y+1]-ys[y], zs[z+1]-zs[z]))
			}
		}
	}
	return out
}

// RoundRobinSlices assigns the `count` unit-thick slices of domain along
// axis to nRanks ranks round-robin and returns, per rank, the list of
// slices it owns (each slice a separate chunk — the paper's "DDR
// (Round-Robin)" configuration for TIFF loading).
func RoundRobinSlices(domain Box, axis, nRanks int) [][]Box {
	out := make([][]Box, nRanks)
	n := domain.Dims[axis]
	for s := 0; s < n; s++ {
		r := s % nRanks
		b := domain
		b.Offset[axis] = domain.Offset[axis] + s
		b.Dims[axis] = 1
		out[r] = append(out[r], b)
	}
	return out
}

// ConsecutiveSlices assigns consecutive runs of slices along axis to each
// rank, one contiguous chunk per rank (the paper's "DDR (Consecutive)"
// configuration). Rank i's chunk may be empty if n < nRanks.
func ConsecutiveSlices(domain Box, axis, nRanks int) [][]Box {
	starts := SplitEven(domain.Dims[axis], nRanks)
	out := make([][]Box, nRanks)
	for i := 0; i < nRanks; i++ {
		if starts[i+1] == starts[i] {
			continue
		}
		b := domain
		b.Offset[axis] = domain.Offset[axis] + starts[i]
		b.Dims[axis] = starts[i+1] - starts[i]
		out[i] = []Box{b}
	}
	return out
}

// MaxReportedOverlaps bounds how many overlapping pairs a CoverageError
// enumerates; a broken layout at scale can overlap nearly everywhere, and
// the first few pairs are what a human needs to locate the bug.
const MaxReportedOverlaps = 10

// OverlapPair is one violation of mutual exclusivity: two boxes sharing
// at least one element, with their owning ranks when known.
type OverlapPair struct {
	Boxes  [2]int // indices into the verified slice, ascending
	Owners [2]int // owning ranks, or -1 when the caller gave no owners
	Region Box    // the shared region
}

func (p OverlapPair) String() string {
	if p.Owners[0] >= 0 || p.Owners[1] >= 0 {
		return fmt.Sprintf("box %d (rank %d) and box %d (rank %d) share %v",
			p.Boxes[0], p.Owners[0], p.Boxes[1], p.Owners[1], p.Region)
	}
	return fmt.Sprintf("boxes %d and %d share %v", p.Boxes[0], p.Boxes[1], p.Region)
}

// CoverageError describes how a set of boxes fails to tile a domain.
type CoverageError struct {
	// Overlaps lists the overlapping pairs found, up to
	// MaxReportedOverlaps; Truncated is true when more exist.
	Overlaps  []OverlapPair
	Truncated bool
	Escapee   *int // index of a box not contained in the domain, if any
	Shortage  int  // number of domain elements covered by no box
}

func (e *CoverageError) Error() string {
	switch {
	case len(e.Overlaps) > 0:
		var sb strings.Builder
		fmt.Fprintf(&sb, "grid: %d overlapping pair(s):", len(e.Overlaps))
		for _, p := range e.Overlaps {
			sb.WriteString(" [")
			sb.WriteString(p.String())
			sb.WriteByte(']')
		}
		if e.Truncated {
			sb.WriteString(" (more overlaps not shown)")
		}
		return sb.String()
	case e.Escapee != nil:
		return fmt.Sprintf("grid: box %d extends outside the domain", *e.Escapee)
	default:
		return fmt.Sprintf("grid: %d domain elements are uncovered", e.Shortage)
	}
}

// VerifyTilingOwned checks that boxes are pairwise disjoint, contained in
// domain, and collectively cover it — the "mutually exclusive and
// complete" requirement the paper places on owned data. Empty boxes are
// ignored. Returns nil when the tiling is exact. owners[i] is the rank
// that contributed boxes[i], carried into any CoverageError so callers
// need not reconstruct the mapping; a nil owners reports ranks as -1.
// The pairwise-disjointness check runs through a spatial index, one
// O(log n + k) overlap query per box instead of the historical pairwise
// sweep, so verification stays near O(n log n) for every layout shape
// (stacked slabs included, which degenerated the axis-0 sweep).
func VerifyTilingOwned(domain Box, boxes []Box, owners []int) error {
	vol := 0
	for i, b := range boxes {
		if b.Empty() {
			continue
		}
		if !domain.Contains(b) {
			i := i
			return &CoverageError{Escapee: &i}
		}
		vol += b.Volume()
	}
	ownerOf := func(i int) int {
		if owners == nil {
			return -1
		}
		return owners[i]
	}
	ix := NewIndex(boxes)
	var ce *CoverageError
	var hits []int
	for i, b := range boxes {
		if b.Empty() {
			continue
		}
		hits = ix.QueryAppend(hits[:0], b)
		for _, j := range hits {
			if j <= i { // each pair once, self excluded
				continue
			}
			if ce == nil {
				ce = &CoverageError{}
			}
			if len(ce.Overlaps) >= MaxReportedOverlaps {
				ce.Truncated = true
				return ce
			}
			region, _ := b.Intersect(boxes[j])
			ce.Overlaps = append(ce.Overlaps, OverlapPair{
				Boxes:  [2]int{i, j},
				Owners: [2]int{ownerOf(i), ownerOf(j)},
				Region: region,
			})
		}
	}
	if ce != nil {
		return ce
	}
	if vol != domain.Volume() {
		return &CoverageError{Shortage: domain.Volume() - vol}
	}
	return nil
}
