package datatype

import "fmt"

// maxCompiledRuns bounds the memory a compiled run list may spend. A 3D
// subarray of a large array can decompose into millions of rows; past
// this point the flattened offset table costs more cache traffic than
// the nested row loop it replaces, so compilation declines and the
// caller keeps the original type.
const maxCompiledRuns = 1 << 16

// RunList is a Type compiled down to an explicit table of byte runs: one
// starting offset per contiguous row of the region, all rows the same
// length. It is the "manual pack" strategy of the exchange autotuner —
// Pack and Unpack degenerate to a single flat loop of fixed-size copies,
// trading the Subarray's per-call stride arithmetic for a precomputed
// offset table that the branch predictor and prefetcher handle well.
//
// A RunList is semantically interchangeable with the Type it was
// compiled from: it packs the same bytes in the same order, so the wire
// format is identical and either side of an exchange may use either
// representation.
type RunList struct {
	offs []int // starting byte offset of each run in the local array
	run  int   // length of every run in bytes
	span contigSpan
}

// contigSpan mirrors the source type's ContiguousSpan result.
type contigSpan struct {
	off, n int
	ok     bool
}

// CompileRuns flattens t into a RunList when t is a *Subarray whose
// region decomposes into at most maxCompiledRuns equal-length rows.
// It returns (nil, false) for any other type — including already
// contiguous or empty regions, which have nothing to gain.
func CompileRuns(t Type) (*RunList, bool) {
	s, ok := t.(*Subarray)
	if !ok || s.Sub.Empty() {
		return nil, false
	}
	start, run, strideY, strideZ, ny, nz := s.rowGeometry()
	if run <= 0 || ny*nz > maxCompiledRuns {
		return nil, false
	}
	rl := &RunList{offs: make([]int, 0, ny*nz), run: run}
	for z := 0; z < nz; z++ {
		rowBase := start + z*strideZ
		for y := 0; y < ny; y++ {
			rl.offs = append(rl.offs, rowBase)
			rowBase += strideY
		}
	}
	rl.span.off, rl.span.n, rl.span.ok = s.ContiguousSpan()
	return rl, true
}

// PackedSize implements Type.
func (rl *RunList) PackedSize() int { return len(rl.offs) * rl.run }

// Pack implements Type.
func (rl *RunList) Pack(local []byte, wire []byte) int {
	w, run := 0, rl.run
	for _, off := range rl.offs {
		copy(wire[w:w+run], local[off:off+run])
		w += run
	}
	return w
}

// Unpack implements Type.
func (rl *RunList) Unpack(wire []byte, local []byte) int {
	r, run := 0, rl.run
	for _, off := range rl.offs {
		copy(local[off:off+run], wire[r:r+run])
		r += run
	}
	return r
}

// AppendRuns implements Type.
func (rl *RunList) AppendRuns(dst [][]byte, local []byte) [][]byte {
	for _, off := range rl.offs {
		dst = append(dst, local[off:off+rl.run])
	}
	return dst
}

// ContiguousSpan implements Type, reporting the span of the source type.
func (rl *RunList) ContiguousSpan() (off, n int, ok bool) {
	return rl.span.off, rl.span.n, rl.span.ok
}

// String describes the run list for diagnostics.
func (rl *RunList) String() string {
	return fmt.Sprintf("runlist{%d runs × %dB}", len(rl.offs), rl.run)
}
