// Package fieldcompress implements an error-bounded lossy compressor for
// float32 science fields: uniform quantization to a caller-chosen
// absolute error bound, raster-order delta encoding, and zigzag varint
// coding with zero-run collapsing. It is the numerical alternative to the
// paper's render-to-JPEG reduction: where JPEG preserves appearance,
// fieldcompress preserves every value to within maxError, so downstream
// analysis (not just viewing) stays possible.
package fieldcompress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// magic identifies the stream format version.
const magic = 0xD7

// Compress encodes vals so that every reconstructed value differs from
// the original by at most maxError plus half a float32 ulp of the value
// (the unavoidable rounding of storing the reconstruction as float32).
// All values must be finite.
func Compress(vals []float32, maxError float64) ([]byte, error) {
	if maxError <= 0 || math.IsNaN(maxError) || math.IsInf(maxError, 0) {
		return nil, fmt.Errorf("fieldcompress: error bound %g must be positive and finite", maxError)
	}
	step := 2 * maxError
	out := make([]byte, 0, 16+len(vals)/4)
	out = append(out, magic)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], math.Float64bits(maxError))
	out = append(out, hdr[:]...)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(vals)))
	out = append(out, cnt[:]...)

	var prev int64
	zeroRun := 0
	flushZeros := func() {
		for zeroRun > 0 {
			// A zero delta is encoded as varint 0 followed by a varint
			// count of additional zeros collapsed into it.
			out = append(out, 0)
			extra := zeroRun - 1
			out = binary.AppendUvarint(out, uint64(extra))
			zeroRun = 0
		}
	}
	for i, v := range vals {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("fieldcompress: value %d is not finite", i)
		}
		q := int64(math.Round(f / step))
		if q > 1<<61 || q < -(1<<61) {
			return nil, fmt.Errorf("fieldcompress: value %g too large for error bound %g", f, maxError)
		}
		delta := q - prev
		prev = q
		if delta == 0 {
			zeroRun++
			continue
		}
		flushZeros()
		out = binary.AppendUvarint(out, zigzag(delta))
	}
	flushZeros()
	return out, nil
}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]float32, error) {
	if len(buf) < 13 || buf[0] != magic {
		return nil, fmt.Errorf("fieldcompress: bad header")
	}
	maxError := math.Float64frombits(binary.LittleEndian.Uint64(buf[1:]))
	if maxError <= 0 || math.IsNaN(maxError) || math.IsInf(maxError, 0) {
		return nil, fmt.Errorf("fieldcompress: corrupt error bound %g", maxError)
	}
	n := int(binary.LittleEndian.Uint32(buf[9:]))
	if n < 0 || n > 1<<31 {
		return nil, fmt.Errorf("fieldcompress: implausible count %d", n)
	}
	step := 2 * maxError
	buf = buf[13:]
	out := make([]float32, 0, n)
	var prev int64
	for len(out) < n {
		u, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("fieldcompress: truncated stream at value %d", len(out))
		}
		buf = buf[k:]
		delta := unzigzag(u)
		if delta == 0 {
			// Zero delta carries a run count of additional zeros.
			extra, k2 := binary.Uvarint(buf)
			if k2 <= 0 {
				return nil, fmt.Errorf("fieldcompress: truncated zero run at value %d", len(out))
			}
			buf = buf[k2:]
			run := int(extra) + 1
			if len(out)+run > n {
				return nil, fmt.Errorf("fieldcompress: zero run overflows count")
			}
			v := float32(float64(prev) * step)
			for i := 0; i < run; i++ {
				out = append(out, v)
			}
			continue
		}
		prev += delta
		out = append(out, float32(float64(prev)*step))
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("fieldcompress: %d trailing bytes", len(buf))
	}
	return out, nil
}

// zigzag maps signed to unsigned preserving small magnitudes.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
