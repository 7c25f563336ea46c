// Package fielddata converts between typed numeric slices and the
// little-endian byte buffers the DDR library and the message-passing
// runtime move around. All conversions copy; buffers returned by one
// function are safe to mutate without affecting the input.
package fielddata

import (
	"encoding/binary"
	"math"
)

// Float32Bytes serializes vals little-endian.
func Float32Bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// BytesFloat32 deserializes a little-endian float32 buffer. The byte
// length must be a multiple of 4; trailing bytes are ignored.
func BytesFloat32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// Float64Bytes serializes vals little-endian.
func Float64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesFloat64 deserializes a little-endian float64 buffer.
func BytesFloat64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
