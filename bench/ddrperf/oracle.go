package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"ddr/internal/grid"
)

// cellValue is the closed-form fill oracle: the 32-bit word the cell at
// global linear index idx of the given field must hold. Every input
// buffer is filled with it and every need buffer is compared against it,
// so a redistribution is right exactly when each cell landed where its
// global index says.
func cellValue(seed uint64, field, idx int) uint32 {
	x := uint64(idx)*0x9E3779B97F4A7C15 + seed + uint64(field+1)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	return uint32((x * 0x94D049BB133111EB) >> 32)
}

// poisonByte fills need buffers before a verified epoch, so a cell the
// exchange never wrote cannot pass by holding last epoch's value.
const poisonByte = 0xA5

func poison(buf []byte) {
	for i := range buf {
		buf[i] = poisonByte
	}
}

// forEachRow calls f once per x-run of box with the run's offset (in
// cells) inside the box's own row-major buffer and the global linear
// index of its first cell in domain.
func forEachRow(box, domain grid.Box, f func(local, global, n int)) {
	w, h := domain.Dims[0], domain.Dims[1]
	local := 0
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			gz, gy := box.Offset[2]+z-domain.Offset[2], box.Offset[1]+y-domain.Offset[1]
			f(local, (gz*h+gy)*w+box.Offset[0]-domain.Offset[0], box.Dims[0])
			local += box.Dims[0]
		}
	}
}

// fillBox writes the oracle's 4-byte cells for box into buf.
func fillBox(buf []byte, box, domain grid.Box, seed uint64, field int) {
	forEachRow(box, domain, func(local, global, n int) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*(local+i):], cellValue(seed, field, global+i))
		}
	})
}

// checkBox compares every cell of buf against the oracle and reports the
// first mismatch.
func checkBox(buf []byte, box, domain grid.Box, seed uint64, field int) error {
	if len(buf) != 4*box.Volume() {
		return fmt.Errorf("buffer holds %d bytes, box %v needs %d", len(buf), box, 4*box.Volume())
	}
	var err error
	forEachRow(box, domain, func(local, global, n int) {
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			got := binary.LittleEndian.Uint32(buf[4*(local+i):])
			if want := cellValue(seed, field, global+i); got != want {
				err = fmt.Errorf("field %d global cell %d: got %#x, want %#x", field, global+i, got, want)
				return
			}
		}
	})
	return err
}

// complexValue is the oracle for the FFT grid: a complex number in the
// unit square derived from two fields of cellValue.
func complexValue(seed uint64, idx int) complex128 {
	re := float64(int32(cellValue(seed, 0, idx))) / (1 << 31)
	im := float64(int32(cellValue(seed, 1, idx))) / (1 << 31)
	return complex(re, im)
}

// fftTolerance bounds the rounding a forward+inverse transform pair may
// leave on unit-scale data; rows are reset to the oracle on every
// verified epoch, so error accumulates over at most verifyEvery steps.
const fftTolerance = 1e-9

func checkComplex(rows []complex128, firstIdx int, seed uint64) error {
	for i, got := range rows {
		want := complexValue(seed, firstIdx+i)
		if d := got - want; math.Abs(real(d)) > fftTolerance || math.Abs(imag(d)) > fftTolerance || d != d {
			return fmt.Errorf("global cell %d: got %v, want %v", firstIdx+i, got, want)
		}
	}
	return nil
}
