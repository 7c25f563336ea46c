package stencil

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ddr/internal/fielddata"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

func TestNewValidation(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		domain := grid.Box2(0, 0, 8, 8)
		tiles := grid.Grid2D(domain, 1, 2)
		if _, err := New(c, domain, tiles[:1], 1, 1); err == nil {
			return errors.New("short tile list accepted")
		}
		if _, err := New(c, domain, tiles, 0, 1); err == nil {
			return errors.New("zero halo width accepted")
		}
		// Overlapping tiles must be rejected by validation.
		bad := []grid.Box{grid.Box2(0, 0, 5, 8), grid.Box2(3, 0, 5, 8)}
		if _, err := New(c, domain, bad, 1, 1); err == nil {
			return errors.New("overlapping tiles accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeFillsGhosts: after Exchange, every halo cell holds the
// value of the rank that owns it.
func TestExchangeFillsGhosts(t *testing.T) {
	for _, width := range []int{1, 2} {
		width := width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			const n = 6
			domain := grid.Box2(0, 0, 18, 12)
			rows, cols := grid.Factor2(n)
			tiles := grid.Grid2D(domain, rows, cols)
			value := func(x, y int) byte { return byte(7*x + 13*y) }
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				ex, err := New(c, domain, tiles, width, 1)
				if err != nil {
					return err
				}
				tile := ex.Tile()
				tileBuf := make([]byte, tile.Volume()) // one byte per cell
				i := 0
				for y := 0; y < tile.Dims[1]; y++ {
					for x := 0; x < tile.Dims[0]; x++ {
						tileBuf[i] = value(tile.Offset[0]+x, tile.Offset[1]+y)
						i++
					}
				}
				haloBuf := make([]byte, ex.HaloBytes())
				if err := ex.Exchange(tileBuf, haloBuf); err != nil {
					return err
				}
				halo := ex.Halo()
				i = 0
				for y := 0; y < halo.Dims[1]; y++ {
					for x := 0; x < halo.Dims[0]; x++ {
						gx, gy := halo.Offset[0]+x, halo.Offset[1]+y
						if haloBuf[i] != value(gx, gy) {
							return fmt.Errorf("rank %d ghost (%d,%d) = %d, want %d",
								c.Rank(), gx, gy, haloBuf[i], value(gx, gy))
						}
						i++
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// jacobiSerial runs iters steps of 4-neighbor Jacobi heat diffusion on
// the full grid with fixed boundary values, returning the field.
func jacobiSerial(w, h, iters int, init func(x, y int) float64) []float64 {
	cur := make([]float64, w*h)
	next := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cur[y*w+x] = init(x, y)
		}
	}
	for it := 0; it < iters; it++ {
		for y := 1; y < h-1; y++ {
			for x := 1; x < w-1; x++ {
				next[y*w+x] = 0.25 * (cur[y*w+x-1] + cur[y*w+x+1] + cur[(y-1)*w+x] + cur[(y+1)*w+x])
			}
		}
		for x := 0; x < w; x++ {
			next[x] = cur[x]
			next[(h-1)*w+x] = cur[(h-1)*w+x]
		}
		for y := 0; y < h; y++ {
			next[y*w] = cur[y*w]
			next[y*w+w-1] = cur[y*w+w-1]
		}
		cur, next = next, cur
	}
	return cur
}

// TestJacobiParallelMatchesSerial runs the same diffusion decomposed over
// 6 ranks with stencil halo exchange; results must match the serial run
// bit-for-bit.
func TestJacobiParallelMatchesSerial(t *testing.T) {
	const w, h, iters, n = 18, 12, 20, 6
	init := func(x, y int) float64 {
		if x == 0 {
			return 100 // hot left wall
		}
		return float64((x * y) % 7)
	}
	want := jacobiSerial(w, h, iters, init)

	domain := grid.Box2(0, 0, w, h)
	rows, cols := grid.Factor2(n)
	tiles := grid.Grid2D(domain, rows, cols)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		ex, err := New(c, domain, tiles, 1, 8)
		if err != nil {
			return err
		}
		tile := ex.Tile()
		cur := make([]float64, tile.Volume())
		i := 0
		for y := 0; y < tile.Dims[1]; y++ {
			for x := 0; x < tile.Dims[0]; x++ {
				cur[i] = init(tile.Offset[0]+x, tile.Offset[1]+y)
				i++
			}
		}
		haloBuf := make([]byte, ex.HaloBytes())
		for it := 0; it < iters; it++ {
			if err := ex.Exchange(fielddata.Float64Bytes(cur), haloBuf); err != nil {
				return err
			}
			halo := ex.Halo()
			hf := fielddata.BytesFloat64(haloBuf)
			at := func(gx, gy int) float64 {
				return hf[(gy-halo.Offset[1])*halo.Dims[0]+(gx-halo.Offset[0])]
			}
			i = 0
			for y := 0; y < tile.Dims[1]; y++ {
				gy := tile.Offset[1] + y
				for x := 0; x < tile.Dims[0]; x++ {
					gx := tile.Offset[0] + x
					if gx == 0 || gx == w-1 || gy == 0 || gy == h-1 {
						i++ // fixed boundary
						continue
					}
					cur[i] = 0.25 * (at(gx-1, gy) + at(gx+1, gy) + at(gx, gy-1) + at(gx, gy+1))
					i++
				}
			}
		}
		i = 0
		for y := 0; y < tile.Dims[1]; y++ {
			gy := tile.Offset[1] + y
			for x := 0; x < tile.Dims[0]; x++ {
				gx := tile.Offset[0] + x
				if cur[i] != want[gy*w+gx] {
					return fmt.Errorf("rank %d cell (%d,%d): %g != %g (diff %g)",
						c.Rank(), gx, gy, cur[i], want[gy*w+gx], math.Abs(cur[i]-want[gy*w+gx]))
				}
				i++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchange3D exercises halo exchange on a 3D brick decomposition.
func TestExchange3D(t *testing.T) {
	const n = 8
	domain := grid.Box3(0, 0, 0, 10, 8, 6)
	x, y, z := grid.Factor3(n)
	tiles := grid.Bricks3D(domain, x, y, z)
	value := func(x, y, z int) byte { return byte(x + 3*y + 11*z) }
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		ex, err := New(c, domain, tiles, 1, 1)
		if err != nil {
			return err
		}
		tile := ex.Tile()
		tileBuf := make([]byte, tile.Volume()) // one byte per cell
		i := 0
		for zz := 0; zz < tile.Dims[2]; zz++ {
			for yy := 0; yy < tile.Dims[1]; yy++ {
				for xx := 0; xx < tile.Dims[0]; xx++ {
					tileBuf[i] = value(tile.Offset[0]+xx, tile.Offset[1]+yy, tile.Offset[2]+zz)
					i++
				}
			}
		}
		haloBuf := make([]byte, ex.HaloBytes())
		if err := ex.Exchange(tileBuf, haloBuf); err != nil {
			return err
		}
		halo := ex.Halo()
		i = 0
		for zz := 0; zz < halo.Dims[2]; zz++ {
			for yy := 0; yy < halo.Dims[1]; yy++ {
				for xx := 0; xx < halo.Dims[0]; xx++ {
					gx, gy, gz := halo.Offset[0]+xx, halo.Offset[1]+yy, halo.Offset[2]+zz
					if haloBuf[i] != value(gx, gy, gz) {
						return fmt.Errorf("rank %d ghost (%d,%d,%d) wrong", c.Rank(), gx, gy, gz)
					}
					i++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
