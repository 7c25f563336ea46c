package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/trace"
)

// TestReorganizeFloat32Slabs regrids a float32 slab field into squares
// using the typed wrapper and verifies values.
func TestReorganizeFloat32Slabs(t *testing.T) {
	const n = 4
	domain := grid.Box2(0, 0, 16, 8)
	slabs := grid.Slabs(domain, 1, n)
	rows, cols := grid.Factor2(n)
	squares := grid.Grid2D(domain, rows, cols)
	value := func(x, y int) float32 { return float32(100*y + x) }

	err := mpi.Launch(n, func(c *mpi.Comm) error {
		slab := slabs[c.Rank()]
		vals := make([]float32, slab.Volume())
		i := 0
		for y := 0; y < slab.Dims[1]; y++ {
			for x := 0; x < slab.Dims[0]; x++ {
				vals[i] = value(slab.Offset[0]+x, slab.Offset[1]+y)
				i++
			}
		}
		desc, err := NewDescriptor(n, Layout2D, Float32)
		if err != nil {
			return err
		}
		need := squares[c.Rank()]
		if err := desc.SetupDataMapping(c, []grid.Box{slab}, need); err != nil {
			return err
		}
		out := make([]float32, need.Volume())
		if err := desc.ReorganizeFloat32(c, [][]float32{vals}, out); err != nil {
			return err
		}
		i = 0
		for y := 0; y < need.Dims[1]; y++ {
			for x := 0; x < need.Dims[0]; x++ {
				if want := value(need.Offset[0]+x, need.Offset[1]+y); out[i] != want {
					return fmt.Errorf("rank %d (%d,%d): %f != %f", c.Rank(), x, y, out[i], want)
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

func TestReorganizeFloat64AndUint16(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		domain := grid.Box1(0, 10)
		halves := grid.Slabs(domain, 0, 2)
		mine := halves[c.Rank()]

		d64, err := NewDescriptor(2, Layout1D, Float64)
		if err != nil {
			return err
		}
		if err := d64.SetupDataMapping(c, []grid.Box{mine}, domain); err != nil {
			return err
		}
		in64 := make([]float64, mine.Volume())
		for i := range in64 {
			in64[i] = float64(mine.Offset[0]+i) * 1.5
		}
		out64 := make([]float64, 10)
		if err := d64.ReorganizeFloat64(c, [][]float64{in64}, out64); err != nil {
			return err
		}
		for x := 0; x < 10; x++ {
			if out64[x] != float64(x)*1.5 {
				return fmt.Errorf("float64[%d] = %f", x, out64[x])
			}
		}

		d16, err := NewDescriptor(2, Layout1D, Int16)
		if err != nil {
			return err
		}
		if err := d16.SetupDataMapping(c, []grid.Box{mine}, domain); err != nil {
			return err
		}
		in16 := make([]uint16, mine.Volume())
		for i := range in16 {
			in16[i] = uint16(1000 + mine.Offset[0] + i)
		}
		out16 := make([]uint16, 10)
		if err := d16.ReorganizeUint16(c, [][]uint16{in16}, out16); err != nil {
			return err
		}
		for x := 0; x < 10; x++ {
			if out16[x] != uint16(1000+x) {
				return fmt.Errorf("uint16[%d] = %d", x, out16[x])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedWrapperElemSizeChecks(t *testing.T) {
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		desc, err := NewDescriptor(1, Layout1D, Uint8)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, []grid.Box{grid.Box1(0, 4)}, grid.Box1(0, 4)); err != nil {
			return err
		}
		if err := desc.ReorganizeFloat32(c, nil, nil); err == nil {
			return errors.New("float32 on 1-byte elements accepted")
		}
		if err := desc.ReorganizeFloat64(c, nil, nil); err == nil {
			return errors.New("float64 on 1-byte elements accepted")
		}
		if err := desc.ReorganizeUint16(c, nil, nil); err == nil {
			return errors.New("uint16 on 1-byte elements accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyChunksPerRank stresses the default mode on round-robin
// ownership with many chunks per rank: sixteen rounds, so the pipeline
// keeps a full window in flight for most of the exchange.
func TestManyChunksPerRank(t *testing.T) {
	const n = 4
	domain := grid.Box3(0, 0, 0, 8, 4, 64)
	chunksAll := grid.RoundRobinSlices(domain, 2, n)
	nx, ny, nz := grid.Factor3(n)
	needs := grid.Bricks3D(domain, nx, ny, nz)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		mine := chunksAll[c.Rank()]
		desc, err := NewDescriptor(n, Layout3D, Uint8, WithValidation())
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, mine, needs[c.Rank()]); err != nil {
			return err
		}
		if got := desc.Plan().Rounds(); got != 16 {
			return fmt.Errorf("rounds = %d, want 16", got)
		}
		bufs := make([][]byte, len(mine))
		for i, b := range mine {
			bufs[i] = fillBox(b, 1)
		}
		needBuf := make([]byte, needs[c.Rank()].Volume())
		if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
			return err
		}
		return checkBox(needBuf, needs[c.Rank()], 1, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTracerRecordsSpans verifies the WithTracer integration: mapping and
// per-round spans appear for every rank.
func TestTracerRecordsSpans(t *testing.T) {
	rec := trace.NewRecorder()
	err := mpi.Launch(4, func(c *mpi.Comm) error {
		own, need := e1Geometry(c.Rank())
		desc, err := NewDescriptor(4, Layout2D, Float32, WithTracer(rec))
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		bufs := [][]byte{fillBox(own[0], 4), fillBox(own[1], 4)}
		if err := desc.ReorganizeData(c, bufs, make([]byte, need.Volume()*4)); err != nil {
			return err
		}
		if len(desc.LastTimings()) != 2 {
			return fmt.Errorf("timings %d, want 2", len(desc.LastTimings()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range rec.Events() {
		counts[e.Name]++
	}
	for _, name := range []string{"mapping", "exchange", "round-0", "round-1"} {
		if counts[name] != 4 {
			t.Errorf("span %q recorded %d times, want 4", name, counts[name])
		}
	}
	var sb strings.Builder
	rec.WriteTimeline(&sb, 60)
	if !strings.Contains(sb.String(), "rank 3") {
		t.Error("timeline missing rank 3")
	}
}

// TestHaloExchangePattern demonstrates DDR's overlapping-receive
// semantics implementing ghost-zone filling: every rank owns a tile and
// needs its tile plus a one-cell halo, which overlaps the neighbors'
// tiles. After redistribution each rank holds correct ghost values.
func TestHaloExchangePattern(t *testing.T) {
	const n = 6
	domain := grid.Box2(0, 0, 18, 12)
	rows, cols := grid.Factor2(n)
	tiles := grid.Grid2D(domain, rows, cols)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		tile := tiles[c.Rank()]
		// Need = tile grown by 1 in every direction, clamped to the domain.
		need := tile.Grow(1, domain)
		desc, err := NewDescriptor(n, Layout2D, Uint8, WithValidation())
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, []grid.Box{tile}, need); err != nil {
			return err
		}
		needBuf := make([]byte, need.Volume())
		if err := desc.ReorganizeData(c, [][]byte{fillBox(tile, 1)}, needBuf); err != nil {
			return err
		}
		// Every cell of the halo'd region must be correct, including ghost
		// cells sourced from neighbor tiles.
		return checkBox(needBuf, need, 1, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}
