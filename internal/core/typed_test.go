package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ddr/internal/fielddata"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/trace"
)

// TestReorganizeFloat64AndUint16 moves 8- and 2-byte elements through
// the byte API: the descriptor's element size sets the stride.
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
		out64 := make([]byte, 8*10)
		if err := d64.ReorganizeData(c, [][]byte{fielddata.Float64Bytes(in64)}, out64); err != nil {
			return err
		}
		for x, v := range fielddata.BytesFloat64(out64) {
			if v != float64(x)*1.5 {
				return fmt.Errorf("float64[%d] = %f", x, v)
			}
		}

		d16, err := NewDescriptor(2, Layout1D, Int16)
		if err != nil {
			return err
		}
		if err := d16.SetupDataMapping(c, []grid.Box{mine}, domain); err != nil {
			return err
		}
		var in16 []byte
		for i := 0; i < mine.Volume(); i++ {
			in16 = binary.LittleEndian.AppendUint16(in16, uint16(1000+mine.Offset[0]+i))
		}
		out16 := make([]byte, 2*10)
		if err := d16.ReorganizeData(c, [][]byte{in16}, out16); err != nil {
			return err
		}
		for x := 0; x < 10; x++ {
			if v := binary.LittleEndian.Uint16(out16[2*x:]); v != uint16(1000+x) {
				return fmt.Errorf("uint16[%d] = %d", x, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyChunksPerRank stresses the default depth on round-robin
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
		grown := tile
		for i := 0; i < grown.NDims; i++ {
			grown.Offset[i]--
			grown.Dims[i] += 2
		}
		need, _ := grown.Intersect(domain)
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
