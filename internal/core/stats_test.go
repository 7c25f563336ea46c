package core

import (
	"math/rand"
	"sync"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// bruteForceTraffic computes wire and self bytes by sampling every
// element of every need box and finding its owner.
func bruteForceTraffic(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (wire, self int64) {
	owner := func(p [grid.MaxDims]int) int {
		for r, chunks := range allChunks {
			for _, b := range chunks {
				if b.ContainsPoint(p) {
					return r
				}
			}
		}
		return -1
	}
	for r, need := range allNeeds {
		for z := 0; z < need.Dims[2]; z++ {
			for y := 0; y < need.Dims[1]; y++ {
				for x := 0; x < need.Dims[0]; x++ {
					p := [grid.MaxDims]int{need.Offset[0] + x, need.Offset[1] + y, need.Offset[2] + z}
					o := owner(p)
					if o == -1 {
						continue
					}
					if o == r {
						self += int64(elemSize)
					} else {
						wire += int64(elemSize)
					}
				}
			}
		}
	}
	return wire, self
}

// TestStatsMatchBruteForce verifies Plan.Stats against element-by-element
// accounting for random geometries.
func TestStatsMatchBruteForce(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		n := 1 + rng.Intn(6)
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		offset := make([]int, nd)
		for i := range dims {
			dims[i] = 2 + rng.Intn(8)
		}
		domain := grid.MustBox(offset, dims)
		tiles := grid.RandomTiling(rng, domain, 1+rng.Intn(2*n))
		allChunks := make([][]grid.Box, n)
		for i, b := range tiles {
			allChunks[i%n] = append(allChunks[i%n], b)
		}
		allNeeds := make([]grid.Box, n)
		for r := range allNeeds {
			allNeeds[r] = grid.RandomBoxIn(rng, domain)
		}
		elemSize := 1 + rng.Intn(8)
		plan, err := NewPlanFromGeometry(0, elemSize, allChunks, allNeeds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s := plan.Stats()
		wire, self := bruteForceTraffic(elemSize, allChunks, allNeeds)
		if s.TotalWireBytes != wire {
			t.Errorf("trial %d: wire %d, brute force %d", trial, s.TotalWireBytes, wire)
		}
		if s.SelfBytes != self {
			t.Errorf("trial %d: self %d, brute force %d", trial, s.SelfBytes, self)
		}
		// Per-rank send bytes must sum to the wire total.
		var sum int64
		for rank := 0; rank < n; rank++ {
			for r := 0; r < s.Rounds; r++ {
				sum += plan.RankRoundSendBytes(rank, r)
			}
		}
		if sum != wire {
			t.Errorf("trial %d: per-rank sum %d, wire %d", trial, sum, wire)
		}
	}
}

// TestExchangeModesAgree verifies both exchange modes produce
// identical results for the same random geometry, across executor
// configurations: the default (zero-copy) and the fully staged path.
func TestExchangeModesAgree(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"staged", []Option{withStaged()}},
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		const n = 5
		domain := grid.Box2(0, 0, 2+rng.Intn(12), 2+rng.Intn(12))
		tiles := grid.RandomTiling(rng, domain, 1+rng.Intn(2*n))
		ownAll := make([][]grid.Box, n)
		for i, b := range tiles {
			ownAll[i%n] = append(ownAll[i%n], b)
		}
		needAll := make([]grid.Box, n)
		for r := range needAll {
			needAll[r] = grid.RandomBoxIn(rng, domain)
		}
		var base [][]byte
		for _, cfg := range configs {
			for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
				outs := make([][]byte, n)
				err := runWorld(n, mode, ownAll, needAll, outs, cfg.opts...)
				if err != nil {
					t.Fatalf("trial %d config %s mode %v: %v", trial, cfg.name, mode, err)
				}
				if base == nil {
					base = outs
					continue
				}
				for r := range outs {
					if string(outs[r]) != string(base[r]) {
						t.Fatalf("trial %d: config %s mode %v rank %d differs from baseline",
							trial, cfg.name, mode, r)
					}
				}
			}
		}
	}
}

// runWorld executes one redistribution with the given mode, capturing
// every rank's need buffer into outs (indexed by rank).
func runWorld(n int, mode ExchangeMode, ownAll [][]grid.Box, needAll []grid.Box, outs [][]byte, opts ...Option) error {
	var mu sync.Mutex
	return mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		desc, err := NewDescriptor(n, Layout2D, Uint8,
			append([]Option{WithElemSize(1), WithExchangeMode(mode)}, opts...)...)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, b := range ownAll[rank] {
			bufs[i] = fillBox(b, 1)
		}
		needBuf := make([]byte, needAll[rank].Volume())
		if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
			return err
		}
		mu.Lock()
		outs[rank] = needBuf
		mu.Unlock()
		return nil
	})
}
