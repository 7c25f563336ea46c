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
		plans, err := CompileSchedule(elemSize, allChunks, allNeeds, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s := plans[0].Stats()
		wire, self := bruteForceTraffic(elemSize, allChunks, allNeeds)
		if s.TotalWireBytes != wire {
			t.Errorf("trial %d: wire %d, brute force %d", trial, s.TotalWireBytes, wire)
		}
		if s.SelfBytes != self {
			t.Errorf("trial %d: self %d, brute force %d", trial, s.SelfBytes, self)
		}
		// The plans' per-round send bytes must sum to the wire total.
		if got := planStats(plans); got != s {
			t.Errorf("trial %d: the plans move %#v, Stats reads %#v", trial, got, s)
		}
	}
}

// planStats reads a world's schedule statistics off its compiled plans,
// independently of Stats: what the step lists send, per rank and round,
// and what they keep.
func planStats(plans []*Plan) ScheduleStats {
	s := ScheduleStats{Rounds: plans[0].rounds, Ranks: len(plans)}
	slots := 0
	for _, p := range plans {
		slots += len(p.myChunks)
		s.SelfBytes += p.RetainedBytes()
		for r := range p.sched {
			sent := p.RoundSendBytes(r)
			s.TotalWireBytes += sent
			s.PerRankRoundMax = max(s.PerRankRoundMax, sent)
			s.MaxPeersPerRound = max(s.MaxPeersPerRound, len(p.sched[r].sends))
		}
	}
	if slots > 0 {
		s.PerRankRoundAvg = float64(s.TotalWireBytes) / float64(slots)
	}
	return s
}

// TestStatsFollowOwnershipRule holds Plan.Stats to what a world's plans
// move where owned chunks overlap: the wire total is the bytes the
// ownership rule sends, cell by cell (ruleCells), and what the plans
// receive; the self total is what they retain; and the plans' per-round
// sends add up to the same figures.
func TestStatsFollowOwnershipRule(t *testing.T) {
	const elemSize = 4
	for seed := int64(0); seed < 40; seed++ {
		chunks, needs := genOverlapGeometry(seed)
		plans, err := CompileSchedule(elemSize, chunks, needs, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := plans[0].Stats()
		_, sent := ruleCells(chunks, needs, elemSize)
		var ruled, received, retained int64
		for r, p := range plans {
			ruled += sent[r]
			received += p.ReceivedBytes()
			retained += p.RetainedBytes()
		}
		if s.TotalWireBytes != ruled || s.TotalWireBytes != received {
			t.Errorf("seed %d: Stats reads %d wire bytes, the rule sends %d, the plans receive %d",
				seed, s.TotalWireBytes, ruled, received)
		}
		if s.SelfBytes != retained {
			t.Errorf("seed %d: Stats reads %d self bytes, the plans retain %d", seed, s.SelfBytes, retained)
		}
		if got := planStats(plans); got != s {
			t.Errorf("seed %d: the plans move %#v, Stats reads %#v", seed, got, s)
		}
	}
}

// TestExchangeModesAgree checks every executor configuration — the
// default (zero-copy) and the fully staged path, each serial (depth 1,
// the paper's round) and at the default depth — against the closed-form
// fill on random geometries: every need cell must hold the pattern value
// of its global coordinates.
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
		for _, cfg := range configs {
			for _, depth := range []int{1, DefaultPipelineDepth} {
				outs := make([][]byte, n)
				err := runWorld(n, ownAll, needAll, outs, append([]Option{WithPipelineDepth(depth)}, cfg.opts...)...)
				if err != nil {
					t.Fatalf("trial %d config %s depth %d: %v", trial, cfg.name, depth, err)
				}
				for r := range outs {
					if err := checkBox(outs[r], needAll[r], 1, nil, 0); err != nil {
						t.Fatalf("trial %d: config %s depth %d rank %d: %v", trial, cfg.name, depth, r, err)
					}
				}
			}
		}
	}
}

// runWorld executes one redistribution, capturing every rank's need
// buffer into outs (indexed by rank).
func runWorld(n int, ownAll [][]grid.Box, needAll []grid.Box, outs [][]byte, opts ...Option) error {
	var mu sync.Mutex
	return mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		desc, err := NewDescriptor(n, Layout2D, Uint8,
			append([]Option{WithElemSize(1)}, opts...)...)
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
