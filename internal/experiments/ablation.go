package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// AblationRow is one chunk-count configuration of the exchange-mode
// study: the same redistribution executed with the paper's alltoallw
// mechanism and its future-work point-to-point mode.
type AblationRow struct {
	ChunksPerRank int
	Rounds        int
	MaxPeers      int // of Ranks-1 possible destinations per round
	Ranks         int

	Alltoallw time.Duration // total wall time for `reps` redistributions
	P2P       time.Duration
}

// ExchangeModeAblation measures both exchange modes on round-robin
// slice ownership with the given chunks-per-rank counts, redistributing
// into near-cube bricks on `procs` in-process ranks, `reps` times per
// mode. The sparsity column (MaxPeers) explains when point-to-point wins:
// alltoallw's cost scales with the full rank count while p2p touches only
// actual communication partners.
//
// An optional Telemetry argument attaches every run to its sinks: wire
// counters on the communicators and per-mode exchange spans/histograms
// on the descriptors, one series per (rank, mode) pair.
func ExchangeModeAblation(procs int, domain grid.Box, chunkCounts []int, reps int, telemetry ...*Telemetry) ([]AblationRow, error) {
	var tel *Telemetry
	if len(telemetry) > 0 {
		tel = telemetry[0]
	}
	if domain.NDims != 3 {
		return nil, fmt.Errorf("experiments: ablation needs a 3D domain")
	}
	nx, ny, nz := grid.Factor3(procs)
	needs := grid.Bricks3D(domain, nx, ny, nz)
	rows := make([]AblationRow, 0, len(chunkCounts))
	for _, k := range chunkCounts {
		slabs := procs * k
		if domain.Dims[2] < slabs {
			return nil, fmt.Errorf("experiments: %d slabs exceed depth %d", slabs, domain.Dims[2])
		}
		// procs*k z-slabs dealt round-robin: every rank owns exactly k
		// separate chunks, so the plan has k rounds.
		chunksAll := make([][]grid.Box, procs)
		for i, slab := range grid.Slabs(domain, 2, slabs) {
			r := i % procs
			chunksAll[r] = append(chunksAll[r], slab)
		}

		row := AblationRow{ChunksPerRank: k, Ranks: procs}
		stats, err := core.NewPlanFromGeometry(0, 4, chunksAll, needs)
		if err != nil {
			return nil, err
		}
		s := stats.Stats()
		row.Rounds = s.Rounds
		row.MaxPeers = s.MaxPeersPerRound

		for _, mode := range []core.ExchangeMode{core.ModeAlltoallw, core.ModePointToPoint} {
			var (
				mu  sync.Mutex
				dur time.Duration
			)
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				tel.attach(c)
				desc, err := core.NewDescriptor(procs, core.Layout3D, core.Float32,
					append([]core.Option{core.WithExchangeMode(mode)}, tel.coreOpts()...)...)
				if err != nil {
					return err
				}
				mine := chunksAll[c.Rank()]
				if err := desc.SetupDataMapping(c, mine, needs[c.Rank()]); err != nil {
					return err
				}
				bufs := make([][]byte, len(mine))
				for i, b := range mine {
					bufs[i] = make([]byte, b.Volume()*4)
				}
				needBuf := make([]byte, needs[c.Rank()].Volume()*4)
				if err := c.Barrier(); err != nil {
					return err
				}
				start := time.Now()
				for r := 0; r < reps; r++ {
					if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
						return err
					}
				}
				elapsed := time.Since(start)
				maxD, err := maxDuration(c, elapsed)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					mu.Lock()
					dur = maxD
					mu.Unlock()
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if mode == core.ModeAlltoallw {
				row.Alltoallw = dur
			} else {
				row.P2P = dur
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAblation renders the exchange-mode study.
func WriteAblation(w io.Writer, rows []AblationRow, reps int) {
	fmt.Fprintf(w, "Exchange-mode ablation (%d redistributions per cell, %d ranks; alltoallw = paper, p2p = paper future work)\n",
		reps, rows[0].Ranks)
	fmt.Fprintf(w, "%-14s %7s %10s %12s %12s\n",
		"chunks/rank", "rounds", "peers", "alltoallw", "p2p")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %7d %6d/%-3d %12s %12s\n",
			r.ChunksPerRank, r.Rounds, r.MaxPeers, r.Ranks-1,
			r.Alltoallw.Round(time.Microsecond),
			r.P2P.Round(time.Microsecond))
	}
}
