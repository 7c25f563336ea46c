package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// AblationRow is one chunk-count configuration of the pipeline-depth
// study: the same redistribution run as the paper's serial rounds and
// pipelined.
type AblationRow struct {
	ChunksPerRank int
	Rounds        int
	MaxPeers      int // of Ranks-1 possible destinations per round
	Ranks         int

	Serial    Spread // one redistribution's wall time at depth 1
	Pipelined Spread // the same at core.DefaultPipelineDepth
}

// Spread is the median and quartiles of a cell's samples: each the wall
// time of one redistribution, started on a barrier and taken as the
// slowest rank's.
type Spread struct{ Q1, Median, Q3 time.Duration }

// spreadOf sorts samples and returns their quartiles (nearest rank).
func spreadOf(samples []time.Duration) Spread {
	slices.Sort(samples)
	at := func(f float64) time.Duration { return samples[int(math.Round(f*float64(len(samples)-1)))] }
	return Spread{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// String renders the spread as "median [q1, q3]", to the microsecond.
func (s Spread) String() string {
	r := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	return fmt.Sprintf("%v [%v, %v]", r(s.Median), r(s.Q1), r(s.Q3))
}

// DepthAblation times the paper's serial round — one step at a time,
// WithPipelineDepth(1), which is what its one MPI_Alltoallw per round
// becomes here — against the default pipelined exchange, which packs
// round r+1 while round r is on the wire. Ownership is round-robin slices
// with the given chunks-per-rank counts, redistributed into near-cube
// bricks on `procs` in-process ranks, `reps` times per depth after one
// untimed run, each redistribution timed on its own between barriers.
// The two depths run in separate worlds, and which runs first alternates
// from row to row, so warm-up and drift do not favour one column. A
// single-round row runs serially at either depth.
//
// An optional Telemetry argument attaches every run to its sinks: wire
// counters on the communicators and exchange spans/histograms on the
// descriptors, one series per rank.
func DepthAblation(procs int, domain grid.Box, chunkCounts []int, reps int, telemetry ...*Telemetry) ([]AblationRow, error) {
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
	for i, k := range chunkCounts {
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

		depths := []int{1, core.DefaultPipelineDepth}
		if i%2 == 1 {
			depths[0], depths[1] = depths[1], depths[0]
		}
		for _, depth := range depths {
			samples := make([]time.Duration, 0, reps)
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				desc, err := core.NewDescriptor(procs, core.Layout3D, core.Float32,
					append([]core.Option{core.WithPipelineDepth(depth)}, tel.coreOpts()...)...)
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
				// One untimed redistribution warms the world's buffers.
				if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
					return err
				}
				for r := 0; r < reps; r++ {
					if err := c.Barrier(); err != nil {
						return err
					}
					start := time.Now()
					if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
						return err
					}
					d, err := maxDuration(c, time.Since(start))
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						samples = append(samples, d)
					}
				}
				return nil
			}, tel.launchOpts()...)
			if err != nil {
				return nil, err
			}
			if depth == 1 {
				row.Serial = spreadOf(samples)
			} else {
				row.Pipelined = spreadOf(samples)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAblation renders the pipeline-depth study.
func WriteAblation(w io.Writer, rows []AblationRow, reps int) {
	fmt.Fprintf(w, "Pipeline-depth ablation (one redistribution's wall time, median [q1, q3] of %d per cell, %d ranks; serial = depth 1, the paper's round; pipelined = depth %d)\n",
		reps, rows[0].Ranks, core.DefaultPipelineDepth)
	fmt.Fprintf(w, "%-14s %7s %10s %30s %30s\n",
		"chunks/rank", "rounds", "peers", "serial", "pipelined")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %7d %6d/%-3d %30s %30s\n",
			r.ChunksPerRank, r.Rounds, r.MaxPeers, r.Ranks-1, r.Serial, r.Pipelined)
	}
}
