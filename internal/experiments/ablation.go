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

// AblationRow is one chunk-count configuration of the pipeline-depth
// study: the same redistribution run as the paper's serial rounds and
// pipelined.
type AblationRow struct {
	ChunksPerRank int
	Rounds        int
	MaxPeers      int // of Ranks-1 possible destinations per round
	Ranks         int

	Serial    time.Duration // total wall time for `reps` redistributions at depth 1
	Pipelined time.Duration // the same at core.DefaultPipelineDepth
}

// DepthAblation times the paper's serial round — one step at a time,
// WithPipelineDepth(1), which is what its one MPI_Alltoallw per round
// becomes here — against the default pipelined exchange, which packs
// round r+1 while round r is on the wire. Ownership is round-robin slices
// with the given chunks-per-rank counts, redistributed into near-cube
// bricks on `procs` in-process ranks, `reps` times per depth. A
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

		for _, depth := range []int{1, core.DefaultPipelineDepth} {
			var (
				mu  sync.Mutex
				dur time.Duration
			)
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				tel.attach(c)
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
			if depth == 1 {
				row.Serial = dur
			} else {
				row.Pipelined = dur
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAblation renders the pipeline-depth study.
func WriteAblation(w io.Writer, rows []AblationRow, reps int) {
	fmt.Fprintf(w, "Pipeline-depth ablation (%d redistributions per cell, %d ranks; serial = depth 1, the paper's round; pipelined = depth %d)\n",
		reps, rows[0].Ranks, core.DefaultPipelineDepth)
	fmt.Fprintf(w, "%-14s %7s %10s %12s %12s\n",
		"chunks/rank", "rounds", "peers", "serial", "pipelined")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %7d %6d/%-3d %12s %12s\n",
			r.ChunksPerRank, r.Rounds, r.MaxPeers, r.Ranks-1,
			r.Serial.Round(time.Microsecond),
			r.Pipelined.Round(time.Microsecond))
	}
}
