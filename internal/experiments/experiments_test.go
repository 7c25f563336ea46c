package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/perfmodel"
	"ddr/internal/tiff"
)

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// TestTable3MatchesPaper verifies the exact reproduction of Table III:
// the schedule statistics computed from DDR's plans must match the
// paper's rounds exactly and its per-rank-per-round sizes within 1%.
func TestTable3MatchesPaper(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ConsRounds != r.PaperConsRounds {
			t.Errorf("p=%d: consecutive rounds %d, paper %d", r.Procs, r.ConsRounds, r.PaperConsRounds)
		}
		if r.RRRounds != r.PaperRRRounds {
			t.Errorf("p=%d: round-robin rounds %d, paper %d", r.Procs, r.RRRounds, r.PaperRRRounds)
		}
		if e := relErr(r.ConsMiB, r.PaperConsMiB); e > 0.01 {
			t.Errorf("p=%d: consecutive %.2f MiB vs paper %.2f (err %.1f%%)",
				r.Procs, r.ConsMiB, r.PaperConsMiB, 100*e)
		}
		if e := relErr(r.RRMiB, r.PaperRRMiB); e > 0.01 {
			t.Errorf("p=%d: round-robin %.2f MiB vs paper %.2f (err %.1f%%)",
				r.Procs, r.RRMiB, r.PaperRRMiB, 100*e)
		}
	}
}

// TestTable2Shape verifies the modelled Table II reproduces the paper's
// qualitative structure: the ~25x headline speedup, the small-scale win
// for round-robin, the large-scale win for consecutive, strong scaling of
// the DDR techniques, and quantitative agreement within 35%.
func TestTable2Shape(t *testing.T) {
	rows, err := Table2(perfmodel.Cooley())
	if err != nil {
		t.Fatal(err)
	}
	byProcs := map[int]Table2Row{}
	for _, r := range rows {
		byProcs[r.Procs] = r
	}
	r27, r216 := byProcs[27], byProcs[216]

	if speedup := r216.NoDDR / r216.Consec; speedup < 15 || speedup > 40 {
		t.Errorf("216-proc speedup %.1fx outside [15,40] (paper: 24.9x)", speedup)
	}
	if r27.RoundRobin >= r27.Consec {
		t.Errorf("at 27 procs round-robin (%.1fs) should beat consecutive (%.1fs)",
			r27.RoundRobin, r27.Consec)
	}
	if r216.Consec >= r216.RoundRobin {
		t.Errorf("at 216 procs consecutive (%.1fs) should beat round-robin (%.1fs)",
			r216.Consec, r216.RoundRobin)
	}
	prevRR, prevCons := math.Inf(1), math.Inf(1)
	for _, p := range PaperScales {
		r := byProcs[p]
		if r.RoundRobin >= prevRR || r.Consec >= prevCons {
			t.Errorf("p=%d: DDR times not strong-scaling", p)
		}
		prevRR, prevCons = r.RoundRobin, r.Consec
		for _, pair := range [][2]float64{
			{r.NoDDR, r.PaperNoDDR},
			{r.RoundRobin, r.PaperRR},
			{r.Consec, r.PaperCons},
		} {
			if e := relErr(pair[0], pair[1]); e > 0.35 {
				t.Errorf("p=%d: modelled %.1fs vs paper %.1fs (err %.0f%%)",
					p, pair[0], pair[1], 100*e)
			}
		}
	}
}

func TestFigure3Consistent(t *testing.T) {
	s, err := Figure3(perfmodel.Cooley())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Procs) != 4 || len(s.NoDDR) != 4 || len(s.RoundRobin) != 4 || len(s.Consec) != 4 {
		t.Fatalf("series lengths %d/%d/%d/%d", len(s.Procs), len(s.NoDDR), len(s.RoundRobin), len(s.Consec))
	}
	rows, err := Table2(perfmodel.Cooley())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if s.Procs[i] != r.Procs || s.NoDDR[i] != r.NoDDR {
			t.Errorf("figure 3 diverges from table 2 at index %d", i)
		}
	}
}

func TestScheduleForSelfConsistency(t *testing.T) {
	// The consecutive schedule at paper scale must move (1 - 1/(nx*ny)) of
	// each rank's data across the wire.
	domain := PaperDomain()
	s, err := ScheduleFor(domain, 64, Consecutive, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(domain.Volume()) * 4
	ownedPerRank := total / 64
	wantWire := ownedPerRank * (1 - 1.0/16) // 4x4 bricks in x-y
	if e := relErr(s.PerRankRoundAvg, wantWire); e > 0.01 {
		t.Errorf("wire bytes/rank %.0f, want %.0f", s.PerRankRoundAvg, wantWire)
	}
	if s.Rounds != 1 {
		t.Errorf("rounds %d", s.Rounds)
	}
}

// TestStackGeometryTiles checks both techniques produce valid DDR inputs.
func TestStackGeometryTiles(t *testing.T) {
	domain := grid.Box3(0, 0, 0, 16, 8, 20)
	for _, tech := range []Technique{RoundRobin, Consecutive} {
		chunks, needs := StackGeometry(domain, 6, tech)
		var flat []grid.Box
		for _, c := range chunks {
			flat = append(flat, c...)
		}
		if err := grid.VerifyTilingOwned(domain, flat, nil); err != nil {
			t.Errorf("%v ownership: %v", tech, err)
		}
		if err := grid.VerifyTilingOwned(domain, needs, nil); err != nil {
			t.Errorf("%v needs: %v", tech, err)
		}
	}
	if BrickDepthSplits(27) != 3 || BrickDepthSplits(64) != 4 {
		t.Error("brick depth splits wrong")
	}
}

// TestLoadStackEndToEnd is the use-case-A integration test: a real TIFF
// stack on disk, loaded in parallel with and without DDR, must produce
// identical bricks that match the synthetic ground truth.
func TestLoadStackEndToEnd(t *testing.T) {
	const w, h, d, procs = 20, 12, 16, 8
	dir := t.TempDir()
	if err := tiff.WriteStack(dir, w, h, d, 16, tiff.FormatUint); err != nil {
		t.Fatal(err)
	}
	info, err := tiff.ProbeStack(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{RoundRobin, Consecutive} {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				ddrRes, err := LoadStackDDR(c, info, tech)
				if err != nil {
					return err
				}
				baseRes, err := LoadStackNoDDR(c, info)
				if err != nil {
					return err
				}
				if !ddrRes.Brick.Box.Equal(baseRes.Brick.Box) {
					return fmt.Errorf("rank %d: brick boxes differ: %v vs %v",
						c.Rank(), ddrRes.Brick.Box, baseRes.Brick.Box)
				}
				for i := range ddrRes.Brick.Values {
					if ddrRes.Brick.Values[i] != baseRes.Brick.Values[i] {
						return fmt.Errorf("rank %d sample %d: DDR %f vs baseline %f",
							c.Rank(), i, ddrRes.Brick.Values[i], baseRes.Brick.Values[i])
					}
				}
				// DDR must read fewer or equal images per rank vs baseline
				// (d/p vs d/nz with nz <= p).
				if ddrRes.ImagesRead > baseRes.ImagesRead {
					return fmt.Errorf("rank %d: DDR read %d images, baseline %d",
						c.Rank(), ddrRes.ImagesRead, baseRes.ImagesRead)
				}
				// Aggregate DDR reads must equal the stack depth exactly:
				// each image read exactly once.
				total, err := c.AllreduceInt64([]int64{int64(ddrRes.ImagesRead)}, mpi.OpSum)
				if err != nil {
					return err
				}
				if total[0] != d {
					return fmt.Errorf("stack read %d times, want each of %d images once", total[0], d)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMeasureJPEGBytesPerPixel(t *testing.T) {
	bpp, err := MeasureJPEGBytesPerPixel(96, 48, 50, 2, 10, 75)
	if err != nil {
		t.Fatal(err)
	}
	if bpp <= 0 || bpp >= 4 {
		t.Errorf("bytes per pixel %.3f not in (0,4)", bpp)
	}
	if _, err := MeasureJPEGBytesPerPixel(96, 48, 0, 0, 10, 75); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestTable4Projection(t *testing.T) {
	rows := Table4(0.025, 200)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Raw sizes are exact: 3238*1295*4*200.
	if rows[0].RawBytes != int64(3238)*1295*4*200 {
		t.Errorf("raw bytes %d", rows[0].RawBytes)
	}
	for _, r := range rows {
		if r.ReductionPct < 99 || r.ReductionPct > 100 {
			t.Errorf("%dx%d: reduction %.2f%% out of the paper's regime", r.W, r.H, r.ReductionPct)
		}
		if r.ProcessedBytes <= 0 || r.ProcessedBytes >= r.RawBytes {
			t.Errorf("%dx%d: processed %d vs raw %d", r.W, r.H, r.ProcessedBytes, r.RawBytes)
		}
	}
}

// TestRunInTransitSmall drives the full use-case-B pipeline end to end at
// miniature scale.
func TestRunInTransitSmall(t *testing.T) {
	res, err := RunInTransit(InTransitConfig{
		M: 4, N: 2,
		GridW: 48, GridH: 36,
		Iterations:  30,
		OutputEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 3 {
		t.Errorf("frames = %d, want 3", res.Frames)
	}
	if res.RawBytes != int64(3)*48*36*4 {
		t.Errorf("raw bytes %d", res.RawBytes)
	}
	if res.ProcessedBytes <= 0 || res.ProcessedBytes >= res.RawBytes {
		t.Errorf("processed bytes %d vs raw %d", res.ProcessedBytes, res.RawBytes)
	}
	if res.ReductionPct <= 0 {
		t.Errorf("reduction %.2f%%", res.ReductionPct)
	}
	if res.LastFrame == nil || res.LastFrame.Bounds().Dx() != 48 {
		t.Error("missing final frame")
	}
}

// TestRunInTransitMultiField streams all three variables of interest and
// checks the accounting scales with field count.
func TestRunInTransitMultiField(t *testing.T) {
	res, err := RunInTransit(InTransitConfig{
		M: 4, N: 2,
		GridW: 48, GridH: 36,
		Iterations:  20,
		OutputEvery: 10,
		Fields:      []string{"vorticity", "speed", "density"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 2*3 {
		t.Errorf("frames = %d, want 6", res.Frames)
	}
	if res.RawBytes != int64(6)*48*36*4 {
		t.Errorf("raw bytes %d", res.RawBytes)
	}
	if res.ProcessedBytes <= 0 || res.ProcessedBytes >= res.RawBytes {
		t.Errorf("processed %d vs raw %d", res.ProcessedBytes, res.RawBytes)
	}
}

// TestRunInTransitMemBudget runs the pipeline under a staging budget
// tight enough that every frame regrids through the bounded step
// compiler; the rendered output accounting must be unchanged.
func TestRunInTransitMemBudget(t *testing.T) {
	res, err := RunInTransit(InTransitConfig{
		M: 4, N: 2,
		GridW: 48, GridH: 36,
		Iterations:  30,
		OutputEvery: 10,
		MemBudget:   1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 3 {
		t.Errorf("frames = %d, want 3", res.Frames)
	}
	if res.ProcessedBytes <= 0 || res.ProcessedBytes >= res.RawBytes {
		t.Errorf("processed bytes %d vs raw %d", res.ProcessedBytes, res.RawBytes)
	}
}

// TestRunInTransitPipelineDepth runs the pipeline with an explicit
// exchange pipeline depth — rounds in flight through the consumer
// descriptor's staging ring — and, composed with a tight budget, with
// the depth clamped so the ring still fits. Output accounting must be
// unchanged in both.
func TestRunInTransitPipelineDepth(t *testing.T) {
	for _, cfg := range []InTransitConfig{
		{M: 4, N: 2, GridW: 48, GridH: 36, Iterations: 30, OutputEvery: 10, PipelineDepth: 3},
		{M: 4, N: 2, GridW: 48, GridH: 36, Iterations: 30, OutputEvery: 10, PipelineDepth: 4, MemBudget: 1 << 10},
	} {
		res, err := RunInTransit(cfg)
		if err != nil {
			t.Fatalf("depth %d budget %d: %v", cfg.PipelineDepth, cfg.MemBudget, err)
		}
		if res.Frames != 3 {
			t.Errorf("depth %d budget %d: frames = %d, want 3", cfg.PipelineDepth, cfg.MemBudget, res.Frames)
		}
		if res.ProcessedBytes <= 0 || res.ProcessedBytes >= res.RawBytes {
			t.Errorf("depth %d budget %d: processed bytes %d vs raw %d", cfg.PipelineDepth, cfg.MemBudget, res.ProcessedBytes, res.RawBytes)
		}
	}
}

func TestInTransitFrameStats(t *testing.T) {
	dir := t.TempDir()
	csvPath := dir + "/stats.csv"
	res, err := RunInTransit(InTransitConfig{
		M: 4, N: 2,
		GridW: 48, GridH: 36,
		Iterations:  20,
		OutputEvery: 10,
		Fields:      []string{"vorticity", "density"},
		StatsPath:   csvPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 { // 2 steps x 2 fields
		t.Fatalf("%d stats rows", len(res.Stats))
	}
	for _, s := range res.Stats {
		if s.Cells != 48*36 {
			t.Errorf("step %d %s: %d cells", s.Step, s.Field, s.Cells)
		}
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Errorf("step %d %s: min/mean/max out of order: %g %g %g", s.Step, s.Field, s.Min, s.Mean, s.Max)
		}
		if s.RMS < 0 {
			t.Errorf("negative RMS")
		}
		if s.Field == "density" && (s.Mean < 0.5 || s.Mean > 1.5) {
			t.Errorf("density mean %g implausible", s.Mean)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "step,field") {
		t.Errorf("CSV shape: %d lines, header %q", len(lines), lines[0])
	}
}

func TestRunInTransitValidation(t *testing.T) {
	if _, err := RunInTransit(InTransitConfig{M: 2, N: 1, GridW: 32, GridH: 16, Iterations: 5, OutputEvery: 0}); err == nil {
		t.Error("zero OutputEvery accepted")
	}
	if _, err := RunInTransit(InTransitConfig{M: 1, N: 2, GridW: 32, GridH: 16, Iterations: 10, OutputEvery: 5}); err == nil {
		t.Error("more consumers than producers accepted")
	}
	if _, err := RunInTransit(InTransitConfig{M: 2, N: 1, GridW: 32, GridH: 16, Iterations: 10, OutputEvery: 5,
		Fields: []string{"nonsense"}}); err == nil {
		t.Error("unknown field accepted")
	}
}
