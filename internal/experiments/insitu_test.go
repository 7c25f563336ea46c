package experiments

import (
	"os"
	"strings"
	"testing"

	"ddr/internal/grid"
)

func TestRunInSitu(t *testing.T) {
	res, err := RunInSitu(InTransitConfig{
		M: 4, N: 0, // N unused in-situ
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
	if res.ProcessedBytes <= 0 {
		t.Errorf("processed bytes %d", res.ProcessedBytes)
	}
	if res.SimTime <= 0 || res.RenderTime <= 0 || res.WallTime <= 0 {
		t.Errorf("timings %v/%v/%v", res.SimTime, res.RenderTime, res.WallTime)
	}
	if _, err := RunInSitu(InTransitConfig{M: 2, GridW: 32, GridH: 16, Iterations: 5, OutputEvery: 0}); err == nil {
		t.Error("zero OutputEvery accepted")
	}
}

func TestDepthAblation(t *testing.T) {
	rows, err := DepthAblation(4, grid.Box3(0, 0, 0, 16, 16, 32), []int{1, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Rounds != 1 || rows[1].Rounds != 4 {
		t.Errorf("rounds %d/%d, want 1/4", rows[0].Rounds, rows[1].Rounds)
	}
	for _, r := range rows {
		for _, c := range []Spread{r.Serial, r.Pipelined} {
			if c.Q1 <= 0 || c.Q1 > c.Median || c.Median > c.Q3 {
				t.Errorf("chunks=%d: timings %+v, want 0 < q1 <= median <= q3", r.ChunksPerRank, c)
			}
		}
		if r.MaxPeers < 1 || r.MaxPeers > r.Ranks-1 {
			t.Errorf("chunks=%d: peers %d", r.ChunksPerRank, r.MaxPeers)
		}
	}
	var sb strings.Builder
	WriteAblation(&sb, rows, 5)
	if !strings.Contains(sb.String(), "chunks/rank") || !strings.Contains(sb.String(), rows[0].Serial.String()) {
		t.Errorf("ablation table missing header or quartiles:\n%s", sb.String())
	}
	// Validation paths.
	if _, err := DepthAblation(4, grid.Box2(0, 0, 8, 8), []int{1}, 1); err == nil {
		t.Error("2D domain accepted")
	}
	if _, err := DepthAblation(4, grid.Box3(0, 0, 0, 4, 4, 4), []int{9}, 1); err == nil {
		t.Error("too many slabs accepted")
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

// TestCompareCouplings runs the identical workload in-situ and
// in-transit: both render the same frames.
func TestCompareCouplings(t *testing.T) {
	cfg := InTransitConfig{
		M: 4, N: 2,
		GridW: 48, GridH: 36,
		Iterations:  20,
		OutputEvery: 10,
	}
	insitu, err := RunInSitu(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intransit, err := RunInTransit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if insitu.Frames != intransit.Frames {
		t.Errorf("frame counts differ: %d vs %d", insitu.Frames, intransit.Frames)
	}
}
