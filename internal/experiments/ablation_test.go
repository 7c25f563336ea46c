package experiments

import (
	"strings"
	"testing"

	"ddr/internal/grid"
)

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
