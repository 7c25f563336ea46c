package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Golden bounded-plan fixtures pin the bounded compiler's output — every
// rank's budgeted step list, in Plan.Summary's shape (one entry per step,
// with peers, tags, sizes and contiguity spans) — on the same 1D/2D/3D
// geometries the one-shot golden plans use, each at a budget small enough
// to force real slicing. Each rank's schedule is a pure function of its
// own plan and the budget, so the fixture is compiled offline, one rank
// at a time, with no world. Any change to the slicing, ordering or
// packing shows up as a reviewable fixture diff. Regenerate with:
// go test ./internal/core -run TestGoldenBoundedPlans -update.

// goldenBoundedDTO is one fixture: the budget and every rank's step list
// (its re-packed steps, or its rounds when they all fit).
type goldenBoundedDTO struct {
	Budget int           `json:"budget"`
	Plans  []PlanSummary `json:"plans"`
}

// goldenBoundedBudget picks the fixture budget per geometry: small
// enough that overlaps split into many slices across many steps, large
// enough that the fixture stays reviewable.
var goldenBoundedBudgets = map[string]int{
	"1d_blocks": 256,     // one-chunk minimum: every 16-cell block at elem 8 splits
	"2d_regrid": 4 << 10, // 64x40 float32 overlaps (10 KiB) split into row slabs
	"3d_blocks": 8 << 10, // 32x32x8 int16 overlaps (16 KiB) split into z-slabs
}

func TestGoldenBoundedPlans(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			budget := goldenBoundedBudgets[gc.name]
			if budget == 0 {
				t.Fatalf("no fixture budget for %q", gc.name)
			}
			dto := goldenBoundedDTO{Budget: budget}
			repacked := false
			for rank := range gc.needs {
				p, err := NewPlanFromGeometry(rank, gc.elemSize, gc.chunks, gc.needs)
				if err != nil {
					t.Fatal(err)
				}
				b, err := compileBounded(p, budget)
				if err != nil {
					t.Fatal(err)
				}
				repacked = repacked || b.sched != nil
				dto.Plans = append(dto.Plans, summarizeSteps(rank, b.steps(p)))
			}
			if !repacked {
				t.Fatalf("fixture budget %d re-packs no rank", budget)
			}
			got, err := json.MarshalIndent(dto, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_bounded_"+gc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("bounded step schedule diverges from %s;\nif the decomposition change is intentional, regenerate with -update", path)
			}
		})
	}
}
