package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Golden bounded-plan fixtures pin the bounded compiler's step
// decomposition — the full global slice list with step assignments, tags,
// and per-slice regions — on the same 1D/2D/3D geometries the one-shot
// golden plans use, each at a budget small enough to force real slicing.
// The schedule is a pure function of the geometry, element size, and
// budget (identical on every rank), so the fixture is compiled offline
// from rank 0's plan with no world. Any change to the slicing or packing
// math shows up as a reviewable fixture diff. Regenerate with:
// go test ./internal/core -run TestGoldenBoundedPlans -update.

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
			p, err := NewPlanFromGeometry(0, gc.elemSize, gc.chunks, gc.needs)
			if err != nil {
				t.Fatal(err)
			}
			if fp := p.SingleShotFootprint(); fp <= budget {
				t.Fatalf("fixture budget %d does not force the bounded backend (footprint %d)", budget, fp)
			}
			if err := CompileBoundedForTest(p, budget); err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(p.BoundedSummary(), "", "  ")
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
