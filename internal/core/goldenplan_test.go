package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden plan fixtures under testdata/")

// Golden-plan fixtures pin the full compiled exchange schedule — rounds,
// per-round peer lists, per-entry packed sizes and contiguity spans —
// for one representative geometry per layout
// dimensionality, in the shape of the paper's mapping cases. Any change
// to the geometry/mapping math shows up as a fixture diff instead of
// silently reshaping the traffic. Regenerate with: go test ./internal/core
// -run TestGoldenPlans -update.

// goldenDTO is the whole fixture: per-rank plan summaries (the canonical
// JSON shape from planjson.go) plus the global schedule stats (identical
// on every rank, recorded once).
type goldenDTO struct {
	Stats ScheduleStats `json:"stats"`
	Plans []PlanSummary `json:"plans"`
}

// goldenCase is one named geometry in the shape of the paper's cases.
type goldenCase struct {
	name     string
	layout   Layout
	elemSize int
	chunks   [][]grid.Box
	needs    []grid.Box
}

func goldenCases() []goldenCase {
	cases := []goldenCase{}

	// 1D block redistribution: four ranks each own a 16-cell block of a
	// 64-cell line (rank 0's split in two, forcing a second round) and
	// need the reversed block assignment.
	c1 := goldenCase{name: "1d_blocks", layout: Layout1D, elemSize: 8}
	c1.chunks = [][]grid.Box{
		{grid.MustBox([]int{0}, []int{8}), grid.MustBox([]int{8}, []int{8})},
		{grid.MustBox([]int{16}, []int{16})},
		{grid.MustBox([]int{32}, []int{16})},
		{grid.MustBox([]int{48}, []int{16})},
	}
	for r := 0; r < 4; r++ {
		c1.needs = append(c1.needs, grid.MustBox([]int{16 * (3 - r)}, []int{16}))
	}
	cases = append(cases, c1)

	// 2D slab-to-rectangle regrid in the shape of the paper's Figure 5:
	// ten horizontal 640x40 simulation slabs regridded onto ten vertical
	// 64x400 analysis strips.
	c2 := goldenCase{name: "2d_regrid", layout: Layout2D, elemSize: 4}
	for r := 0; r < 10; r++ {
		c2.chunks = append(c2.chunks, []grid.Box{
			grid.MustBox([]int{0, 40 * r}, []int{640, 40}),
		})
		c2.needs = append(c2.needs, grid.MustBox([]int{64 * r, 0}, []int{64, 400}))
	}
	cases = append(cases, c2)

	// 3D block-to-slab: eight ranks own the 2x2x2 block decomposition of
	// a 64^3 volume (the paper's E1 shape) and need z-slabs.
	c3 := goldenCase{name: "3d_blocks", layout: Layout3D, elemSize: 2}
	for r := 0; r < 8; r++ {
		c3.chunks = append(c3.chunks, []grid.Box{
			grid.MustBox([]int{32 * (r & 1), 32 * ((r >> 1) & 1), 32 * ((r >> 2) & 1)}, []int{32, 32, 32}),
		})
		c3.needs = append(c3.needs, grid.MustBox([]int{0, 0, 8 * r}, []int{64, 64, 8}))
	}
	cases = append(cases, c3)

	return cases
}

func TestGoldenPlans(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			n := len(gc.chunks)
			plans := make([]PlanSummary, n)
			var stats ScheduleStats
			var mu sync.Mutex
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				d, err := NewDescriptor(n, gc.layout, Uint8, WithElemSize(gc.elemSize))
				if err != nil {
					return err
				}
				if err := d.SetupDataMapping(c, gc.chunks[c.Rank()], gc.needs[c.Rank()]); err != nil {
					return err
				}
				mu.Lock()
				plans[c.Rank()] = d.Plan().Summary()
				if c.Rank() == 0 {
					stats = d.Plan().Stats()
				}
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(goldenDTO{Stats: stats, Plans: plans}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_plan_"+gc.name+".json")
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
				t.Errorf("compiled plan diverges from %s;\nif the mapping change is intentional, regenerate with -update\ngot:\n%s", path, got)
			}
		})
	}
}
