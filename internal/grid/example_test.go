package grid_test

import (
	"fmt"

	"ddr/internal/grid"
)

// ExampleSlabs shows the slab decomposition the paper's LBM simulation
// uses: horizontal slices so each rank talks to at most two neighbors.
func ExampleSlabs() {
	domain := grid.Box2(0, 0, 8, 10)
	for i, s := range grid.Slabs(domain, 1, 3) {
		fmt.Printf("rank %d: %v\n", i, s)
	}
	// Output:
	// rank 0: (0,0)+(8,4)
	// rank 1: (0,4)+(8,3)
	// rank 2: (0,7)+(8,3)
}

// ExampleFactor3 shows the near-cube factorizations behind the paper's
// 3^3..6^3 process counts.
func ExampleFactor3() {
	for _, p := range []int{27, 64, 12} {
		x, y, z := grid.Factor3(p)
		fmt.Printf("%d = %dx%dx%d\n", p, x, y, z)
	}
	// Output:
	// 27 = 3x3x3
	// 64 = 4x4x4
	// 12 = 2x2x3
}
