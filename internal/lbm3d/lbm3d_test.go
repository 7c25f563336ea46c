package lbm3d

import (
	"fmt"
	"math"
	"testing"

	"ddr/internal/mpi"
)

func testParams(w, h, d int) Params {
	return Params{
		Width: w, Height: h, Depth: d,
		Viscosity:     0.03,
		InletVelocity: 0.08,
		Barrier:       SphereBarrier(w/4, h/2, d/2, h/6),
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Width: 2, Height: 8, Depth: 8, Viscosity: 0.1, InletVelocity: 0.1},
		{Width: 8, Height: 8, Depth: 8, Viscosity: 0, InletVelocity: 0.1},
		{Width: 8, Height: 8, Depth: 8, Viscosity: 0.1, InletVelocity: 0.5},
	}
	for i, p := range bad {
		if _, err := NewSlab(p, 0, max(p.Depth, 1)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewSlab(testParams(8, 8, 8), 4, 8); err == nil {
		t.Error("out-of-range slab accepted")
	}
}

func TestLatticeInvariants(t *testing.T) {
	var wsum float64
	for i := 0; i < 19; i++ {
		wsum += wt[i]
		j := opp[i]
		if ex[j] != -ex[i] || ey[j] != -ey[i] || ez[j] != -ez[i] {
			t.Errorf("direction %d: opposite %d not a reflection", i, j)
		}
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Errorf("weights sum to %g", wsum)
	}
	// Equilibrium moments.
	for _, u := range [][3]float64{{0, 0, 0}, {0.08, 0, 0}, {0.02, -0.05, 0.04}} {
		rho := 1.1
		var sum, mx, my, mz float64
		for i := 0; i < 19; i++ {
			f := equilibrium(i, rho, u[0], u[1], u[2])
			sum += f
			mx += f * float64(ex[i])
			my += f * float64(ey[i])
			mz += f * float64(ez[i])
		}
		if math.Abs(sum-rho) > 1e-12 {
			t.Errorf("u=%v: density %g", u, sum)
		}
		if math.Abs(mx-rho*u[0]) > 1e-12 || math.Abs(my-rho*u[1]) > 1e-12 || math.Abs(mz-rho*u[2]) > 1e-12 {
			t.Errorf("u=%v: momentum (%g,%g,%g)", u, mx, my, mz)
		}
	}
}

func TestUniformFlowIsSteady(t *testing.T) {
	p := Params{Width: 8, Height: 6, Depth: 6, Viscosity: 0.05, InletVelocity: 0.06}
	s, err := NewSlab(p, 0, p.Depth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Collide()
		s.Stream()
	}
	rho, ux, uy, uz := s.rho, s.ux, s.uy, s.uz
	for i := range rho {
		if math.Abs(rho[i]-1) > 1e-9 || math.Abs(ux[i]-0.06) > 1e-9 ||
			math.Abs(uy[i]) > 1e-9 || math.Abs(uz[i]) > 1e-9 {
			t.Fatalf("cell %d drifted: %g %g %g %g", i, rho[i], ux[i], uy[i], uz[i])
		}
	}
}

func TestSphereDisturbsFlow(t *testing.T) {
	p := testParams(24, 12, 12)
	s, err := NewSlab(p, 0, p.Depth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		s.Collide()
		s.Stream()
	}
	speed := s.SpeedField()
	var spread float64
	for _, v := range speed {
		spread = math.Max(spread, math.Abs(float64(v)-0.08))
	}
	if spread < 1e-3 {
		t.Errorf("speed field flat (max deviation %g); obstacle had no effect", spread)
	}
	for i, r := range s.rho {
		if math.IsNaN(r) || (r != 0 && (r < 0.2 || r > 5)) {
			t.Fatalf("cell %d density %g unstable", i, r)
		}
	}
}

// TestParallelMatchesSerial: the 3D halo exchange must reproduce the
// serial run bit-for-bit.
func TestParallelMatchesSerial(t *testing.T) {
	p := testParams(16, 10, 12)
	const iters = 25

	serial, err := NewSlab(p, 0, p.Depth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		serial.Collide()
		serial.Stream()
	}
	sRho, sUx, sUz := serial.rho, serial.ux, serial.uz

	for _, n := range []int{2, 3, 4} {
		n := n
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				ps, err := NewParallel(c, p)
				if err != nil {
					return err
				}
				for i := 0; i < iters; i++ {
					if err := ps.Step(); err != nil {
						return err
					}
				}
				rho, ux, uz := ps.Slab.rho, ps.Slab.ux, ps.Slab.uz
				base := ps.Slab.Z0 * p.Width * p.Height
				for i := range rho {
					if rho[i] != sRho[base+i] || ux[i] != sUx[base+i] || uz[i] != sUz[base+i] {
						return fmt.Errorf("rank %d cell %d diverged", c.Rank(), i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSphereBarrier(t *testing.T) {
	b := SphereBarrier(5, 5, 5, 2)
	if !b(5, 5, 5) || !b(7, 5, 5) {
		t.Error("inside excluded")
	}
	if b(8, 5, 5) || b(5, 8, 8) {
		t.Error("outside included")
	}
}

func BenchmarkStep3D(b *testing.B) {
	p := testParams(32, 24, 24)
	s, err := NewSlab(p, 0, p.Depth)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.Width * p.Height * p.Depth))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Collide()
		s.Stream()
	}
}
