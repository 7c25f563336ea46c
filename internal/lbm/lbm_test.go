package lbm

import (
	"fmt"
	"math"
	"testing"

	"ddr/internal/mpi"
)

func testParams(w, h int) Params {
	return Params{
		Width:         w,
		Height:        h,
		Viscosity:     0.02,
		InletVelocity: 0.1,
		Barrier:       CylinderBarrier(w/4, h/2, h/9),
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Width: 2, Height: 10, Viscosity: 0.1, InletVelocity: 0.1},
		{Width: 10, Height: 2, Viscosity: 0.1, InletVelocity: 0.1},
		{Width: 10, Height: 10, Viscosity: 0, InletVelocity: 0.1},
		{Width: 10, Height: 10, Viscosity: 0.1, InletVelocity: 0.9},
	}
	for i, p := range bad {
		if _, err := NewSlab(p, 0, p.Height); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := NewSlab(testParams(12, 12), 6, 10); err == nil {
		t.Error("out-of-range slab accepted")
	}
}

func TestEquilibriumMoments(t *testing.T) {
	// Zeroth and first moments of the equilibrium must reproduce rho and
	// momentum for small velocities.
	for _, u := range [][2]float64{{0, 0}, {0.1, 0}, {0.05, -0.08}} {
		rho := 1.3
		var sum, mx, my float64
		for i := 0; i < 9; i++ {
			f := equilibrium(i, rho, u[0], u[1])
			sum += f
			mx += f * float64(ex[i])
			my += f * float64(ey[i])
		}
		if math.Abs(sum-rho) > 1e-12 {
			t.Errorf("u=%v: density %f, want %f", u, sum, rho)
		}
		if math.Abs(mx-rho*u[0]) > 1e-12 || math.Abs(my-rho*u[1]) > 1e-12 {
			t.Errorf("u=%v: momentum (%f,%f), want (%f,%f)", u, mx, my, rho*u[0], rho*u[1])
		}
	}
}

func TestOppositeDirections(t *testing.T) {
	for i := 0; i < 9; i++ {
		j := opp[i]
		if ex[i] != -ex[j] || ey[i] != -ey[j] {
			t.Errorf("direction %d: opposite %d is not a reflection", i, j)
		}
	}
}

// TestUniformFlowIsSteady: with no barrier, a uniform equilibrium state at
// the inlet velocity is a fixed point of the update.
func TestUniformFlowIsSteady(t *testing.T) {
	p := Params{Width: 16, Height: 12, Viscosity: 0.05, InletVelocity: 0.08}
	s, err := NewSlab(p, 0, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 5; it++ {
		s.Step()
	}
	rho, ux, uy := s.rho, s.ux, s.uy
	for i := range rho {
		if math.Abs(rho[i]-1) > 1e-9 || math.Abs(ux[i]-0.08) > 1e-9 || math.Abs(uy[i]) > 1e-9 {
			t.Fatalf("cell %d drifted: rho=%g ux=%g uy=%g", i, rho[i], ux[i], uy[i])
		}
	}
}

// TestBarrierDisturbsFlow: the obstacle must generate a wake with nonzero
// vorticity after enough iterations, while the flow stays stable and,
// although the inflow boundary does not conserve mass exactly, the summed
// fluid density stays within 5 % of its value after the first step.
func TestBarrierDisturbsFlow(t *testing.T) {
	p := testParams(64, 32)
	s, err := NewSlab(p, 0, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	fluidMass := func() float64 {
		var m float64
		for r := 0; r < s.NY; r++ {
			for x := 0; x < p.Width; x++ {
				if !s.barrier[(r+1)*p.Width+x] {
					m += s.rho[r*p.Width+x]
				}
			}
		}
		return m
	}
	s.Step()
	m0 := fluidMass()
	for it := 1; it < 300; it++ {
		s.Step()
	}
	vort := s.VorticityInterior(nil, nil, nil, nil)
	var maxAbs float64
	for _, v := range vort {
		maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
	}
	if maxAbs < 1e-4 {
		t.Errorf("max |vorticity| = %g; expected a wake", maxAbs)
	}
	// The flow must stay numerically stable.
	rho := s.rho
	for i, r := range rho {
		if math.IsNaN(r) || (r != 0 && (r < 0.2 || r > 5)) {
			t.Fatalf("cell %d density %g unstable", i, r)
		}
	}
	if rel := math.Abs(fluidMass()-m0) / m0; rel > 0.05 {
		t.Errorf("fluid mass drifted %.2f%% over the run", 100*rel)
	}
}

// TestParallelMatchesSerial is the load-bearing test: running the same
// simulation decomposed over N ranks must reproduce the serial run
// bit-for-bit, proving the halo exchange is exact.
func TestParallelMatchesSerial(t *testing.T) {
	p := testParams(48, 36)
	const iters = 50

	serial, err := NewSlab(p, 0, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		serial.Step()
	}
	srho, sux, suy := serial.rho, serial.ux, serial.uy
	serialVort := serial.VorticityInterior(nil, nil, nil, nil)

	for _, n := range []int{2, 3, 5} {
		n := n
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				ps, err := NewParallel(c, p)
				if err != nil {
					return err
				}
				for it := 0; it < iters; it++ {
					if err := ps.Step(); err != nil {
						return err
					}
				}
				rho, ux, uy := ps.Slab.rho, ps.Slab.ux, ps.Slab.uy
				base := ps.Slab.Y0 * p.Width
				for i := range rho {
					if rho[i] != srho[base+i] || ux[i] != sux[base+i] || uy[i] != suy[base+i] {
						return fmt.Errorf("rank %d cell %d: (%g,%g,%g) != serial (%g,%g,%g)",
							c.Rank(), i, rho[i], ux[i], uy[i], srho[base+i], sux[base+i], suy[base+i])
					}
				}
				vort, err := ps.Vorticity()
				if err != nil {
					return err
				}
				for i := range vort {
					if vort[i] != serialVort[base+i] {
						return fmt.Errorf("rank %d vorticity %d: %g != %g", c.Rank(), i, vort[i], serialVort[base+i])
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

func TestNewParallelTooManyRanks(t *testing.T) {
	err := mpi.Launch(4, func(c *mpi.Comm) error {
		_, err := NewParallel(c, Params{Width: 8, Height: 3, Viscosity: 0.1, InletVelocity: 0.05})
		if err == nil {
			return fmt.Errorf("4 ranks over 3 rows accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloatByteConversions(t *testing.T) {
	fs := []float64{0, 1.5, -2.25, math.Pi}
	got := bytesToFloats(floatsToBytes(fs))
	for i := range fs {
		if got[i] != fs[i] {
			t.Errorf("float64 roundtrip[%d] = %g", i, got[i])
		}
	}
	f32 := []float32{0, -1.25, 3.5e7}
	got32 := BytesToFloat32s(Float32sToBytes(f32))
	for i := range f32 {
		if got32[i] != f32[i] {
			t.Errorf("float32 roundtrip[%d] = %g", i, got32[i])
		}
	}
}

func TestCylinderBarrier(t *testing.T) {
	b := CylinderBarrier(10, 10, 3)
	if !b(10, 10) || !b(12, 10) || !b(10, 13) {
		t.Error("points inside radius excluded")
	}
	if b(14, 10) || b(10, 14) {
		t.Error("points outside radius included")
	}
}

func BenchmarkStep(b *testing.B) {
	p := testParams(256, 128)
	s, err := NewSlab(p, 0, p.Height)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.Width * p.Height))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestFieldExtractors(t *testing.T) {
	p := Params{Width: 8, Height: 6, Viscosity: 0.05, InletVelocity: 0.08}
	s, err := NewSlab(p, 0, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	speed := s.SpeedField()
	dens := s.DensityField()
	if len(speed) != 48 || len(dens) != 48 {
		t.Fatalf("field lengths %d/%d", len(speed), len(dens))
	}
	if math.Abs(float64(speed[10])-0.08) > 1e-6 {
		t.Errorf("speed %f, want 0.08", speed[10])
	}
	if math.Abs(float64(dens[10])-1) > 1e-6 {
		t.Errorf("density %f, want 1", dens[10])
	}
}
