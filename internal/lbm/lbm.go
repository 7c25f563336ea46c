// Package lbm implements the two-dimensional Lattice-Boltzmann (D2Q9)
// fluid solver used by the paper's in-transit streaming use case: flow in
// a channel past a barrier, slab-decomposed so each rank exchanges halo
// rows with at most two neighbors, with vorticity as the visualized
// variable of interest.
package lbm

import (
	"fmt"
	"math"
)

// D2Q9 lattice: direction vectors and weights. Direction 0 is rest.
var (
	ex = [9]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	ey = [9]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	wt = [9]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	// opp[i] is the direction opposite to i, used for bounce-back.
	opp = [9]int{0, 3, 4, 1, 2, 7, 8, 5, 6}
)

// Params configures a simulation.
type Params struct {
	Width, Height int
	// Viscosity is the kinematic viscosity; the BGK relaxation time is
	// tau = 3*nu + 0.5.
	Viscosity float64
	// InletVelocity is the fixed +x flow speed imposed at the domain edges.
	InletVelocity float64
	// Barrier marks solid cells (global coordinates). Nil means open flow.
	Barrier func(x, y int) bool
}

func (p Params) validate() error {
	if p.Width < 3 || p.Height < 3 {
		return fmt.Errorf("lbm: domain %dx%d too small", p.Width, p.Height)
	}
	if p.Viscosity <= 0 {
		return fmt.Errorf("lbm: viscosity %f must be positive", p.Viscosity)
	}
	if math.Abs(p.InletVelocity) > 0.3 {
		return fmt.Errorf("lbm: inlet velocity %f exceeds the low-Mach validity range", p.InletVelocity)
	}
	return nil
}

// CylinderBarrier returns a Params.Barrier placing a solid circle of the
// given radius centred at (cx, cy) — the obstacle that sheds the vortex
// street the paper visualizes.
func CylinderBarrier(cx, cy, r int) func(x, y int) bool {
	r2 := r * r
	return func(x, y int) bool {
		dx, dy := x-cx, y-cy
		return dx*dx+dy*dy <= r2
	}
}

// Slab simulates rows [Y0, Y0+NY) of the global domain, with one ghost
// row above and below. A serial simulation is a single slab covering the
// whole height.
type Slab struct {
	P      Params
	Y0, NY int

	omega float64
	// f and fs ("f streamed") hold 9 distribution planes of (NY+2)*W cells;
	// row r of the plane is global row Y0-1+r.
	f, fs   [9][]float64
	barrier []bool // same geometry as one plane

	rho, ux, uy []float64 // last computed macroscopic fields, slab rows only
}

// NewSlab builds the slab simulator for rows [y0, y0+ny) and initializes
// all fluid to equilibrium at density 1 and the inlet velocity.
func NewSlab(p Params, y0, ny int) (*Slab, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if y0 < 0 || ny < 1 || y0+ny > p.Height {
		return nil, fmt.Errorf("lbm: slab rows [%d,%d) outside domain height %d", y0, y0+ny, p.Height)
	}
	s := &Slab{P: p, Y0: y0, NY: ny, omega: 1.0 / (3*p.Viscosity + 0.5)}
	n := (ny + 2) * p.Width
	for i := range s.f {
		s.f[i] = make([]float64, n)
		s.fs[i] = make([]float64, n)
	}
	s.barrier = make([]bool, n)
	s.rho = make([]float64, ny*p.Width)
	s.ux = make([]float64, ny*p.Width)
	s.uy = make([]float64, ny*p.Width)

	for r := 0; r < ny+2; r++ {
		gy := y0 - 1 + r
		for x := 0; x < p.Width; x++ {
			idx := r*p.Width + x
			if p.Barrier != nil && gy >= 0 && gy < p.Height && p.Barrier(x, gy) {
				s.barrier[idx] = true
			}
			for i := 0; i < 9; i++ {
				s.f[i][idx] = equilibrium(i, 1.0, p.InletVelocity, 0)
			}
		}
	}
	return s, nil
}

// equilibrium returns the Maxwell-Boltzmann equilibrium distribution for
// direction i at density rho and velocity (ux, uy).
func equilibrium(i int, rho, ux, uy float64) float64 {
	eu := float64(ex[i])*ux + float64(ey[i])*uy
	u2 := ux*ux + uy*uy
	return wt[i] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
}

// Collide applies the BGK collision operator to every cell of the slab
// (ghost rows are not collided; neighbors provide theirs post-collision).
func (s *Slab) Collide() {
	w := s.P.Width
	for r := 1; r <= s.NY; r++ {
		for x := 0; x < w; x++ {
			idx := r*w + x
			if s.barrier[idx] {
				continue
			}
			var rho, mx, my float64
			for i := 0; i < 9; i++ {
				v := s.f[i][idx]
				rho += v
				mx += v * float64(ex[i])
				my += v * float64(ey[i])
			}
			ux, uy := mx/rho, my/rho
			for i := 0; i < 9; i++ {
				s.f[i][idx] += s.omega * (equilibrium(i, rho, ux, uy) - s.f[i][idx])
			}
			out := (r-1)*w + x
			s.rho[out], s.ux[out], s.uy[out] = rho, ux, uy
		}
	}
}

// haloFloats is the number of float64 values in one exchanged edge row
// (all 9 distribution planes).
func (s *Slab) haloFloats() int { return 9 * s.P.Width }

// EdgeRows returns copies of the slab's post-collision boundary rows:
// low is global row Y0 (to send to the neighbor below) and high is global
// row Y0+NY-1 (to send to the neighbor above). Layout: 9 planes of W.
func (s *Slab) EdgeRows() (low, high []float64) {
	w := s.P.Width
	low = make([]float64, s.haloFloats())
	high = make([]float64, s.haloFloats())
	for i := 0; i < 9; i++ {
		copy(low[i*w:(i+1)*w], s.f[i][1*w:2*w])
		copy(high[i*w:(i+1)*w], s.f[i][s.NY*w:(s.NY+1)*w])
	}
	return low, high
}

// SetHalo installs neighbor edge rows into the ghost rows: low becomes
// global row Y0-1 and high becomes global row Y0+NY. A nil slice leaves
// the corresponding ghost row at its fixed equilibrium values, which is
// the correct behaviour at the global top and bottom edges (they are
// overwritten by the boundary condition after streaming anyway).
func (s *Slab) SetHalo(low, high []float64) error {
	w := s.P.Width
	if low != nil {
		if len(low) != s.haloFloats() {
			return fmt.Errorf("lbm: low halo has %d floats, want %d", len(low), s.haloFloats())
		}
		for i := 0; i < 9; i++ {
			copy(s.f[i][0:w], low[i*w:(i+1)*w])
		}
	}
	if high != nil {
		if len(high) != s.haloFloats() {
			return fmt.Errorf("lbm: high halo has %d floats, want %d", len(high), s.haloFloats())
		}
		for i := 0; i < 9; i++ {
			copy(s.f[i][(s.NY+1)*w:(s.NY+2)*w], high[i*w:(i+1)*w])
		}
	}
	return nil
}

// Stream propagates post-collision distributions one lattice step and
// applies half-way bounce-back at barriers, then re-imposes the fixed
// equilibrium condition on the global domain edges.
func (s *Slab) Stream() {
	w := s.P.Width
	for i := 0; i < 9; i++ {
		for r := 1; r <= s.NY; r++ {
			for x := 0; x < w; x++ {
				idx := r*w + x
				sx, sy := x-ex[i], r-ey[i]
				if sx < 0 {
					sx = 0 // clamp; overwritten by the edge condition below
				}
				if sx >= w {
					sx = w - 1
				}
				src := sy*w + sx
				if s.barrier[src] {
					// The particle would have come out of a solid cell:
					// reflect the one leaving this cell instead.
					s.fs[i][idx] = s.f[opp[i]][idx]
				} else {
					s.fs[i][idx] = s.f[i][src]
				}
			}
		}
	}
	for i := 0; i < 9; i++ {
		copy(s.f[i][w:(s.NY+1)*w], s.fs[i][w:(s.NY+1)*w])
	}
	s.applyEdges()
}

// applyEdges holds the global domain border cells at equilibrium inflow,
// the "certain cells, including the edges, are kept at fixed values" rule
// from the paper.
func (s *Slab) applyEdges() {
	w := s.P.Width
	set := func(idx int) {
		for i := 0; i < 9; i++ {
			s.f[i][idx] = equilibrium(i, 1.0, s.P.InletVelocity, 0)
		}
	}
	for r := 1; r <= s.NY; r++ {
		gy := s.Y0 - 1 + r
		if gy == 0 || gy == s.P.Height-1 {
			for x := 0; x < w; x++ {
				set(r*w + x)
			}
			continue
		}
		set(r*w + 0)
		set(r*w + w - 1)
	}
}

// Step advances the slab one iteration in serial mode (no neighbors).
// Parallel drivers call Collide / EdgeRows / SetHalo / Stream directly.
func (s *Slab) Step() {
	s.Collide()
	s.Stream()
}

// VorticityInterior computes the discrete curl at the slab's cells using
// central differences over the given neighbor velocity rows. uxBelow/uyBelow
// hold velocities of global row Y0-1 and uxAbove/uyAbove of row Y0+NY
// (nil at the global edges, where vorticity is reported as zero).
// The result has NY*Width float32 values.
func (s *Slab) VorticityInterior(uxBelow, uyBelow, uxAbove, uyAbove []float64) []float32 {
	w := s.P.Width
	out := make([]float32, s.NY*w)
	uxAt := func(x, r int) float64 { // r relative to slab start; -1 and NY use neighbors
		switch {
		case r == -1:
			return uxBelow[x]
		case r == s.NY:
			return uxAbove[x]
		default:
			return s.ux[r*w+x]
		}
	}
	uyAt := func(x, r int) float64 {
		switch {
		case r == -1:
			return uyBelow[x]
		case r == s.NY:
			return uyAbove[x]
		default:
			return s.uy[r*w+x]
		}
	}
	for r := 0; r < s.NY; r++ {
		gy := s.Y0 + r
		for x := 0; x < w; x++ {
			if x == 0 || x == w-1 || gy == 0 || gy == s.P.Height-1 {
				continue // leave zero at domain borders
			}
			if gy-1 < s.Y0 && uxBelow == nil {
				continue
			}
			if gy+1 >= s.Y0+s.NY && uxAbove == nil {
				continue
			}
			curl := (uyAt(x+1, r) - uyAt(x-1, r)) - (uxAt(x, r+1) - uxAt(x, r-1))
			out[r*w+x] = float32(curl)
		}
	}
	return out
}

// VelocityEdgeRows returns copies of the slab's macroscopic velocity on
// its boundary rows, for neighbor exchange before vorticity computation.
func (s *Slab) VelocityEdgeRows() (uxLow, uyLow, uxHigh, uyHigh []float64) {
	w := s.P.Width
	uxLow = append([]float64(nil), s.ux[:w]...)
	uyLow = append([]float64(nil), s.uy[:w]...)
	uxHigh = append([]float64(nil), s.ux[(s.NY-1)*w:s.NY*w]...)
	uyHigh = append([]float64(nil), s.uy[(s.NY-1)*w:s.NY*w]...)
	return
}

// SpeedField returns |u| per slab cell as float32, a second streamable
// variable of interest besides vorticity.
func (s *Slab) SpeedField() []float32 {
	out := make([]float32, len(s.ux))
	for i := range out {
		out[i] = float32(math.Sqrt(s.ux[i]*s.ux[i] + s.uy[i]*s.uy[i]))
	}
	return out
}

// DensityField returns rho per slab cell as float32.
func (s *Slab) DensityField() []float32 {
	out := make([]float32, len(s.rho))
	for i := range out {
		out[i] = float32(s.rho[i])
	}
	return out
}
