// Package lbm3d implements a three-dimensional Lattice-Boltzmann (D3Q19)
// fluid solver, the volumetric extension of the paper's 2D use case: a
// channel flow past a spherical obstacle, slab-decomposed along z with
// halo exchange, whose fields stream in-transit into the DDR + DVR
// pipeline (slabs regrid into rendering bricks). This joins the paper's
// two use cases — in-transit streaming and distributed volume rendering —
// into one workflow.
package lbm3d

import (
	"fmt"
	"math"
)

// D3Q19 lattice: the rest vector, 6 face neighbors, and 12 edge
// neighbors.
var (
	ex = [19]int{0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0}
	ey = [19]int{0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1}
	ez = [19]int{0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1}
	wt [19]float64
	// opp[i] is the direction opposite to i.
	opp [19]int
)

func init() {
	for i := 0; i < 19; i++ {
		switch ex[i]*ex[i] + ey[i]*ey[i] + ez[i]*ez[i] {
		case 0:
			wt[i] = 1.0 / 3
		case 1:
			wt[i] = 1.0 / 18
		default:
			wt[i] = 1.0 / 36
		}
		for j := 0; j < 19; j++ {
			if ex[j] == -ex[i] && ey[j] == -ey[i] && ez[j] == -ez[i] {
				opp[i] = j
			}
		}
	}
}

// Params configures a simulation.
type Params struct {
	Width, Height, Depth int // x, y, z extents
	Viscosity            float64
	InletVelocity        float64 // fixed +x flow at the domain boundary
	// Barrier marks solid cells in global coordinates; nil = open flow.
	Barrier func(x, y, z int) bool
}

func (p Params) validate() error {
	if p.Width < 3 || p.Height < 3 || p.Depth < 3 {
		return fmt.Errorf("lbm3d: domain %dx%dx%d too small", p.Width, p.Height, p.Depth)
	}
	if p.Viscosity <= 0 {
		return fmt.Errorf("lbm3d: viscosity %f must be positive", p.Viscosity)
	}
	if math.Abs(p.InletVelocity) > 0.3 {
		return fmt.Errorf("lbm3d: inlet velocity %f exceeds the low-Mach validity range", p.InletVelocity)
	}
	return nil
}

// SphereBarrier returns a Params.Barrier placing a solid ball of radius r
// at (cx, cy, cz).
func SphereBarrier(cx, cy, cz, r int) func(x, y, z int) bool {
	r2 := r * r
	return func(x, y, z int) bool {
		dx, dy, dz := x-cx, y-cy, z-cz
		return dx*dx+dy*dy+dz*dz <= r2
	}
}

// Slab simulates global z-planes [Z0, Z0+NZ) with one ghost plane on each
// side. A serial simulation is a single slab covering the whole depth.
type Slab struct {
	P      Params
	Z0, NZ int

	omega   float64
	f, fs   [19][]float64 // (NZ+2) planes of Width*Height cells
	barrier []bool

	rho, ux, uy, uz []float64 // slab planes only, from the last Collide
}

// NewSlab builds the slab simulator for planes [z0, z0+nz), initialized
// to equilibrium at density 1 and the inlet velocity.
func NewSlab(p Params, z0, nz int) (*Slab, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if z0 < 0 || nz < 1 || z0+nz > p.Depth {
		return nil, fmt.Errorf("lbm3d: slab planes [%d,%d) outside depth %d", z0, z0+nz, p.Depth)
	}
	s := &Slab{P: p, Z0: z0, NZ: nz, omega: 1.0 / (3*p.Viscosity + 0.5)}
	plane := p.Width * p.Height
	n := (nz + 2) * plane
	for i := range s.f {
		s.f[i] = make([]float64, n)
		s.fs[i] = make([]float64, n)
	}
	s.barrier = make([]bool, n)
	s.rho = make([]float64, nz*plane)
	s.ux = make([]float64, nz*plane)
	s.uy = make([]float64, nz*plane)
	s.uz = make([]float64, nz*plane)

	for r := 0; r < nz+2; r++ {
		gz := z0 - 1 + r
		for y := 0; y < p.Height; y++ {
			for x := 0; x < p.Width; x++ {
				idx := r*plane + y*p.Width + x
				if p.Barrier != nil && gz >= 0 && gz < p.Depth && p.Barrier(x, y, gz) {
					s.barrier[idx] = true
				}
				for i := 0; i < 19; i++ {
					s.f[i][idx] = equilibrium(i, 1.0, p.InletVelocity, 0, 0)
				}
			}
		}
	}
	return s, nil
}

// equilibrium returns the D3Q19 equilibrium distribution.
func equilibrium(i int, rho, ux, uy, uz float64) float64 {
	eu := float64(ex[i])*ux + float64(ey[i])*uy + float64(ez[i])*uz
	u2 := ux*ux + uy*uy + uz*uz
	return wt[i] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
}

// Collide applies BGK collision to the slab's own planes.
func (s *Slab) Collide() {
	plane := s.P.Width * s.P.Height
	for r := 1; r <= s.NZ; r++ {
		base := r * plane
		for c := 0; c < plane; c++ {
			idx := base + c
			if s.barrier[idx] {
				continue
			}
			var rho, mx, my, mz float64
			for i := 0; i < 19; i++ {
				v := s.f[i][idx]
				rho += v
				mx += v * float64(ex[i])
				my += v * float64(ey[i])
				mz += v * float64(ez[i])
			}
			ux, uy, uz := mx/rho, my/rho, mz/rho
			for i := 0; i < 19; i++ {
				s.f[i][idx] += s.omega * (equilibrium(i, rho, ux, uy, uz) - s.f[i][idx])
			}
			out := (r-1)*plane + c
			s.rho[out], s.ux[out], s.uy[out], s.uz[out] = rho, ux, uy, uz
		}
	}
}

// haloFloats is the float count of one exchanged boundary plane.
func (s *Slab) haloFloats() int { return 19 * s.P.Width * s.P.Height }

// EdgePlanes returns copies of the post-collision boundary planes: low is
// global plane Z0, high is Z0+NZ-1. Layout: 19 sub-planes of
// Width*Height.
func (s *Slab) EdgePlanes() (low, high []float64) {
	plane := s.P.Width * s.P.Height
	low = make([]float64, s.haloFloats())
	high = make([]float64, s.haloFloats())
	for i := 0; i < 19; i++ {
		copy(low[i*plane:(i+1)*plane], s.f[i][plane:2*plane])
		copy(high[i*plane:(i+1)*plane], s.f[i][s.NZ*plane:(s.NZ+1)*plane])
	}
	return
}

// SetHalo installs neighbor boundary planes into the ghost planes; nil
// leaves a ghost at its fixed equilibrium (correct at domain faces).
func (s *Slab) SetHalo(low, high []float64) error {
	plane := s.P.Width * s.P.Height
	if low != nil {
		if len(low) != s.haloFloats() {
			return fmt.Errorf("lbm3d: low halo has %d floats, want %d", len(low), s.haloFloats())
		}
		for i := 0; i < 19; i++ {
			copy(s.f[i][0:plane], low[i*plane:(i+1)*plane])
		}
	}
	if high != nil {
		if len(high) != s.haloFloats() {
			return fmt.Errorf("lbm3d: high halo has %d floats, want %d", len(high), s.haloFloats())
		}
		for i := 0; i < 19; i++ {
			copy(s.f[i][(s.NZ+1)*plane:(s.NZ+2)*plane], high[i*plane:(i+1)*plane])
		}
	}
	return nil
}

// Stream propagates post-collision distributions with half-way
// bounce-back at barriers, then re-imposes the fixed condition on the
// global domain faces.
func (s *Slab) Stream() {
	w, h := s.P.Width, s.P.Height
	plane := w * h
	for i := 0; i < 19; i++ {
		dxi, dyi, dzi := ex[i], ey[i], ez[i]
		for r := 1; r <= s.NZ; r++ {
			for y := 0; y < h; y++ {
				sy := y - dyi
				if sy < 0 {
					sy = 0
				}
				if sy >= h {
					sy = h - 1
				}
				for x := 0; x < w; x++ {
					sx := x - dxi
					if sx < 0 {
						sx = 0
					}
					if sx >= w {
						sx = w - 1
					}
					idx := r*plane + y*w + x
					src := (r-dzi)*plane + sy*w + sx
					if s.barrier[src] {
						s.fs[i][idx] = s.f[opp[i]][idx]
					} else {
						s.fs[i][idx] = s.f[i][src]
					}
				}
			}
		}
	}
	for i := 0; i < 19; i++ {
		copy(s.f[i][plane:(s.NZ+1)*plane], s.fs[i][plane:(s.NZ+1)*plane])
	}
	s.applyFaces()
}

// applyFaces holds the global boundary faces at equilibrium inflow.
func (s *Slab) applyFaces() {
	w, h := s.P.Width, s.P.Height
	plane := w * h
	set := func(idx int) {
		for i := 0; i < 19; i++ {
			s.f[i][idx] = equilibrium(i, 1.0, s.P.InletVelocity, 0, 0)
		}
	}
	for r := 1; r <= s.NZ; r++ {
		gz := s.Z0 - 1 + r
		base := r * plane
		if gz == 0 || gz == s.P.Depth-1 {
			for c := 0; c < plane; c++ {
				set(base + c)
			}
			continue
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x == 0 || x == w-1 || y == 0 || y == h-1 {
					set(base + y*w + x)
				}
			}
		}
	}
}

// SpeedField returns |u| per slab cell as float32 — the streamed variable
// of interest for volume rendering.
func (s *Slab) SpeedField() []float32 {
	out := make([]float32, len(s.ux))
	for i := range out {
		out[i] = float32(math.Sqrt(s.ux[i]*s.ux[i] + s.uy[i]*s.uy[i] + s.uz[i]*s.uz[i]))
	}
	return out
}
