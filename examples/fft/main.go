// fft: a distributed 2D spectral solve on top of the pipelined exchange
// engine. Eight ranks share a 256×256 complex grid as row slabs, take it
// to spectral space with internal/fft's Dist2D (row FFTs, a DDR-driven
// slab→pencil transpose, column FFTs), solve a Poisson problem
// ∇²u = f by one pointwise multiply in spectral space, and come back.
// Both transposes run as multi-round pipelined exchanges — the example
// prints each direction's measured pack/wire/unpack overlap so you can
// see the pipeline at work, verifies the solve against the analytically
// known solution, and prints each rank's spans as an ASCII timeline.
//
// Run with: go run ./examples/fft
package main

import (
	"fmt"
	"math"
	"os"

	"ddr/internal/core"
	"ddr/internal/fft"
	"ddr/internal/mpi"
	"ddr/internal/trace"
)

const (
	n      = 256 // grid edge (power of two)
	procs  = 8
	blocks = 4 // chunks per transpose: the exchange rounds the pipeline overlaps
	depth  = 3 // rounds in flight
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fft:", err)
		os.Exit(1)
	}
}

func run() error {
	overlaps := make([]float64, procs)
	rec := trace.NewRecorder()
	err := mpi.Launch(procs, func(c *mpi.Comm) error {
		d, err := fft.NewDist2D(c, n, blocks, core.WithPipelineDepth(depth), core.WithTracer(rec))
		if err != nil {
			return err
		}

		// f(x,y) = -8π² sin(2πx/n) sin(2πy/n): the Laplacian of
		// u(x,y) = sin(2πx/n) sin(2πy/n), so the solve must recover u.
		h := n / procs
		rows := d.Rows()
		for i := 0; i < h; i++ {
			y := c.Rank()*h + i
			for x := 0; x < n; x++ {
				k := 2 * math.Pi / float64(n)
				rows[i*n+x] = complex(-2*k*k*math.Sin(k*float64(x))*math.Sin(k*float64(y)), 0)
			}
		}

		if err := d.Forward(c); err != nil {
			return err
		}

		// Divide each spectral mode by -(kx²+ky²), the symbol of the
		// discrete-wavenumber Laplacian; the zero mode stays zero.
		w := n / procs
		pencils := d.Pencils()
		for y := 0; y < n; y++ {
			ky := wavenumber(y)
			for x := 0; x < w; x++ {
				kx := wavenumber(c.Rank()*w + x)
				if kx == 0 && ky == 0 {
					pencils[y*w+x] = 0
					continue
				}
				pencils[y*w+x] /= complex(-(kx*kx + ky*ky), 0)
			}
		}

		if err := d.Inverse(c); err != nil {
			return err
		}

		// Check against the analytic solution.
		var worst float64
		for i := 0; i < h; i++ {
			y := c.Rank()*h + i
			for x := 0; x < n; x++ {
				k := 2 * math.Pi / float64(n)
				want := math.Sin(k*float64(x)) * math.Sin(k*float64(y))
				if diff := math.Abs(real(rows[i*n+x]) - want); diff > worst {
					worst = diff
				}
			}
		}
		if worst > 1e-9 {
			return fmt.Errorf("rank %d: solution off by %g", c.Rank(), worst)
		}

		fwd, _ := d.Descriptors()
		overlaps[c.Rank()] = fwd.LastOverlapRatio()
		return nil
	})
	if err != nil {
		return err
	}

	var sum float64
	for _, o := range overlaps {
		sum += o
	}
	fmt.Printf("poisson solve verified on %d ranks (%d×%d grid, %d-round transposes, depth %d)\n",
		procs, n, n, blocks, depth)
	fmt.Printf("mean forward-transpose overlap ratio: %.2f (share of wire time hidden under pack/unpack)\n",
		sum/procs)
	fmt.Println("\nper-rank span timeline (m=mapping, e=exchange, r=rounds):")
	rec.WriteTimeline(os.Stdout, 64)
	return nil
}

// wavenumber maps a DFT bin to its signed wavenumber 2πk/n with k in
// (-n/2, n/2].
func wavenumber(bin int) float64 {
	k := bin
	if k > n/2 {
		k -= n
	}
	return 2 * math.Pi * float64(k) / float64(n)
}
