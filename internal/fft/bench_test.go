package fft

import (
	"testing"
	"time"

	"ddr/internal/core"
	"ddr/internal/mpi"
)

// The benchmark world: a 16-rank 2D FFT whose transposes move data over
// links slowed by an injected per-message transfer delay. The delay
// engine serializes deliveries per link (FIFO), so it models a
// bandwidth-limited wire: a rank's nb round messages to one peer cost
// nb·delay of wire time, and the only way to go faster is to overlap
// CPU (pack, unpack, other ranks' compute) with the sleeps — exactly
// what the pipelined exchange engine does. "serial" is the DDR path at
// depth 1, "pipelined" at the default depth 2, "hand" the hand-written
// one-message-per-peer transpose with identical FFT compute.
const (
	benchProcs = 16
	benchN     = 256
	benchNB    = 4
	// benchDelay is tuned against the per-round aggregate CPU of this
	// configuration on one core: large enough that the wire dominates a
	// serial round, small enough that pipelined rounds can hide it.
	benchDelay = 200 * time.Microsecond
	// benchDepth is the depth of the headline "pipelined" series: the
	// full round count, so every round's pack and unpack can slide under
	// some round's wire time. "depth2" shows the default double buffer.
	benchDepth = 4
)

// wireDelay slows every data-path message — DDR exchange tags and the
// hand baseline's tags alike — leaving mapping collectives untouched.
type wireDelay struct{ d time.Duration }

func (w wireDelay) FaultFor(src, dst, tag int, seq uint64, attempt int) mpi.Fault {
	if tag >= HandTagFloor {
		return mpi.Fault{Delay: w.d}
	}
	return mpi.Fault{}
}

// benchWorld runs body on the benchmark world with the wire delay armed.
func benchWorld(b *testing.B, body func(c *mpi.Comm) error) {
	b.Helper()
	if err := mpi.Launch(benchProcs, body, mpi.WithFaultInjector(wireDelay{benchDelay})); err != nil {
		b.Fatal(err)
	}
}

// benchDist builds the transform state and fills the rows.
func benchDist(c *mpi.Comm, depth int) (*Dist2D, error) {
	d, err := NewDist2D(c, benchN, benchNB, core.WithPipelineDepth(depth))
	if err != nil {
		return nil, err
	}
	fill(d.Rows(), uint64(c.Rank())+1)
	return d, nil
}

// stepBench times one full spectral timestep (forward + inverse 2D
// transform, four FFT passes and two transposes) per op.
func stepBench(b *testing.B, depth int, hand bool) {
	var overlap float64
	var gotDepth int
	b.SetBytes(int64(benchN) * benchN / benchProcs * 16)
	benchWorld(b, func(c *mpi.Comm) error {
		d, err := benchDist(c, depth)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if hand {
				err = d.HandStep(c)
			} else {
				err = d.Step(c)
			}
			if err != nil {
				return err
			}
		}
		if c.Rank() == 0 && !hand {
			fwd, _ := d.Descriptors()
			overlap = fwd.LastOverlapRatio()
			gotDepth = fwd.LastPipelineDepth()
		}
		return nil
	})
	if !hand {
		b.ReportMetric(overlap, "overlap-ratio")
		b.ReportMetric(float64(gotDepth), "depth")
	}
}

// transposeBench times the redistribution phase alone (slab→pencil and
// back, no FFT compute) — the wire-bound portion of the timestep where
// the schedule is the whole story.
func transposeBench(b *testing.B, depth int, hand bool) {
	var overlap float64
	b.SetBytes(int64(benchN) * benchN / benchProcs * 16)
	benchWorld(b, func(c *mpi.Comm) error {
		d, err := benchDist(c, depth)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if hand {
				if err := d.HandTransposeForward(c); err != nil {
					return err
				}
				if err := d.HandTransposeInverse(c); err != nil {
					return err
				}
			} else {
				if err := d.TransposeForward(c); err != nil {
					return err
				}
				if err := d.TransposeInverse(c); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 && !hand {
			fwd, _ := d.Descriptors()
			overlap = fwd.LastOverlapRatio()
		}
		return nil
	})
	if !hand {
		b.ReportMetric(overlap, "overlap-ratio")
	}
}

func BenchmarkFFT2DStep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { stepBench(b, 1, false) })
	b.Run("depth2", func(b *testing.B) { stepBench(b, 2, false) })
	b.Run("pipelined", func(b *testing.B) { stepBench(b, benchDepth, false) })
	b.Run("hand", func(b *testing.B) { stepBench(b, 1, true) })
}

func BenchmarkFFT2DTranspose(b *testing.B) {
	b.Run("serial", func(b *testing.B) { transposeBench(b, 1, false) })
	b.Run("depth2", func(b *testing.B) { transposeBench(b, 2, false) })
	b.Run("pipelined", func(b *testing.B) { transposeBench(b, benchDepth, false) })
	b.Run("hand", func(b *testing.B) { transposeBench(b, 1, true) })
}

// BenchmarkKernel times the serial transform with no exchange around it,
// at the per-rank shape of ddrperf's fft_transpose workload: rows is the
// row pass over a W×n slab, cols the batched column pass over the n×W
// pencil slab. One op is one pass over the slab. Forward and inverse
// alternate on the same buffer whichever direction is timed, so values
// neither overflow nor decay into denormals as b.N grows.
func BenchmarkKernel(b *testing.B) {
	const n, w = 1024, 64
	p, err := PlanFor(n)
	if err != nil {
		b.Fatal(err)
	}
	slab, scratch := make([]complex128, n*w), make([]complex128, n)
	passes := []struct {
		name string
		run  func(inverse bool)
	}{
		{"rows", func(inverse bool) {
			for i := 0; i < w; i++ {
				p.transform(slab[i*n:(i+1)*n], scratch, inverse)
			}
		}},
		{"cols", func(inverse bool) { p.transformCols(slab, w, inverse) }},
	}
	for _, pass := range passes {
		for _, dir := range []string{"fwd", "inv"} {
			inverse := dir == "inv"
			b.Run(pass.name+"/"+dir, func(b *testing.B) {
				fill(slab, 1)
				if inverse {
					pass.run(false)
				}
				b.SetBytes(int64(len(slab)) * 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass.run(inverse)
					b.StopTimer()
					pass.run(!inverse)
					b.StartTimer()
				}
			})
		}
	}
}
