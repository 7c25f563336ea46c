package fft

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"ddr/internal/core"
	"ddr/internal/mpi"
)

// naiveDFT is the O(n²) definition the kernel is checked against:
// sign -1 is the forward transform, +1 the unscaled inverse.
func naiveDFT(x []complex128, sign float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += x[j] * cmplx.Exp(complex(0, sign*2*math.Pi*float64(k*j%n)/float64(n)))
		}
		out[k] = sum
	}
	return out
}

// fill produces a deterministic, structure-free test signal.
func fill(x []complex128, seed uint64) {
	s := seed*0x9e3779b97f4a7c15 + 1
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		re := float64(int64(s%2000)-1000) / 500
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		im := float64(int64(s%2000)-1000) / 500
		x[i] = complex(re, im)
	}
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestKernelMatchesNaiveDFT checks each direction on its own against
// the definition — a round trip alone passes a sign or scale error the
// two directions share — at every power of two up to 2048, so both
// parities of log₂n (radix-2 head or not) and every stage count run.
func TestKernelMatchesNaiveDFT(t *testing.T) {
	for n := 1; n <= 2048; n *= 2 {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := make([]complex128, n)
		fill(x, uint64(n))
		fwd, inv := naiveDFT(x, -1), naiveDFT(x, +1)
		for i := range inv {
			inv[i] /= complex(float64(n), 0)
		}
		y := append([]complex128(nil), x...)
		p.transform(y, make([]complex128, len(y)), false)
		if d := maxDiff(y, fwd); d > 1e-9*float64(n) {
			t.Errorf("n=%d: forward deviates from naive DFT by %g", n, d)
		}
		p.transform(x, make([]complex128, len(x)), true)
		if d := maxDiff(x, inv); d > 1e-9*float64(n) {
			t.Errorf("n=%d: inverse deviates from naive inverse DFT by %g", n, d)
		}
	}
}

func TestKernelRoundTrip(t *testing.T) {
	for n := 1; n <= 2048; n *= 2 {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := make([]complex128, n)
		fill(x, uint64(n)+7)
		orig := append([]complex128(nil), x...)
		p.transform(x, make([]complex128, len(x)), false)
		p.transform(x, make([]complex128, len(x)), true)
		if d := maxDiff(x, orig); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip deviates by %g", n, d)
		}
	}
}

// TestTransformRejectsWrongLength: a buffer of the wrong length panics
// in both directions before a single element of it is written.
func TestTransformRejectsWrongLength(t *testing.T) {
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, inverse := range map[string]bool{"Forward": false, "Inverse": true} {
		x := make([]complex128, 4)
		fill(x, 3)
		orig := append([]complex128(nil), x...)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a length-4 buffer on a length-8 plan", name)
				}
			}()
			p.transform(x, make([]complex128, len(x)), inverse)
		}()
		if maxDiff(x, orig) != 0 {
			t.Errorf("%s modified the buffer before rejecting its length", name)
		}
	}
}

// TestColumnPassMatchesKernel: the batched pass over an n×w slab equals
// the vector kernel applied to each column, in both directions, for
// both parities of log₂n and for widths of one, odd and the benchmark's.
func TestColumnPassMatchesKernel(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 128} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		for _, w := range []int{1, 3, 64} {
			for _, inverse := range []bool{false, true} {
				slab := make([]complex128, n*w)
				fill(slab, uint64(n*w))
				want := make([]complex128, n*w)
				col := make([]complex128, n)
				for x := 0; x < w; x++ {
					for y := range col {
						col[y] = slab[y*w+x]
					}
					if inverse {
						p.transform(col, make([]complex128, len(col)), true)
					} else {
						p.transform(col, make([]complex128, len(col)), false)
					}
					for y := range col {
						want[y*w+x] = col[y]
					}
				}
				p.transformCols(slab, w, inverse)
				if d := maxDiff(slab, want); d > 1e-12*float64(n) {
					t.Errorf("n=%d w=%d inverse=%v: batched pass deviates from per-column kernel by %g", n, w, inverse, d)
				}
			}
		}
	}
}

func TestNewPlanRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted a non-power-of-two length", n)
		}
	}
}

func TestPlanForCaches(t *testing.T) {
	a, err := PlanFor(128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(128)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor(128) built two plans for one length")
	}
}

// ref2D computes the full n×n forward 2D transform locally: row FFTs
// then column FFTs, same kernel, no distribution.
func ref2D(src []complex128, n int) []complex128 {
	out := append([]complex128(nil), src...)
	p, _ := PlanFor(n)
	for y := 0; y < n; y++ {
		p.transform(out[y*n:(y+1)*n], make([]complex128, n), false)
	}
	col := make([]complex128, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			col[y] = out[y*n+x]
		}
		p.transform(col, make([]complex128, len(col)), false)
		for y := 0; y < n; y++ {
			out[y*n+x] = col[y]
		}
	}
	return out
}

// globalInput builds the deterministic n×n input every rank agrees on.
func globalInput(n int) []complex128 {
	g := make([]complex128, n*n)
	fill(g, 42)
	return g
}

// runWorld runs body on nProcs inproc ranks and fails the test on any
// rank error.
func runWorld(t *testing.T, nProcs int, body func(c *mpi.Comm) error) {
	t.Helper()
	if err := mpi.Launch(nProcs, body); err != nil {
		t.Fatal(err)
	}
}

func TestDist2DForwardMatchesLocal(t *testing.T) {
	const n, nProcs, nb = 32, 4, 2
	global := globalInput(n)
	want := ref2D(global, n)
	runWorld(t, nProcs, func(c *mpi.Comm) error {
		d, err := NewDist2D(c, n, nb)
		if err != nil {
			return err
		}
		h := n / nProcs
		copy(d.Rows(), global[c.Rank()*h*n:(c.Rank()+1)*h*n])
		if err := d.Forward(c); err != nil {
			return err
		}
		// Pencils holds columns [rank·W, (rank+1)·W) of the spectrum.
		w := n / nProcs
		for y := 0; y < n; y++ {
			for x := 0; x < w; x++ {
				got := d.Pencils()[y*w+x]
				exp := want[y*n+c.Rank()*w+x]
				if cmplx.Abs(got-exp) > 1e-8 {
					return fmt.Errorf("rank %d spectrum[%d,%d] = %v, want %v", c.Rank(), y, c.Rank()*w+x, got, exp)
				}
			}
		}
		return nil
	})
}

// TestDist2DForwardMatchesNaiveDFT checks the distributed transform
// against the 2-D definition (naive DFT of every row, then of every
// column), so it is not verified only against the kernel it is built
// from, as ref2D is.
func TestDist2DForwardMatchesNaiveDFT(t *testing.T) {
	const n, nProcs, nb = 16, 4, 2
	global := globalInput(n)
	want := make([]complex128, n*n)
	for y := 0; y < n; y++ {
		copy(want[y*n:], naiveDFT(global[y*n:(y+1)*n], -1))
	}
	col := make([]complex128, n)
	for x := 0; x < n; x++ {
		for y := range col {
			col[y] = want[y*n+x]
		}
		for y, v := range naiveDFT(col, -1) {
			want[y*n+x] = v
		}
	}
	runWorld(t, nProcs, func(c *mpi.Comm) error {
		d, err := NewDist2D(c, n, nb)
		if err != nil {
			return err
		}
		h, w := n/nProcs, n/nProcs
		copy(d.Rows(), global[c.Rank()*h*n:(c.Rank()+1)*h*n])
		if err := d.Forward(c); err != nil {
			return err
		}
		for y := 0; y < n; y++ {
			for x := 0; x < w; x++ {
				got, exp := d.Pencils()[y*w+x], want[y*n+c.Rank()*w+x]
				if cmplx.Abs(got-exp) > 1e-9*n*n {
					return fmt.Errorf("rank %d spectrum[%d,%d] = %v, want %v", c.Rank(), y, c.Rank()*w+x, got, exp)
				}
			}
		}
		if d.handWire != nil {
			return fmt.Errorf("rank %d: the DDR path allocated the hand baseline's pack buffers", c.Rank())
		}
		return nil
	})
}

func TestDist2DStepRoundTrip(t *testing.T) {
	const n, nProcs, nb = 32, 4, 4
	global := globalInput(n)
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			runWorld(t, nProcs, func(c *mpi.Comm) error {
				d, err := NewDist2D(c, n, nb, core.WithPipelineDepth(depth))
				if err != nil {
					return err
				}
				h := n / nProcs
				copy(d.Rows(), global[c.Rank()*h*n:(c.Rank()+1)*h*n])
				if err := d.Step(c); err != nil {
					return err
				}
				for i, got := range d.Rows() {
					if cmplx.Abs(got-global[c.Rank()*h*n+i]) > 1e-9 {
						return fmt.Errorf("rank %d cell %d not restored: %v vs %v", c.Rank(), i, got, global[c.Rank()*h*n+i])
					}
				}
				fwd, _ := d.Descriptors()
				if ts := fwd.LastTimings(); len(ts) != nb {
					return fmt.Errorf("rank %d: forward transpose recorded %d round timings, want %d", c.Rank(), len(ts), nb)
				}
				if fwd.LastPipelineDepth() != depth {
					return fmt.Errorf("rank %d: effective depth %d, want %d", c.Rank(), fwd.LastPipelineDepth(), depth)
				}
				return nil
			})
		})
	}
}

// TestDDRTransposeMatchesHand proves the DDR transpose and the
// hand-written baseline are byte-identical in both directions, serial
// and pipelined — the differential that lets the benchmark claim any
// timing gap is schedule, not semantics.
func TestDDRTransposeMatchesHand(t *testing.T) {
	const n, nProcs, nb = 32, 4, 4
	global := globalInput(n)
	for _, depth := range []int{1, 2} {
		depth := depth
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			runWorld(t, nProcs, func(c *mpi.Comm) error {
				d, err := NewDist2D(c, n, nb, core.WithPipelineDepth(depth))
				if err != nil {
					return err
				}
				h := n / nProcs
				copy(d.Rows(), global[c.Rank()*h*n:(c.Rank()+1)*h*n])
				if err := d.TransposeForward(c); err != nil {
					return err
				}
				ddrCols := append([]complex128(nil), d.Pencils()...)
				for i := range d.Pencils() {
					d.Pencils()[i] = 0
				}
				if err := d.HandTransposeForward(c); err != nil {
					return err
				}
				for i := range ddrCols {
					if ddrCols[i] != d.Pencils()[i] {
						return fmt.Errorf("rank %d: forward transpose cell %d: ddr %v vs hand %v", c.Rank(), i, ddrCols[i], d.Pencils()[i])
					}
				}
				// Now invert both ways from the same pencil state.
				if err := d.TransposeInverse(c); err != nil {
					return err
				}
				ddrRows := append([]complex128(nil), d.Rows()...)
				for i := range d.Rows() {
					d.Rows()[i] = 0
				}
				if err := d.HandTransposeInverse(c); err != nil {
					return err
				}
				for i := range ddrRows {
					if ddrRows[i] != d.Rows()[i] {
						return fmt.Errorf("rank %d: inverse transpose cell %d: ddr %v vs hand %v", c.Rank(), i, ddrRows[i], d.Rows()[i])
					}
				}
				return nil
			})
		})
	}
}

// TestDist2DStepMatchesAcrossPaths runs the same timestep where the
// transposes' messages take different paths — bare inproc (senders copy
// into posted regions), shm (every send zero-copy into a ring, the ring
// consumer unpacks into posted regions) — and requires pencils after
// Forward and rows after Inverse bitwise identical to the reference run
// behind a fault injector that injects nothing, where no message lands
// and every payload is placed by its receiver. The inverse transpose receives strided column blocks, which
// must land on inproc and on shm as the forward's contiguous ones do.
func TestDist2DStepMatchesAcrossPaths(t *testing.T) {
	const n, nProcs, nb = 32, 4, 2
	global := globalInput(n)
	run := func(launch []mpi.LaunchOption, opts ...core.Option) (pencils, rows [][]byte, inverseLanded int64) {
		pencils, rows = make([][]byte, nProcs), make([][]byte, nProcs)
		landed := make([]int64, nProcs)
		err := mpi.Launch(nProcs, func(c *mpi.Comm) error {
			d, err := NewDist2D(c, n, nb, opts...)
			if err != nil {
				return err
			}
			h := n / nProcs
			copy(d.Rows(), global[c.Rank()*h*n:(c.Rank()+1)*h*n])
			if err := d.Forward(c); err != nil {
				return err
			}
			pencils[c.Rank()] = append([]byte(nil), complexBytes(d.Pencils())...)
			before := c.Traffic().MessagesLanded
			if err := d.Inverse(c); err != nil {
				return err
			}
			landed[c.Rank()] = c.Traffic().MessagesLanded - before
			rows[c.Rank()] = append([]byte(nil), complexBytes(d.Rows())...)
			return nil
		}, launch...)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range landed {
			inverseLanded += l
		}
		return pencils, rows, inverseLanded
	}
	bare := []mpi.LaunchOption{mpi.WithFaultInjector(nil)}
	refPencils, refRows, refLanded := run([]mpi.LaunchOption{mpi.WithFaultInjector(wireDelay{})})
	if refLanded != 0 {
		t.Fatalf("%d messages of the reference's inverse transpose landed through a fault injector", refLanded)
	}
	for name, launch := range map[string][]mpi.LaunchOption{
		"inproc": bare,
		"shm":    {mpi.WithTransport(mpi.TransportShm), mpi.WithFaultInjector(nil)},
	} {
		pencils, rows, landed := run(launch)
		for r := 0; r < nProcs; r++ {
			if !bytes.Equal(pencils[r], refPencils[r]) {
				t.Errorf("%s: rank %d pencils differ from the eager reference's", name, r)
			}
			if !bytes.Equal(rows[r], refRows[r]) {
				t.Errorf("%s: rank %d rows after Inverse differ from the eager reference's", name, r)
			}
		}
		if landed == 0 {
			t.Errorf("%s: no message of the inverse transpose landed", name)
		}
	}
}

// TestDist2DShmEveryReceiveLands runs Dist2D.Step at the fft_transpose
// benchmark's shape — 16 ranks on shm, 4 blocks a transpose, the default
// pipeline depth — at a short n. Ranks run out of step, so a rank's
// records often reach its ring before it posts their receives; they must
// wait there for the posts rather than take arena payloads. After a
// warm-up, every message of both transposes must land: each rank's
// MessagesLanded must rise by exactly its MessagesRecv.
func TestDist2DShmEveryReceiveLands(t *testing.T) {
	const n, nProcs, nb, warm, steps = 256, 16, 4, 5, 20
	global := globalInput(n)
	err := mpi.Launch(nProcs, func(c *mpi.Comm) error {
		d, err := NewDist2D(c, n, nb)
		if err != nil {
			return err
		}
		h := n / nProcs
		copy(d.Rows(), global[c.Rank()*h*n:(c.Rank()+1)*h*n])
		for i := 0; i < warm; i++ {
			if err := d.Step(c); err != nil {
				return err
			}
		}
		before := c.Traffic()
		for i := 0; i < steps; i++ {
			if err := d.Step(c); err != nil {
				return err
			}
		}
		after := c.Traffic()
		recv, landed := after.MessagesRecv-before.MessagesRecv, after.MessagesLanded-before.MessagesLanded
		if recv == 0 || landed != recv {
			return fmt.Errorf("rank %d: %d of %d transpose receives landed", c.Rank(), landed, recv)
		}
		return nil
	}, mpi.WithTransport(mpi.TransportShm), mpi.WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewDist2DValidation(t *testing.T) {
	runWorld(t, 2, func(c *mpi.Comm) error {
		if _, err := NewDist2D(c, 24, 2); err == nil {
			return fmt.Errorf("accepted non-power-of-two edge")
		}
		if _, err := NewDist2D(c, 16, 0); err == nil {
			return fmt.Errorf("accepted zero blocks")
		}
		if _, err := NewDist2D(c, 16, 16); err == nil {
			return fmt.Errorf("accepted edge not divisible by ranks×blocks")
		}
		return nil
	})
}

// TestDist2DConcurrentPlans exercises the plan cache under concurrent
// first use from several transform sizes at once.
func TestDist2DConcurrentPlans(t *testing.T) {
	var wg sync.WaitGroup
	for _, n := range []int{2048, 4096, 8192} {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				if _, err := PlanFor(n); err != nil {
					t.Error(err)
				}
			}(n)
		}
	}
	wg.Wait()
}
