// Package fft implements use case C: a distributed multidimensional FFT
// whose slab↔pencil transposes are DDR redistributions. The serial
// kernel is a power-of-two, in-place, radix-4 decimation-in-time
// Cooley–Tukey transform over complex128 (one radix-2 stage first when
// log₂n is odd), in two shapes that share tables and butterfly: one
// contiguous vector, and every column of a row-major slab at once.
// Dist2D (dist2d.go) composes it with two point-to-point DDR
// descriptors into a 2D transform over row slabs and column pencils. The package exists both as a real workload — the transpose
// is the canonical all-to-all that data redistribution papers benchmark
// — and as the perf harness for the pipelined exchange engine: each
// transpose runs as nb rounds whose pack and unpack hide behind the
// wire at pipeline depth k.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed state of a size-n transform: the
// bit-reversal permutation and the stage-major twiddle tables of both
// directions. Plans are immutable after construction and safe for
// concurrent use.
type Plan struct {
	n int
	// swaps lists the bit-reversal permutation as the pairs {i, rev(i)}
	// with i ≤ rev(i): the exchanges to make, branch-free, and the fixed
	// points, which the inverse must still scale.
	swaps [][2]int32
	// tw[0] is the forward table, tw[1] its conjugate. Each holds, for
	// every radix-4 stage of quarter-span s in execution order, the three
	// unit-stride runs W^2j, W^j, W^3j (j < s, W = exp(∓2πi/4s)) that
	// multiply the stage's second, third and fourth inputs.
	tw [2][]complex128
}

// NewPlan builds a transform plan for length n, which must be a power
// of two.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n}
	logn := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		if r := int(bits.Reverse64(uint64(i)) >> (64 - logn)); i <= r {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(r)})
		}
	}
	for s := p.firstSpan(); s < n; s <<= 2 {
		for _, m := range [3]int{2, 1, 3} {
			for j := 0; j < s; j++ {
				sin, cos := math.Sincos(-2 * math.Pi * float64(m*j) / float64(4*s))
				p.tw[0] = append(p.tw[0], complex(cos, sin))
				p.tw[1] = append(p.tw[1], complex(cos, -sin))
			}
		}
	}
	return p, nil
}

// firstSpan is the quarter-span of the first radix-4 stage: 1, or 2
// when log₂n is odd and a radix-2 stage runs first.
func (p *Plan) firstSpan() int { return 1 + bits.TrailingZeros(uint(p.n))&1 }

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// planCache memoizes plans by length: a distributed transform builds
// the same row/column plan on every rank and every size-churn step, and
// the table is tiny next to the data.
var planCache sync.Map // int -> *Plan

// PlanFor returns the cached plan for length n, building it on first
// use.
func PlanFor(n int) (*Plan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*Plan), nil
}

// Forward transforms x in place (DFT with the e^{-2πi} sign
// convention). len(x) must equal the plan length.
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse applies the inverse transform in place, including the 1/n
// scale, so Inverse(Forward(x)) == x up to rounding.
func (p *Plan) Inverse(x []complex128) { p.transform(x, true) }

// direction returns what separates the two directions: the twiddle
// table and the scale the permutation pass applies (1/n folded into the
// swaps the inverse makes anyway, so no pass exists only to scale).
func (p *Plan) direction(inverse bool) ([]complex128, float64) {
	if inverse {
		return p.tw[1], 1 / float64(p.n)
	}
	return p.tw[0], 1
}

func scale(v complex128, sc float64) complex128 { return complex(real(v)*sc, imag(v)*sc) }

// butterfly4 is two fused radix-2 stages over the twiddled inputs
// a, b, c, d of a forward transform; the inverse's differs only in that
// y1 and y3 trade places.
func butterfly4(a, b, c, d complex128) (y0, y1, y2, y3 complex128) {
	p, q, r, t := a+b, a-b, c+d, c-d
	t = complex(imag(t), -real(t)) // -i·t
	return p + r, q + t, p - r, q - t
}

// transform is the in-place decimation-in-time ladder over the
// bit-reversed input: a twiddle-free head stage (radix-2 when log₂n is
// odd; otherwise the first radix-4 stage, whose twiddles are all 1 and
// whose blocks hold one butterfly, run without its table run or the
// per-block slicing), then radix-4 stages that read their three twiddle
// runs at unit stride.
func (p *Plan) transform(x []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: buffer length %d does not match plan length %d", len(x), n))
	}
	tw, sc := p.direction(inverse)
	for _, sw := range p.swaps {
		i, r := sw[0], sw[1]
		x[i], x[r] = scale(x[r], sc), scale(x[i], sc)
	}
	s := p.firstSpan()
	switch {
	case s == 2:
		for i := 0; i+1 < n; i += 2 {
			x[i], x[i+1] = x[i]+x[i+1], x[i]-x[i+1]
		}
	case n >= 4:
		i1, i3 := 1, 3
		if inverse {
			i1, i3 = 3, 1
		}
		for i := 0; i+3 < n; i += 4 {
			q := x[i:][:4]
			q[0], q[i1], q[2], q[i3] = butterfly4(q[0], q[1], q[2], q[3])
		}
		tw, s = tw[3:], 4
	}
	for ; s < n; s <<= 2 {
		w1, w2, w3 := tw[:s], tw[s:][:s], tw[2*s:][:s]
		tw = tw[3*s:]
		for base := 0; base < n; base += 4 * s {
			x0, x1, x2, x3 := x[base:][:s], x[base+s:][:s], x[base+2*s:][:s], x[base+3*s:][:s]
			o1, o3 := x1, x3
			if inverse {
				o1, o3 = x3, x1
			}
			o1, o3 = o1[:s], o3[:s]
			for j := range w1 {
				x0[j], o1[j], x2[j], o3[j] = butterfly4(x0[j], w1[j]*x1[j], w2[j]*x2[j], w3[j]*x3[j])
			}
		}
	}
}

// transformCols transforms every column of the n×w row-major slab x in
// place: the same permutation and stages as transform, with rows of w
// contiguous elements in place of single elements, so a butterfly is a
// unit-stride loop across the columns with its twiddles held in
// registers and no column is ever gathered.
func (p *Plan) transformCols(x []complex128, w int, inverse bool) {
	n := p.n
	if len(x) != n*w {
		panic(fmt.Sprintf("fft: slab length %d does not match %d rows of %d", len(x), n, w))
	}
	row := func(i int) []complex128 { return x[i*w:][:w] }
	tw, sc := p.direction(inverse)
	for _, sw := range p.swaps {
		a, b := row(int(sw[0])), row(int(sw[1]))
		for k := range a {
			a[k], b[k] = scale(b[k], sc), scale(a[k], sc)
		}
	}
	s := p.firstSpan()
	if s == 2 {
		for i := 0; i+1 < n; i += 2 {
			a, b := row(i), row(i+1)
			for k := range a {
				a[k], b[k] = a[k]+b[k], a[k]-b[k]
			}
		}
	}
	for ; s < n; s <<= 2 {
		for base := 0; base < n; base += 4 * s {
			for j := 0; j < s; j++ {
				w1, w2, w3 := tw[j], tw[s+j], tw[2*s+j]
				x0, x1, x2, x3 := row(base+j), row(base+j+s), row(base+j+2*s), row(base+j+3*s)
				o1, o3 := x1, x3
				if inverse {
					o1, o3 = x3, x1
				}
				o1, o3 = o1[:w], o3[:w]
				for k := range x0 {
					x0[k], o1[k], x2[k], o3[k] = butterfly4(x0[k], w1*x1[k], w2*x2[k], w3*x3[k])
				}
			}
		}
		tw = tw[3*s:]
	}
}
