// Package fft implements use case C: a distributed multidimensional FFT
// whose slab↔pencil transposes are DDR redistributions. The serial
// kernel is a power-of-two, in-place, radix-4 decimation-in-time
// Cooley–Tukey transform over complex128 (one radix-2 stage first when
// log₂n is odd), in two shapes that share tables and butterfly: one
// contiguous vector, permuted on the fly from a scratch copy, and every
// column of a row-major slab at once, permuted by row swaps.
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
// bit-reversal permutation, in the two forms the two shapes consume, and
// the stage-major twiddle tables of both directions. Plans are immutable
// after construction and safe for concurrent use.
type Plan struct {
	n int
	// swaps lists the bit-reversal permutation as the pairs {i, rev(i)}
	// with i ≤ rev(i): the row exchanges the column pass makes, and the
	// fixed points, which the inverse must still scale.
	swaps [][2]int32
	// head[q] is rev(4q) — rev(2q) when log₂n is odd — the first of the
	// bit-reversed inputs of the q-th head-stage butterfly: the others are
	// head[q] + {2,1,3}·n/4 (+ n/2 for radix 2). The vector kernel reads
	// them from a copy of the input instead of permuting in place.
	head []int32
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
	radix := 4 >> (logn & 1) // of the head stage
	for i := 0; i < n; i++ {
		r := int(bits.Reverse64(uint64(i)) >> (64 - logn))
		if i <= r {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(r)})
		}
		if i%radix == 0 && n >= radix {
			p.head = append(p.head, int32(r))
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

// direction returns what separates the two directions: the twiddle
// table and the scale the permutation pass applies (1/n folded into the
// pass the inverse makes anyway, so no pass exists only to scale).
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

// transform is the decimation-in-time ladder. Its first pass copies x
// into scratch (at least n long, caller-owned) and writes the
// twiddle-free head stage back in order, reading each butterfly's
// bit-reversed inputs from the copy — so the permutation costs no pass of
// its own, the copy streams sequentially, and the inverse's 1/n rides on
// the head's outputs. The head is radix 2 when log₂n is odd, otherwise
// the first radix-4 stage, whose twiddles are all 1. Radix-4 stages
// follow that read their three twiddle runs at unit stride.
func (p *Plan) transform(x, scratch []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: buffer length %d does not match plan length %d", len(x), n))
	}
	tw, sc := p.direction(inverse)
	src := scratch[:n]
	copy(src, x)
	s := p.firstSpan()
	if s == 2 {
		s0, s1 := src[:n/2], src[n/2:]
		s1 = s1[:len(s0)]
		for q, r := range p.head {
			a, b := s0[r], s1[r]
			o := x[2*q:][:2]
			if inverse {
				o[0], o[1] = scale(a+b, sc), scale(a-b, sc)
			} else {
				o[0], o[1] = a+b, a-b
			}
		}
	} else if n >= 4 {
		h := n / 4
		s0, s1, s2, s3 := src[:h], src[h:2*h], src[2*h:3*h], src[3*h:]
		s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
		for q, r := range p.head {
			y0, y1, y2, y3 := butterfly4(s0[r], s2[r], s1[r], s3[r])
			o := x[4*q:][:4]
			if inverse {
				o[0], o[1], o[2], o[3] = scale(y0, sc), scale(y3, sc), scale(y2, sc), scale(y1, sc)
			} else {
				o[0], o[1], o[2], o[3] = y0, y1, y2, y3
			}
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
// place: the same stages as transform, with rows of w contiguous elements
// in place of single elements, so a butterfly is a unit-stride loop
// across the columns with its twiddles held in registers and no column is
// ever gathered. Rows are permuted by in-place swaps (the inverse scaling
// as it swaps): a scratch copy of the slab measured slower here, as did
// blocking the columns into strips.
func (p *Plan) transformCols(x []complex128, w int, inverse bool) {
	n := p.n
	if len(x) != n*w {
		panic(fmt.Sprintf("fft: slab length %d does not match %d rows of %d", len(x), n, w))
	}
	row := func(i int) []complex128 { return x[i*w:][:w] }
	tw, sc := p.direction(inverse)
	for _, sw := range p.swaps {
		a, b := row(int(sw[0])), row(int(sw[1]))
		b = b[:len(a)]
		if inverse {
			for k := range a {
				a[k], b[k] = scale(b[k], sc), scale(a[k], sc)
			}
		} else if sw[0] != sw[1] {
			for k := range a {
				a[k], b[k] = b[k], a[k]
			}
		}
	}
	s := p.firstSpan()
	if s == 2 {
		for i := 0; i+1 < n; i += 2 {
			a, b := row(i), row(i+1)
			b = b[:len(a)]
			for k := range a {
				a[k], b[k] = a[k]+b[k], a[k]-b[k]
			}
		}
	}
	for ; s < n; s <<= 2 {
		for base := 0; base < n; base += 4 * s {
			for j := 0; j < s; j++ {
				x0 := row(base + j)
				x1, x2, x3 := row(base + j + s)[:len(x0)], row(base + j + 2*s)[:len(x0)], row(base + j + 3*s)[:len(x0)]
				o1, o3 := x1, x3
				if inverse {
					o1, o3 = x3, x1
				}
				o1, o3 = o1[:len(x0)], o3[:len(x0)]
				if s == 1 {
					// The head stage when log₂n is even: every twiddle is 1.
					for k := range x0 {
						x0[k], o1[k], x2[k], o3[k] = butterfly4(x0[k], x1[k], x2[k], x3[k])
					}
					continue
				}
				w1, w2, w3 := tw[j], tw[s+j], tw[2*s+j]
				for k := range x0 {
					x0[k], o1[k], x2[k], o3[k] = butterfly4(x0[k], w1*x1[k], w2*x2[k], w3*x3[k])
				}
			}
		}
		tw = tw[3*s:]
	}
}
