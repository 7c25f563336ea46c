// Package fft implements use case C: a distributed multidimensional FFT
// whose slab↔pencil transposes are DDR redistributions. The serial
// kernel is a power-of-two radix-2 Cooley–Tukey transform over
// complex128; Dist2D (dist2d.go) composes it with two point-to-point
// DDR descriptors into a 2D transform over row slabs and column
// pencils. The package exists both as a real workload — the transpose
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
// bit-reversal permutation and the twiddle table. Plans are immutable
// after construction and safe for concurrent use.
type Plan struct {
	n   int
	rev []int32      // bit-reversal permutation
	tw  []complex128 // tw[k] = exp(-2πik/n), k < n/2
}

// NewPlan builds a transform plan for length n, which must be a power
// of two.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, rev: make([]int32, n), tw: make([]complex128, n/2)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		shift = 64
	}
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for k := range p.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, s)
	}
	return p, nil
}

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
func (p *Plan) Forward(x []complex128) {
	p.transform(x)
}

// Inverse applies the inverse transform in place, including the 1/n
// scale, so Inverse(Forward(x)) == x up to rounding.
func (p *Plan) Inverse(x []complex128) {
	// Conjugate–transform–conjugate: reuses the forward twiddles.
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	p.transform(x)
	inv := 1 / float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// transform is the iterative radix-2 butterfly ladder over the
// bit-reversed input.
func (p *Plan) transform(x []complex128) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: buffer length %d does not match plan length %d", len(x), n))
	}
	for i, r := range p.rev {
		if int32(i) < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	for span := 1; span < n; span <<= 1 {
		step := n / (2 * span) // twiddle stride for this stage
		for base := 0; base < n; base += 2 * span {
			k := 0
			for off := base; off < base+span; off++ {
				w := p.tw[k]
				k += step
				a, b := x[off], x[off+span]
				t := complex(real(w)*real(b)-imag(w)*imag(b), real(w)*imag(b)+imag(w)*real(b))
				x[off], x[off+span] = a+t, a-t
			}
		}
	}
}
