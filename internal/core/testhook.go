package core

import "ddr/internal/grid"

// CompileForTest compiles a plan through the per-rank compiler
// SetupDataMapping runs, at an explicit parallelism, bypassing the
// communicator. It exists for the compiler-equivalence tests. Never call
// outside tests.
func CompileForTest(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) (*Plan, error) {
	return compilePlan(rank, elemSize, allChunks, allNeeds, par)
}

// CompileBruteForTest compiles a plan through the brute-force reference
// compiler (mapping_brute.go), the differential-testing oracle for
// CompileForTest. Never call outside tests.
func CompileBruteForTest(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	return compilePlanBrute(rank, elemSize, allChunks, allNeeds)
}

// CompileBoundedForTest attaches a bounded step schedule compiled for an
// explicit budget to the plan, bypassing the descriptor's auto-selection
// (which only compiles one when the single-shot footprint exceeds the
// budget). It exists for the golden bounded fixtures and the
// meter-enforcement self-tests. Never call outside tests.
func CompileBoundedForTest(p *Plan, budget int) error {
	b, err := compileBounded(p, budget)
	if err != nil {
		return err
	}
	p.bounded = b
	return nil
}

// PerturbBoundedForTest translates one of the bounded schedule's receive
// slices by one cell along an axis (staying inside the need box),
// rebuilding its receive type and span — a step-boundary off-by-one: the
// payload still carries the right bytes, but they land one cell away
// from where they belong. The send half is untouched, so the wire
// lengths still match and only the differential byte comparison (or the
// harness's fill invariant) can catch it. Returns false when no receive
// slice can be shifted while staying in bounds. Never call outside
// tests.
func (p *Plan) PerturbBoundedForTest() bool {
	if p == nil || p.bounded == nil {
		return false
	}
	for _, st := range p.bounded.sched {
		for _, m := range st.recvs {
			sg := &m.segs[0]
			for ax := 0; ax < sg.region.NDims; ax++ {
				for _, delta := range [2]int{1, -1} {
					moved := sg.region
					moved.Offset[ax] += delta
					if !p.need.Contains(moved) {
						continue
					}
					if shifted, err := newSeg(p.elemSize, p.need, 0, moved); err == nil {
						*sg = shifted
						return true
					}
				}
			}
		}
	}
	return false
}

// PerturbPipelineForTest arms a pipelined-schedule bug in this
// descriptor: every pipelined round (or bounded step) recycles its held
// receive payloads to the staging arena one iteration early — right
// after the wait brings them in hand, instead of after the retire has
// scattered them. Because the next round's issue stages its pack
// buffers between those two points, the arena hands the just-freed
// payloads back out and the pack overwrites them before the unpack batch
// reads them — the classic double-buffer lifetime bug a depth-k ring
// must not have. Exchanges at depth 1 (whose single-slot ring issues
// nothing between a wait and its retire) or whose payloads all take the
// contiguous fast path are unaffected. It exists so both the
// differential sweep and the property harness can prove they detect
// pipelined buffer-lifetime bugs. Never call outside tests.
func (d *Descriptor) PerturbPipelineForTest() {
	d.ex.perturb = true
}

// PerturbPlanForTest shifts one compiled contiguous receive span by one
// element, simulating an off-by-one in the overlap math. It exists so the
// property-based harness can prove it detects plan-compilation bugs: a
// perturbed rank scatters one peer's payload one element away from where
// it belongs, which must surface as an invariant violation. It returns
// false when the plan has no entry that can be shifted while staying in
// bounds of the need buffer. Never call outside tests.
func (p *Plan) PerturbPlanForTest() bool {
	if p == nil {
		return false
	}
	total := p.need.Volume() * p.elemSize
	for i := range p.recvE.spans {
		sp := &p.recvE.spans[i]
		if !sp.ok || sp.n == 0 || sp.n >= total {
			continue
		}
		switch {
		case sp.off+sp.n+p.elemSize <= total:
			sp.off += p.elemSize
		case sp.off >= p.elemSize:
			sp.off -= p.elemSize
		default:
			continue
		}
		p.roundSched, p.fusedSched = nil, nil // recompile from the perturbed table
		return true
	}
	return false
}
