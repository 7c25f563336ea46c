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

// shiftRecvSeg translates the first receive seg of sched that can move by
// one cell along some axis and stay inside base — the box its destination
// buffer holds — rebuilding its type and span: an off-by-one in the
// overlap math. The send half is untouched, so the wire lengths still
// match and the payload carries the right bytes; they land one cell away
// from where they belong, which only a byte comparison (or the harness's
// fill invariant) can catch. Every plan backend is a []step, so this is
// the one planted schedule bug behind all three hooks below. Returns false
// when no receive seg can be shifted in bounds.
//
// The shifted region overlaps its neighbours, which breaks the one thing
// that lets peers write into this rank's buffer concurrently — the
// regions of distinct messages are disjoint — so a message landing in its
// posted parts would race with whatever fills the cells the bug made it
// share, and the race detector would fire before the byte comparison
// these hooks exist to prove. The perturbed list's receives are therefore
// posted without parts: every payload arrives eagerly, and this rank
// alone writes its buffer, misplaced cell included.
func shiftRecvSeg(sched []step, elemSize int, base grid.Box) bool {
	for i := range sched {
		for _, m := range sched[i].recvs {
			for j := range m.segs {
				sg := &m.segs[j]
				for ax := 0; ax < sg.region.NDims; ax++ {
					for _, delta := range [2]int{1, -1} {
						moved := sg.region
						moved.Offset[ax] += delta
						if !base.Contains(moved) {
							continue
						}
						if shifted, err := newSeg(elemSize, base, sg.buf, moved); err == nil {
							*sg = shifted
							postEager(sched)
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// postEager marks every receive of sched to be posted without parts, so
// no message of it lands (see shiftRecvSeg).
func postEager(sched []step) {
	for i := range sched {
		for j := range sched[i].recvs {
			sched[i].recvs[j].eager = true
		}
	}
}

// PerturbPlanForTest plants shiftRecvSeg's bug in the plan's round
// schedule, so the property-based harness can prove it detects
// plan-compilation bugs. Never call outside tests.
func (p *Plan) PerturbPlanForTest() bool {
	return p != nil && shiftRecvSeg(p.sched, p.elemSize, p.need)
}

// PerturbBoundedForTest plants shiftRecvSeg's bug in this rank's
// re-packed bounded steps — a slice-boundary off-by-one. It reports false
// when the rank replays its rounds unchanged. Never call outside tests.
func (p *Plan) PerturbBoundedForTest() bool {
	return p != nil && p.bounded != nil && shiftRecvSeg(p.bounded.sched, p.elemSize, p.need)
}

// PerturbDeltaForTest plants shiftRecvSeg's bug in a delta plan, so the
// resize property harness can prove it detects delta-compilation bugs.
// Never call outside tests.
func (p *DeltaPlan) PerturbDeltaForTest() bool {
	return shiftRecvSeg(p.sched, p.elemSize, p.newNeed)
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
// nothing between a wait and its retire) or whose messages all land or
// take the contiguous fast path are unaffected — so the tests that plant
// it run where payloads are still held: behind a fault injector, or on
// tcp. It exists so both the
// differential sweep and the property harness can prove they detect
// pipelined buffer-lifetime bugs. Never call outside tests.
func (d *Descriptor) PerturbPipelineForTest() {
	d.ex.perturb = true
}
