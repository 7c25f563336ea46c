package core

import (
	"errors"
	"fmt"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// The memory-bounded plan backend. The one-shot exchange paths stage, per
// rank, every send and receive region of a round at once, so their peak
// staging footprint is proportional to the data moved — exactly where the
// paper's in-transit coupling hurts at scale. Following the decomposition
// of "Memory-efficient array redistribution through portable collective
// communication" (Rink et al.), CompileBounded rewrites the same transfer
// as a sequence of bounded-footprint steps: every overlap region is
// sliced into pieces whose class-rounded wire size fits the configured
// budget, the slices are packed greedily into steps such that no rank's
// modeled staging (sends charged to the source, payloads to the
// destination, both at the arena's class granularity) exceeds the budget
// within a step, and the exchange executes the steps in order — slice,
// exchange, place — through the same staging arena and chunked wire lanes
// as the one-shot paths.
//
// The schedule is a pure function of the global geometry, the element
// size, and the budget, so every rank derives the identical slice list
// and step boundaries from the allgathered geometry with no extra
// communication. The budget is folded into the plan fingerprint
// (plancache.go), so cached plans and exchange IDs both key on it; it
// must be uniform across ranks, like the exchange mode.
//
// Budget semantics: WithMemoryBudget bounds the bytes of exchange-layer
// staging a rank holds at once — pack buffers plus received payloads
// between delivery and placement — rounded up to the staging arena's
// class sizes (mpi.BufferClassSize). Transport-internal transit copies
// (mailbox deliveries not yet received, TCP socket buffers) are outside
// the bound; they are themselves bounded by the transports' chunk lanes.
// A live mpi.StagingMeter on the descriptor measures the real high-water
// mark of every bounded exchange, and the test harness asserts measured
// peak <= budget at every tier down to the one-chunk minimum.

// ErrBudgetTooSmall reports a WithMemoryBudget value below the smallest
// staging-arena class needed to move even a single element.
var ErrBudgetTooSmall = errors.New("core: memory budget below the minimum staging class")

// boundedTagBase is the first tag of the bounded exchange's range. Every
// slice gets its own tag (base + global slice index), so duplicated or
// reordered deliveries can never satisfy the wrong receive. The range
// sits above the round tags (ddrTagBase+round) and below the delta
// exchange's deltaTag.
const boundedTagBase = ddrTagBase + (1 << 18)

// boundedSlice is one slice of one overlap region: the piece of src's
// chunk that lands in dst's need box during one step.
type boundedSlice struct {
	src, dst int
	chunk    int      // index into allChunks[src]
	region   grid.Box // global coordinates; region ⊆ chunk ∩ need
	bytes    int      // region volume × element size
	tag      int
	step     int
}

// boundedPlan is the compiled step sequence — global, identical on every
// rank — plus this rank's share of it as the executor's step list.
type boundedPlan struct {
	budget   int // configured ceiling, bytes
	maxSlice int // per-slice payload cap, bytes
	steps    int
	slices   []boundedSlice

	// sched holds, per step and in slice order, the slices this rank
	// executes: one single-seg message per remote slice on the slice's own
	// tag, a self move per local one.
	sched []step

	wireBytes int64 // bytes this rank sends to other ranks
	peak      int   // modeled worst per-step footprint of this rank
}

// WithMemoryBudget bounds the exchange-layer staging of every
// ReorganizeData call to at most n bytes per rank (class-rounded, see the
// package comment above). When the single-shot footprint of the mapped
// geometry would exceed the budget on any rank, SetupDataMapping
// compiles the bounded step backend and ReorganizeData executes it; when
// the geometry fits, the one-shot paths run unchanged. The budget must
// be uniform across ranks and is part of the plan-cache key. n <= 0 (the
// default) disables the bound.
func WithMemoryBudget(n int) Option {
	return func(d *Descriptor) { d.budget = n }
}

// fpSalt is the descriptor's fingerprint salt: the memory budget when
// one is set, 0 (a no-op, see saltHash) otherwise. Folding it into the
// plan fingerprint keys the plan cache and minted exchange IDs on the
// budget alongside the geometry and topology.
func (d *Descriptor) fpSalt() uint64 { return uint64(max(d.budget, 0)) }

// BoundedSteps reports the number of bounded steps the current plan
// executes per exchange, or 0 when the one-shot path is selected.
func (d *Descriptor) BoundedSteps() int {
	if d.plan == nil || d.plan.bounded == nil {
		return 0
	}
	return d.plan.bounded.steps
}

// LastPeakStaging reports the measured high-water mark of exchange-layer
// staging bytes during the most recent budgeted ReorganizeData call that
// ran a step list (0 before the first — the meter arms only under
// WithMemoryBudget, and ModeAlltoallw rounds stage inside the collective,
// outside it).
func (d *Descriptor) LastPeakStaging() int64 { return d.lastPeakStaging }

// maxSliceBytes returns the largest slice payload whose class-rounded
// staging charge fits the budget, or 0 when no class does.
func maxSliceBytes(budget int) int {
	if budget < 1<<minStagingShift {
		return 0
	}
	if budget >= 1<<maxStagingShift {
		// Beyond the largest class the arena charges exact sizes.
		return budget
	}
	// Largest power of two <= budget is the largest class that fits.
	n := 1
	for n<<1 <= budget {
		n <<= 1
	}
	return n
}

// The arena's class range, mirrored from internal/mpi (asserted against
// mpi.BufferClassSize in the tests so drift is caught).
const (
	minStagingShift = 8  // 256 B
	maxStagingShift = 26 // 64 MiB
)

// appendSlices splits box b into deterministic pieces of at most maxElems
// cells, slicing along the outermost axis first (z, then y, then x) so
// pieces stay as row-contiguous as the bound allows. A single cell is the
// floor; maxElems >= 1 is required.
func appendSlices(dst []grid.Box, b grid.Box, maxElems int) []grid.Box {
	if b.Volume() <= maxElems {
		return append(dst, b)
	}
	ax := -1
	for i := b.NDims - 1; i >= 0; i-- {
		if b.Dims[i] > 1 {
			ax = i
			break
		}
	}
	if ax < 0 {
		return append(dst, b)
	}
	unit := b.Volume() / b.Dims[ax] // cells per unit-thick slab along ax
	per := maxElems / unit
	if per < 1 {
		per = 1
	}
	for o := 0; o < b.Dims[ax]; o += per {
		sub := b
		sub.Offset[ax] = b.Offset[ax] + o
		sub.Dims[ax] = min(per, b.Dims[ax]-o)
		if sub.Volume() <= maxElems {
			dst = append(dst, sub)
		} else {
			dst = appendSlices(dst, sub, maxElems)
		}
	}
	return dst
}

// SingleShotFootprint returns the worst per-rank staging footprint, in
// class-rounded bytes, that the one-shot exchange paths would reach for
// this plan's geometry: per rank, the largest round's send+receive
// staging — both exchange modes stage one round at a time, round r moving
// each rank's r-th chunk. The value is derived from the global geometry
// alone, so every rank computes the same number — it is the quantity the
// bounded backend's auto-selection compares against the budget, keeping
// the selection collectively consistent.
func (p *Plan) SingleShotFootprint() int {
	nProcs, rounds := p.nProcs, p.rounds
	if rounds == 0 {
		return 0
	}
	send := make([]int, nProcs*rounds)
	recv := make([]int, nProcs*rounds)
	forEachOverlap(p.allChunks, p.allNeeds, func(src, chunk, dst int, ov grid.Box) {
		n := mpi.BufferClassSize(ov.Volume() * p.elemSize)
		send[src*rounds+chunk] += n
		recv[dst*rounds+chunk] += n
	})
	worst := 0
	for r := 0; r < nProcs; r++ {
		for rr := 0; rr < rounds; rr++ {
			worst = max(worst, send[r*rounds+rr]+recv[r*rounds+rr])
		}
	}
	return worst
}

// forEachOverlap visits every (source chunk × destination need) overlap
// of the global geometry in the canonical order — source rank, then that
// rank's chunk index, then destination rank ascending. The bounded slice
// enumeration, the footprint model, and the step packer all iterate this
// order, which is what makes the schedule identical on every rank.
func forEachOverlap(allChunks [][]grid.Box, allNeeds []grid.Box, f func(src, chunk, dst int, ov grid.Box)) {
	ix := grid.NewIndex(allNeeds)
	var hits []int
	for src, chunks := range allChunks {
		for ci, chunk := range chunks {
			hits = ix.QueryAppend(hits[:0], chunk)
			for _, dst := range hits {
				if ov, ok := chunk.Intersect(allNeeds[dst]); ok && !ov.Empty() {
					f(src, ci, dst, ov)
				}
			}
		}
	}
}

// compileBounded builds the bounded step schedule for plan p under the
// given budget. The slice list and step boundaries depend only on the
// global geometry, elemSize, and budget; the local send/recv types are
// built only for p.rank's slices.
func compileBounded(p *Plan, budget int) (*boundedPlan, error) {
	maxSlice := maxSliceBytes(budget)
	if maxSlice < p.elemSize {
		return nil, fmt.Errorf("core: budget %d cannot stage one %d-byte element: %w",
			budget, p.elemSize, ErrBudgetTooSmall)
	}
	maxElems := maxSlice / p.elemSize

	b := &boundedPlan{budget: budget, maxSlice: maxSlice}

	// Enumerate slices in the canonical global order, packing them
	// greedily into steps: a slice whose class-rounded charge would push
	// its source's or destination's running step load past the budget
	// closes the step. Every slice fits an empty step by construction,
	// so the packer always terminates.
	load := make([]int, p.nProcs)
	cur, stepLoad := 0, 0 // the open step, and this rank's modeled load within it
	var boxes []grid.Box
	var err error
	forEachOverlap(p.allChunks, p.allNeeds, func(src, ci, dst int, ov grid.Box) {
		if err != nil {
			return
		}
		boxes = appendSlices(boxes[:0], ov, maxElems)
		for _, region := range boxes {
			bytes := region.Volume() * p.elemSize
			l := mpi.BufferClassSize(bytes)
			if load[src]+l > budget || (dst != src && load[dst]+l > budget) {
				cur++
				clear(load)
			}
			load[src] += l
			if dst != src {
				load[dst] += l
			}
			tag := boundedTagBase + len(b.slices)
			b.slices = append(b.slices, boundedSlice{
				src: src, dst: dst, chunk: ci, region: region, bytes: bytes, tag: tag, step: cur,
			})
			if src != p.rank && dst != p.rank {
				continue
			}
			// This rank executes the slice: emit its local halves into the
			// step list and account its modeled footprint.
			for len(b.sched) <= cur {
				b.sched = append(b.sched, step{})
				stepLoad = 0
			}
			st := &b.sched[cur]
			stepLoad += l
			b.peak = max(b.peak, stepLoad)
			var send, recv seg
			if src == p.rank {
				if send, err = newSeg(p.elemSize, p.allChunks[src][ci], ci, region); err != nil {
					err = fmt.Errorf("core: bounded send type to rank %d: %w", dst, err)
					return
				}
			}
			if dst == p.rank {
				if recv, err = newSeg(p.elemSize, p.need, 0, region); err != nil {
					err = fmt.Errorf("core: bounded recv type from rank %d: %w", src, err)
					return
				}
			}
			switch {
			case src == dst:
				st.selfs = append(st.selfs, selfMove{src: send, dst: recv})
			case src == p.rank:
				st.sends = append(st.sends, message{peer: dst, tag: tag, bytes: bytes, segs: []seg{send}})
				b.wireBytes += int64(bytes)
			default:
				st.recvs = append(st.recvs, message{peer: src, tag: tag, bytes: bytes, segs: []seg{recv}})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if len(b.slices) > 0 {
		b.steps = cur + 1
	}
	// Steps after this rank's last slice still run (as no-ops), so every
	// rank reports the same step count and timings shape.
	for len(b.sched) < b.steps {
		b.sched = append(b.sched, step{})
	}
	return b, nil
}

// ensureBounded attaches (or clears) the plan's bounded schedule
// according to the descriptor's budget: compiled when the geometry's
// worst single-shot footprint exceeds the budget, absent otherwise. The
// decision derives from collectively shared inputs only, so every rank
// takes the same branch. Plans are cached per descriptor and the budget
// is a descriptor constant, so attaching once is stable across cache
// replays; the footprint is computed on the plan's first budgeted setup
// and kept on it for pipelineDepth's clamp.
func (d *Descriptor) ensureBounded(p *Plan) error {
	if d.budget <= 0 {
		return nil
	}
	if p.shot == 0 {
		p.shot = p.SingleShotFootprint()
	}
	if p.shot <= d.budget {
		p.bounded = nil
		return nil
	}
	if p.bounded != nil && p.bounded.budget == d.budget {
		return nil
	}
	b, err := compileBounded(p, d.budget)
	if err != nil {
		return err
	}
	p.bounded = b
	return nil
}

// BoundedSliceSummary serializes one slice of the bounded schedule.
type BoundedSliceSummary struct {
	Step   int   `json:"step"`
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Chunk  int   `json:"chunk"`
	Offset []int `json:"offset"`
	Dims   []int `json:"dims"`
	Bytes  int   `json:"bytes"`
	Tag    int   `json:"tag"`
}

// BoundedSummary is the canonical JSON shape of a bounded step schedule.
// The schedule is global — identical on every rank — so one summary pins
// the whole world's step decomposition. It is what the golden bounded
// fixtures under testdata/ record.
type BoundedSummary struct {
	Budget   int                   `json:"budget"`
	MaxSlice int                   `json:"max_slice"`
	Steps    int                   `json:"steps"`
	Slices   []BoundedSliceSummary `json:"slices"`
}

// BoundedSummary flattens the plan's bounded schedule, or returns a zero
// summary when no bounded schedule is attached.
func (p *Plan) BoundedSummary() BoundedSummary {
	b := p.bounded
	if b == nil {
		return BoundedSummary{Slices: []BoundedSliceSummary{}}
	}
	out := BoundedSummary{
		Budget: b.budget, MaxSlice: b.maxSlice, Steps: b.steps,
		Slices: make([]BoundedSliceSummary, 0, len(b.slices)),
	}
	for i := range b.slices {
		sl := &b.slices[i]
		out.Slices = append(out.Slices, BoundedSliceSummary{
			Step: sl.step, Src: sl.src, Dst: sl.dst, Chunk: sl.chunk,
			Offset: sl.region.OffsetSlice(), Dims: sl.region.DimsSlice(),
			Bytes: sl.bytes, Tag: sl.tag,
		})
	}
	return out
}
