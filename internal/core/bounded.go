package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// The memory-bounded plan backend. The one-shot exchange paths stage, per
// rank, every send and receive region of a round at once, so their peak
// staging footprint is proportional to the data moved — exactly where the
// paper's in-transit coupling hurts at scale. Following the decomposition
// of "Memory-efficient array redistribution through portable collective
// communication" (Rink et al.), compileBounded rewrites this rank's own
// round schedule (p.sched) as a sequence of bounded-footprint steps: every
// message and self move too large for the budget is sliced into pieces
// whose class-rounded size fits it, the pieces are ordered by one global
// key, and they are packed greedily into steps whose modelled staging
// (charge) fits the budget.
//
// The schedule is per rank. A rank reads only its own step list, chunks
// and need box — never another rank's overlaps — so the compile costs the
// rank's own pieces, not the world's. Ranks may pack differently, and a
// rank whose rounds all fit replays p.sched unchanged; what keeps them
// compatible is the key every piece is ordered by: (round, shift, slice),
// where shift = (dst−src) mod P is the circulant shift of the piece's
// pair (Sudarsan & Ribbens: at shift t, rank r sends only to r+t and
// receives only from r−t) and slice its index within the message, with a
// send ahead of a receive on an equal key. Sender and receiver derive the
// same key for a piece, and every rank's steps are consecutive runs of
// its pieces in key order, which is what the executor's deadlock-freedom
// argument needs (DESIGN.md, "Memory-bounded step compiler"). Whether a
// message is sliced, and into which pieces, depends only on its size and
// the budget, so both ends agree on that too; the budget must be uniform
// across ranks and is folded into the plan
// fingerprint (plancache.go), so cached plans and exchange IDs key on it.
//
// Budget semantics: WithMemoryBudget bounds the bytes of exchange-layer
// staging a rank holds at once — pack buffers plus received payloads
// between delivery and placement — rounded up to the staging arena's
// class sizes (mpi.BufferClassSize). Transport-internal transit copies
// (mailbox deliveries not yet received, TCP socket buffers) are outside
// the bound; they are themselves bounded by the transports' chunk lanes.
// A live mpi.StagingMeter on the descriptor measures the real high-water
// mark of every budgeted exchange, and the test harness asserts measured
// peak <= budget at every tier down to the one-chunk minimum.

// ErrBudgetTooSmall reports a WithMemoryBudget value below the smallest
// staging-arena class needed to move even a single element, or so small
// that one peer pair needs more slices than the bounded tag range holds.
var ErrBudgetTooSmall = errors.New("core: memory budget below the minimum staging class")

// boundedTagBase is the first tag of the bounded exchange's range. A
// sliced piece takes base + its pair-local slice count — the number of
// pieces of the same (src, dst) pair before it in key order — so the tags
// of a pair never repeat, and duplicated or reordered deliveries can
// never satisfy the wrong receive. An unsliced message keeps its round
// tag (ddrTagBase+round). The range sits above the round tags and ends
// where DDR's reserved range does (ddrTagLimit), which bounds the slices
// of one pair.
const boundedTagBase = ddrTagBase + (1 << 18)

// sliceTag returns the tag of a pair's n-th slice, failing with
// ErrBudgetTooSmall once n would leave the bounded range.
func sliceTag(n int) (int, error) {
	if n >= ddrTagLimit-boundedTagBase {
		return 0, fmt.Errorf("core: one peer pair needs more than %d slices under this budget: %w",
			ddrTagLimit-boundedTagBase, ErrBudgetTooSmall)
	}
	return boundedTagBase + n, nil
}

// boundedPlan is this rank's schedule under one budget.
type boundedPlan struct {
	budget int // configured ceiling, bytes

	// sched is the rank's rounds re-packed into bounded steps, nil when
	// every round of p.sched fits the budget and the rank replays it.
	sched []step

	peak int // modelled charge of the largest step the rank runs
}

// steps is the step list the rank runs under the budget: its re-packed
// steps, or its rounds when they all fit.
func (b *boundedPlan) steps(p *Plan) []step {
	if b.sched != nil {
		return b.sched
	}
	return p.sched
}

// WithMemoryBudget bounds the exchange-layer staging of every
// ReorganizeData call to at most n bytes per rank (class-rounded, see the
// package comment above). SetupDataMapping compares each rank's own
// worst round (SingleShotFootprint) with the budget: a rank whose rounds
// fit replays them unchanged, any other re-packs its rounds into bounded
// steps. The budget must be uniform across ranks and is part
// of the plan-cache key. n <= 0 (the default) disables the bound.
func WithMemoryBudget(n int) Option {
	return func(d *Descriptor) { d.budget = n }
}

// fpSalt is the descriptor's fingerprint salt: the memory budget when
// one is set, 0 (a no-op, see saltHash) otherwise. Folding it into the
// plan fingerprint keys the plan cache and minted exchange IDs on the
// budget alongside the geometry.
func (d *Descriptor) fpSalt() uint64 { return uint64(max(d.budget, 0)) }

// BoundedSteps reports the number of bounded steps this rank's current
// plan executes per exchange, or 0 when it replays its rounds unchanged
// (no budget, or every round fits it). Ranks of one world may differ.
func (d *Descriptor) BoundedSteps() int {
	if d.plan == nil || d.plan.bounded == nil {
		return 0
	}
	return len(d.plan.bounded.sched)
}

// LastPeakStaging reports the measured high-water mark of exchange-layer
// staging bytes on this rank during the most recent budgeted
// ReorganizeData call (0 before the first — the meter arms only under
// WithMemoryBudget).
func (d *Descriptor) LastPeakStaging() int64 { return d.lastPeakStaging }

// StagingHeld reports the staging bytes this rank's meter holds now. Every
// exchange releases what it charged before it returns — send wires, settled
// lent messages, receive leases — so it reads 0 between exchanges.
func (d *Descriptor) StagingHeld() int64 { return d.ex.meter.Current() }

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

// charge is the one staging model of the budgeted path: every self move,
// send and receive of st at its arena class. The executor holds at most
// that much at once per step — one send or self-move wire at a time plus
// the step's receive lease — and at most k+1 charges with k steps in
// flight, which is what pipelineDepth clamps against.
func charge(st *step) int {
	n := 0
	for i := range st.selfs {
		n += mpi.BufferClassSize(st.selfs[i].src.t.PackedSize())
	}
	for i := range st.sends {
		n += mpi.BufferClassSize(st.sends[i].bytes)
	}
	for i := range st.recvs {
		n += mpi.BufferClassSize(st.recvs[i].bytes)
	}
	return n
}

// SingleShotFootprint returns this rank's one-shot staging footprint, in
// class-rounded bytes: the charge of its largest round, the quantity a
// memory budget is compared against to decide whether the rank re-packs.
// It reads only this rank's compiled rounds, so ranks of one world
// generally report different values.
func (p *Plan) SingleShotFootprint() int {
	worst := 0
	for i := range p.sched {
		worst = max(worst, charge(&p.sched[i]))
	}
	return worst
}

// piece is one self move, send or receive of the re-packed schedule, at
// its position in the global key order.
type piece struct {
	round, shift, slice int
	dir                 int // 1 for a receive, which sorts after a send on an equal key
	bytes               int
	self                bool // sf is the piece, not m
	sf                  selfMove
	m                   message
}

// compileBounded builds this rank's schedule under budget from its own
// compiled rounds. It reads only p.sched, p.myChunks and p.need.
func compileBounded(p *Plan, budget int) (*boundedPlan, error) {
	maxSlice := maxSliceBytes(budget)
	if maxSlice < p.elemSize {
		return nil, fmt.Errorf("core: budget %d cannot stage one %d-byte element: %w",
			budget, p.elemSize, ErrBudgetTooSmall)
	}
	b := &boundedPlan{budget: budget, peak: p.SingleShotFootprint()}
	if b.peak <= budget {
		return b, nil
	}

	// Slice. A message larger than maxSlice — equally so on both ends of
	// its pair — is cut seg by seg into region slices, each on its pair's
	// next slice tag. Both ends hold the same segs in the same order (a
	// contested overlap's fragments, see fragments in mapping.go), so they
	// cut the same slices.
	maxElems := maxSlice / p.elemSize
	var pieces []piece
	var boxes []grid.Box
	cut := func(buf int, base grid.Box) ([]seg, error) {
		out := make([]seg, len(boxes))
		for i, box := range boxes {
			if err := out[i].init(p.elemSize, base, buf, box); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	tags := map[int]int{} // pair (shift*2, +1 when receiving) → slices tagged so far
	for r := range p.sched {
		st := &p.sched[r]
		for _, sf := range st.selfs {
			n := sf.src.t.PackedSize()
			if n <= maxSlice {
				pieces = append(pieces, piece{round: r, bytes: n, self: true, sf: sf})
				continue
			}
			boxes = appendSlices(boxes[:0], sf.src.t.Sub, maxElems)
			src, err := cut(sf.src.buf, p.myChunks[sf.src.buf])
			if err == nil {
				var dst []seg
				dst, err = cut(sf.dst.buf, p.need)
				for j := range dst {
					pieces = append(pieces, piece{round: r, slice: j, bytes: src[j].t.PackedSize(),
						self: true, sf: selfMove{src: src[j], dst: dst[j]}})
				}
			}
			if err != nil {
				return nil, fmt.Errorf("core: bounded self move: %w", err)
			}
		}
		for dir, msgs := range [2][]message{st.sends, st.recvs} {
			for _, m := range msgs {
				shift := (m.peer - p.rank + p.nProcs) % p.nProcs
				if dir == 1 {
					shift = (p.rank - m.peer + p.nProcs) % p.nProcs
				}
				if m.bytes <= maxSlice {
					pieces = append(pieces, piece{round: r, shift: shift, dir: dir, bytes: m.bytes, m: m})
					continue
				}
				var segs []seg
				for k := range m.segs {
					sg := &m.segs[k]
					base := p.need
					if dir == 0 {
						base = p.myChunks[sg.buf]
					}
					boxes = appendSlices(boxes[:0], sg.t.Sub, maxElems)
					cs, err := cut(sg.buf, base)
					if err != nil {
						return nil, fmt.Errorf("core: bounded message with rank %d: %w", m.peer, err)
					}
					segs = append(segs, cs...)
				}
				pair := shift*2 + dir
				first := tags[pair]
				if _, err := sliceTag(first + len(segs) - 1); err != nil {
					return nil, err
				}
				tags[pair] += len(segs)
				for j := range segs {
					n := segs[j].t.PackedSize()
					pieces = append(pieces, piece{round: r, shift: shift, slice: j, dir: dir, bytes: n,
						m: message{peer: m.peer, tag: boundedTagBase + first + j, bytes: n, segs: segs[j : j+1 : j+1]}})
				}
			}
		}
	}

	// Order by the global key, then pack greedily under the charge model
	// (each piece at its class, as charge sums them): a piece that would
	// push the open step past the budget, or that belongs to the next
	// round, closes it. Every piece fits an empty step.
	slices.SortFunc(pieces, func(a, b piece) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.shift, b.shift),
			cmp.Compare(a.slice, b.slice), cmp.Compare(a.dir, b.dir))
	})
	b.peak = 0
	load := 0
	for i := range pieces {
		pc := &pieces[i]
		c := mpi.BufferClassSize(pc.bytes)
		if i == 0 || load+c > budget || pc.round != pieces[i-1].round {
			b.sched = append(b.sched, step{})
			load = 0
		}
		load += c
		b.peak = max(b.peak, load)
		st := &b.sched[len(b.sched)-1]
		switch {
		case pc.self:
			st.selfs = append(st.selfs, pc.sf)
		case pc.dir == 1:
			st.recvs = append(st.recvs, pc.m)
		default:
			st.sends = append(st.sends, pc.m)
		}
	}
	return b, nil
}

// ensureBounded attaches the plan's budgeted schedule for the
// descriptor's budget. Plans are cached per descriptor and the budget is
// a descriptor constant, so compiling once is stable across cache
// replays.
func (d *Descriptor) ensureBounded(p *Plan) error {
	if d.budget <= 0 || (p.bounded != nil && p.bounded.budget == d.budget) {
		return nil
	}
	b, err := compileBounded(p, d.budget)
	if err != nil {
		return err
	}
	p.bounded = b
	return nil
}
