package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// RoundTiming records the wall-clock cost of one exchange round of the
// most recent ReorganizeData call, along with the bytes this rank sent to
// other ranks in that round. Bounded exchanges report one entry per step.
//
// Duration is the round's contribution to the exchange's wall time. The
// sub-durations decompose it against the wire: Pack covers staging the
// round's sends (through handing them to the transport), Unpack covers
// the batched scatter of its strided payloads, and Wire spans from the
// sends being posted until the round's last payload was in hand —
// including, in that span, the inline placement of contiguous payloads.
// A serial round blocks for the whole wire span, so Duration ≈ Pack +
// Wire + Unpack; a pipelined round only pays the part of the wire span
// it actually blocked on (Duration = Pack + blocked + Unpack), which is
// what makes overlap efficiency computable from timings alone — see
// OverlapRatio. The step executor runs every exchange — rounds, bounded
// steps, a resize — and fills the sub-durations on all of them.
type RoundTiming struct {
	Round     int
	Duration  time.Duration
	Pack      time.Duration
	Wire      time.Duration
	Unpack    time.Duration
	WireBytes int64
}

// OverlapRatio reports, over a set of round timings, the fraction of
// wire time that was hidden behind pack/unpack work instead of being
// blocked on: 0 when every round waited out its whole wire span (serial
// execution), approaching 1 when the pipeline kept the wire fully
// covered by useful work. Rounds that report no wire span (pure-local
// rounds) are excluded.
func OverlapRatio(ts []RoundTiming) float64 {
	var wire, hidden time.Duration
	for _, t := range ts {
		if t.Wire <= 0 {
			continue
		}
		blocked := t.Duration - t.Pack - t.Unpack
		if blocked < 0 {
			blocked = 0
		}
		if blocked > t.Wire {
			blocked = t.Wire
		}
		wire += t.Wire
		hidden += t.Wire - blocked
	}
	if wire == 0 {
		return 0
	}
	return float64(hidden) / float64(wire)
}

// LastTimings returns a copy of the per-round timings of the most recent
// ReorganizeData call (nil before the first call). The copy is the
// caller's to keep; use AppendTimings to avoid the allocation.
func (d *Descriptor) LastTimings() []RoundTiming {
	if d.ex.timings == nil {
		return nil
	}
	out := make([]RoundTiming, len(d.ex.timings))
	copy(out, d.ex.timings)
	return out
}

// AppendTimings appends the most recent call's per-round timings to dst
// and returns the extended slice, the allocation-conscious variant of
// LastTimings.
func (d *Descriptor) AppendTimings(dst []RoundTiming) []RoundTiming {
	return append(dst, d.ex.timings...)
}

// ddrTagBase is the first of the user-visible tags DDR reserves for its
// exchanges (one tag per round). Applications sharing a
// communicator with DDR should stay below this range.
const ddrTagBase = 1 << 20

// ddrTagLimit is one past the last tag of DDR's reserved range: the round
// tags from ddrTagBase, then the bounded exchange's slice tags from
// boundedTagBase up to it.
const ddrTagLimit = ddrTagBase + (1 << 19)

// ExchangeTagBase is the first tag of the range DDR reserves for its
// exchange traffic, exported so fault-injection schedules can target the
// data exchange (tags >= ExchangeTagBase) while sparing the mapping
// collectives and application control traffic.
const ExchangeTagBase = ddrTagBase

// ReorganizeData exchanges the data between ranks according to the plan
// compiled by SetupDataMapping. own holds one buffer per owned chunk, in
// the order the chunks were passed to SetupDataMapping; need receives the
// redistributed data and must be sized for the need box. Elements of the
// need box covered by no rank's owned data are left untouched (the paper
// allows incomplete receives). own is read until the call returns — on
// bare inproc a peer that posts late copies straight from it — so it must
// neither change nor overlap need during the call; once the call has
// returned nobody reads it.
//
// It corresponds to DDR_ReorganizeData(nProcs, dataOwn, dataNeed, desc)
// and may be called repeatedly as new data arrives in the same layout.
// Repeated calls on one plan reuse the descriptor's staging state and the
// shared buffer arena, so the steady state allocates nothing.
func (d *Descriptor) ReorganizeData(c *mpi.Comm, own [][]byte, need []byte) error {
	return d.ReorganizeDataCtx(nil, c, own, need)
}

// ReorganizeDataCtx is ReorganizeData with cancellation: when ctx is
// cancelled the exchange stops between rounds, revokes its posted
// receives and returns ctx.Err(); once it has returned nobody writes into
// need any more. Messages peers had yet to send still arrive and stay in
// the mailbox, so after a cancellation the communicator must not be
// reused for DDR traffic (see the cancellation contract in DESIGN.md);
// cancel to tear down, not to retry. A nil ctx —
// or one that can never be cancelled — selects the uncancellable fast
// path and is exactly ReorganizeData.
func (d *Descriptor) ReorganizeDataCtx(ctx context.Context, c *mpi.Comm, own [][]byte, need []byte) error {
	ctx, ps, cancel, err := beginExchange(ctx, d.deadline)
	if err != nil {
		return err
	}
	defer cancel()
	p := d.plan
	if p == nil {
		return fmt.Errorf("core: ReorganizeData before SetupDataMapping: %w", ErrNoMapping)
	}
	if c.Size() != d.nProcs || c.Rank() != p.rank {
		return fmt.Errorf("core: communicator does not match the one used for SetupDataMapping: %w", ErrCommMismatch)
	}
	if len(own) != len(p.myChunks) {
		return fmt.Errorf("core: %d owned buffers for %d chunks: %w", len(own), len(p.myChunks), ErrBufferSize)
	}
	for i, buf := range own {
		if want := p.myChunks[i].Volume() * d.elemSize; len(buf) != want {
			return fmt.Errorf("core: owned buffer %d has %d bytes, chunk %v needs %d: %w",
				i, len(buf), p.myChunks[i], want, ErrBufferSize)
		}
	}
	if want := p.need.Volume() * d.elemSize; len(need) != want {
		return fmt.Errorf("core: need buffer has %d bytes, box %v needs %d: %w",
			len(need), p.need, want, ErrBufferSize)
	}

	o := d.obsv
	rankL := o.Rank(c)

	// Mint this exchange's trace identity. ReorganizeData is collective,
	// so the counter advances in lockstep on every rank; combined with the
	// collectively agreed plan fingerprint, every rank derives the same
	// 64-bit ID without communicating. Minting is two integer ops, so it
	// runs unconditionally; the context push and span stamps are gated so
	// a detached descriptor pays nothing.
	d.exchSeq++
	exch := mixExchangeID(p.fp, d.exchSeq)
	d.lastExchID = exch
	traced := o.tracing() || d.flight != nil
	if traced {
		// Stamp the context onto every message of this exchange: the
		// transports propagate it in-band, so the receiving side's flight
		// events name the exchange and round they served.
		c.SetTraceContext(mpi.TraceContext{Exchange: exch})
		defer c.ClearTraceContext()
		d.flight.Record(obs.FlightEvent{Kind: obs.FlightExchangeStart, Rank: int32(rankL), Peer: -1, Exchange: exch})
	}
	if o.tracing() {
		allStart := time.Now()
		defer func() {
			o.rec.StampSpan(trace.Event{Rank: rankL, Name: "exchange",
				Exchange: exch, Round: -1, Peer: -1}, allStart, time.Now())
		}()
	}

	start := time.Now()
	steps, k := d.schedule(p)
	d.lastDepth = k
	d.needBuf[0] = need
	err = d.ex.run(&exchange{ctx: ctx, c: c, o: o, ps: ps, deadline: d.deadline,
		id: exch, traced: traced}, steps, k, own, d.needBuf[:])
	d.needBuf[0] = nil
	if d.ex.metered {
		d.lastPeakStaging = d.ex.meter.Peak()
	}
	if err != nil {
		return fmt.Errorf("core: exchange: %w", err)
	}
	d.lastOverlap = OverlapRatio(d.ex.timings)
	if o.on() {
		o.exchangeLat.Observe(time.Since(start).Seconds())
		o.pipeDepth.Set(int64(k))
		o.pipeOverlap.Set(d.lastOverlap)
		if b := p.bounded; b != nil {
			o.boundedSteps.Add(int64(len(b.sched)))
			o.boundedPeak.SetMax(d.lastPeakStaging)
		}
	}
	err = partialError(ps, steps)
	if d.flight != nil {
		// Mark the exchange end in the ring and, if it degraded, emit the
		// one-shot postmortem dump naming the lost peers while the ring
		// still holds the frames leading up to the loss.
		d.flight.Record(obs.FlightEvent{Kind: obs.FlightExchangeEnd, Rank: int32(rankL), Peer: -1, Exchange: exch})
		var pe *PartialError
		if errors.As(err, &pe) {
			d.flight.DumpOnce(fmt.Sprintf("rank %d exchange %016x degraded: lost peers %v: %v",
				rankL, exch, pe.LostPeers, pe.Cause))
		}
	}
	return err
}

// schedule selects the step list this exchange replays and the depth it
// runs at: the plan's rounds, one step each, or — under a memory budget —
// this rank's re-packed steps, or its rounds when they all fit. Every
// rank runs a step list in the one global key order (bounded.go), so no
// collective choice is needed.
func (d *Descriptor) schedule(p *Plan) (steps []step, k int) {
	if b := p.bounded; b != nil {
		steps = b.steps(p)
		return steps, d.pipelineDepth(len(steps), b.peak)
	}
	return p.sched, d.pipelineDepth(len(p.sched), 0)
}

// pipelineDepth resolves the depth an exchange may run at: the
// configured depth clamped by the step count and — under a memory budget
// — by the lease model: the in-flight window holds at most k+1 per-step
// charges (k receive leases plus the step being packed), so k is lowered
// until (k+1)·perStep fits the budget. perStep is the modelled charge of
// the largest step this rank runs, 0 without a budget; depth 1 needs a
// single charge, which compileBounded proved against the budget.
func (d *Descriptor) pipelineDepth(steps, perStep int) int {
	k := min(d.depth, steps)
	if k <= 1 {
		return 1
	}
	if perStep <= 0 {
		return k
	}
	return min(k, max(d.budget/perStep-1, 1))
}

// Chunk pairs an owned box with its data buffer, for the one-shot
// Redistribute helper.
type Chunk struct {
	Box  grid.Box
	Data []byte
}

// Redistribute is a convenience wrapper that performs descriptor creation,
// mapping setup, and a single data exchange in one call, returning the
// freshly allocated need buffer. Applications redistributing repeatedly
// should keep the Descriptor and call ReorganizeData themselves.
func Redistribute(c *mpi.Comm, layout Layout, elem ElemType, own []Chunk, need grid.Box, opts ...Option) ([]byte, error) {
	d, err := NewDescriptor(c.Size(), layout, elem, opts...)
	if err != nil {
		return nil, err
	}
	boxes := make([]grid.Box, len(own))
	bufs := make([][]byte, len(own))
	for i, ch := range own {
		boxes[i] = ch.Box
		bufs[i] = ch.Data
	}
	if err := d.SetupDataMapping(c, boxes, need); err != nil {
		return nil, err
	}
	out := make([]byte, need.Volume()*d.ElemSize())
	if err := d.ReorganizeData(c, bufs, out); err != nil {
		return nil, err
	}
	return out, nil
}
