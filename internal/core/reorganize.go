package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ddr/internal/datatype"
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
// OverlapRatio. Every step-executor path — the default mode, bounded,
// delta — fills the sub-durations; only ModeAlltoallw, which
// delegates the whole phase to the reference collective, leaves them zero.
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
// covered by useful work. Rounds that report no wire span (alltoallw
// delegation, pure-local rounds) are excluded.
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
// point-to-point exchange mode (one tag per round). Applications sharing a
// communicator with DDR should stay below this range.
const ddrTagBase = 1 << 20

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
// allows incomplete receives).
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

	// Resolve the pack strategies this exchange will use — a measured
	// probe on the first exchange of a (plan, transport) pair, two
	// comparisons afterwards.
	d.ensureTuned(c, p)

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
	steps, k, stepped := d.schedule(p)
	d.lastDepth = k
	if stepped {
		d.needBuf[0] = need
		err = d.ex.run(&exchange{ctx: ctx, c: c, o: o, ps: ps, deadline: d.deadline,
			id: exch, traced: traced}, steps, k, own, d.needBuf[:])
		d.needBuf[0] = nil
		if d.ex.metered {
			d.lastPeakStaging = d.ex.meter.Peak()
		}
	} else {
		err = d.alltoallwRounds(ctx, c, own, need, exch, traced)
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
			o.boundedSteps.Add(int64(b.steps))
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
// runs at. The memory-bounded backend replaces the mode dispatch
// entirely: its schedule was compiled for this descriptor's budget and
// every rank selected it from the same collectively shared geometry, so
// the worlds agree on the path taken. stepped is false for ModeAlltoallw,
// which delegates each round to the collective instead.
func (d *Descriptor) schedule(p *Plan) (steps []step, k int, stepped bool) {
	switch {
	case p.bounded != nil:
		return p.bounded.sched, d.pipelineDepth(p.bounded.steps, p.bounded.peak), true
	case d.mode == ModeAlltoallw:
		return nil, 1, false
	}
	return p.sched, d.pipelineDepth(len(p.sched), p.shot), true
}

// pipelineDepth resolves the depth an exchange may run at: the
// configured depth clamped by the step count and — when a memory budget
// is set — by the lease model: the in-flight window holds at most k+1
// per-step staging footprints (k receive leases plus the step being
// packed), so k is lowered until (k+1)·footprint fits the budget. perStep
// is the bounded schedule's modeled per-step footprint, or the one-shot
// footprint ensureBounded stored on the plan. Depth 1 needs a single
// footprint, which backend selection already proved against the budget.
func (d *Descriptor) pipelineDepth(steps, perStep int) int {
	k := min(d.depth, steps)
	if k <= 1 {
		return 1
	}
	if d.budget <= 0 {
		return k
	}
	if perStep <= 0 {
		return k
	}
	return min(k, max(d.budget/perStep-1, 1))
}

// alltoallwRounds is the paper's mechanism and the oracle the step
// executor is tested against: one alltoallw collective per round, the
// whole pack/wire/unpack phase delegated to it (so the timings' sub-
// durations stay zero). It is fail-fast: a cancelled ctx stops it between
// rounds, any transport error aborts it.
func (d *Descriptor) alltoallwRounds(ctx context.Context, c *mpi.Comm, own [][]byte, need []byte, exch uint64, traced bool) error {
	p, o := d.plan, d.obsv
	d.ex.timings = d.ex.timings[:0]
	for r := 0; r < p.rounds; r++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		var sendBuf []byte
		if r < len(own) {
			sendBuf = own[r]
		}
		roundBytes := p.RankRoundSendBytes(p.rank, r)
		if traced {
			c.SetTraceContext(mpi.TraceContext{Exchange: exch, Round: uint32(r)})
		}
		start := time.Now()
		rowSend, rowRecv := d.alltoallwRows(p, r)
		err := c.Alltoallw(sendBuf, rowSend, need, rowRecv)
		d.resetAlltoallwRows(p, r)
		if o.tracing() {
			o.rec.StampSpan(trace.Event{Rank: o.rank, Name: fmt.Sprintf("round-%d", r),
				Bytes: roundBytes, Exchange: exch, Round: int32(r), Peer: -1}, start, time.Now())
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		elapsed := time.Since(start)
		if o.on() {
			o.roundLat.Observe(elapsed.Seconds())
			o.exchangeBytes.Add(roundBytes)
		}
		d.ex.timings = append(d.ex.timings, RoundTiming{Round: r, Duration: elapsed, WireBytes: roundBytes})
	}
	return nil
}

// alltoallwRows materializes round r's dense send/recv type rows — the
// alltoallw collective's wire format — from the round's step into the
// descriptor's reusable scratch: each message's one seg in its peer's
// slot, the local move in the rank's own. resetAlltoallwRows must run
// after the collective returns to restore the Empty sentinels, so the rows
// are clean for the next round at O(messages) cost.
func (d *Descriptor) alltoallwRows(p *Plan, r int) (rowSend, rowRecv []datatype.Type) {
	if len(d.rowSend) != p.nProcs {
		d.rowSend = make([]datatype.Type, p.nProcs)
		d.rowRecv = make([]datatype.Type, p.nProcs)
		for i := range d.rowSend {
			d.rowSend[i], d.rowRecv[i] = datatype.Empty{}, datatype.Empty{}
		}
	}
	st := &p.sched[r]
	for _, sf := range st.selfs {
		d.rowSend[p.rank], d.rowRecv[p.rank] = sf.src.t, sf.dst.t
	}
	for _, m := range st.sends {
		d.rowSend[m.peer] = m.segs[0].t
	}
	for _, m := range st.recvs {
		d.rowRecv[m.peer] = m.segs[0].t
	}
	return d.rowSend, d.rowRecv
}

// resetAlltoallwRows restores the Empty sentinel in the slots round r
// populated.
func (d *Descriptor) resetAlltoallwRows(p *Plan, r int) {
	st := &p.sched[r]
	d.rowSend[p.rank], d.rowRecv[p.rank] = datatype.Empty{}, datatype.Empty{}
	for _, m := range st.sends {
		d.rowSend[m.peer] = datatype.Empty{}
	}
	for _, m := range st.recvs {
		d.rowRecv[m.peer] = datatype.Empty{}
	}
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
	return RedistributeCtx(nil, c, layout, elem, own, need, opts...)
}

// RedistributeCtx is Redistribute with cancellation, following the
// ReorganizeDataCtx contract: the mapping setup is not cancellable, the
// exchange is.
func RedistributeCtx(ctx context.Context, c *mpi.Comm, layout Layout, elem ElemType, own []Chunk, need grid.Box, opts ...Option) ([]byte, error) {
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
	if err := d.ReorganizeDataCtx(ctx, c, bufs, out); err != nil {
		return nil, err
	}
	return out, nil
}
