package transit

import (
	"errors"
	"fmt"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// sessionState tracks a Regridder's lifecycle across connection epochs
// and elastic resizes.
type sessionState int

const (
	// stateActive is the normal state: the current mapping (if any) is
	// trustworthy and Connect/Regrid/Resize may all run.
	stateActive sessionState = iota
	// stateStale marks a session whose last collective operation failed
	// partway: ranks may disagree about the current mapping, so Regrid is
	// refused until a successful Connect re-establishes agreement.
	stateStale
	// stateAbandoned is terminal: this rank resized out of the consumer
	// group and handed its data off; the session accepts no further
	// operations.
	stateAbandoned
)

// Regridder owns the consumer-side DDR state of an in-transit coupling
// across connection epochs. In the paper's use case B the producer
// application comes and goes — it restarts from a checkpoint, rescales to
// a different rank count, or simply opens a new stream epoch — and each
// (re)connection requires the consumer group to re-establish the mapping
// from the producers' current chunk layout to the analysis layout.
//
// Most reconnects are steady-state: the producers return with the
// geometry they had before (a restart at the same scale), or cycle
// through a small set of layouts (alternating compute and I/O phases).
// The Regridder routes every Connect through one long-lived Descriptor so
// its plan cache recognizes those recurrences; a warm reconnect skips the
// geometry allgather, validation, and plan compilation entirely and costs
// one small allgather.
//
// The consumer side can itself rescale mid-stream: Resize moves the
// session from N to N′ consumer ranks without tearing the coupling down,
// shipping only the bytes whose ownership changed. A resize is one more
// redistribution — from the need boxes the group held to the ones it
// needs — run on a descriptor of its own.
type Regridder struct {
	desc *core.Descriptor
	need grid.Box

	epochs  int
	resizes int
	own     []grid.Box // chunk layout of the current epoch
	state   sessionState

	// resize maps and runs every Resize, re-targeted at each resize
	// collective's size; its plan cache holds resize plans only, so they
	// never evict the producer mappings from desc's. Built on the first
	// Resize.
	resize *core.Descriptor

	// Resize telemetry, registered lazily against the descriptor's
	// metrics registry (nil when none is attached).
	mResizes   *obs.Counter
	mMoved     *obs.Counter
	mRetained  *obs.Counter
	mNeed      *obs.Counter
	mMovedPct  *obs.Gauge
	metricsSet bool
}

// NewRegridder wraps a descriptor and the analysis-side need box. The
// descriptor should have its plan cache enabled (the default); every
// consumer rank must construct its Regridder collectively and call
// Connect/Regrid/Resize in lockstep. A rank that will join the group at
// a later Resize passes a zero-extent need box.
func NewRegridder(desc *core.Descriptor, need grid.Box) *Regridder {
	return &Regridder{desc: desc, need: need}
}

// Connect establishes (or re-establishes) the mapping for the chunk
// layout the producers declared for this epoch: own lists the producer
// chunks this consumer rank receives, in stream order. Collective over
// the consumer communicator. Reconnecting with a previously seen global
// geometry is satisfied from the plan cache without recompiling.
//
// A failed Connect leaves the session stale: the descriptor's mapping is
// reset so a Regrid against the dead epoch's plan cannot silently move
// data with a geometry other ranks may not share, and the chunk layout
// is cleared. The next successful Connect returns the session to active;
// cached plans survive, so recovering onto a known geometry stays warm.
func (rg *Regridder) Connect(c *mpi.Comm, own []grid.Box) error {
	if rg.state == stateAbandoned {
		return fmt.Errorf("transit: Connect on an abandoned session")
	}
	if err := rg.desc.SetupDataMapping(c, own, rg.need); err != nil {
		rg.state = stateStale
		rg.own = rg.own[:0]
		rg.desc.ResetMapping()
		return fmt.Errorf("transit: reconnect epoch %d: %w", rg.epochs, err)
	}
	rg.own = append(rg.own[:0], own...)
	rg.epochs++
	rg.state = stateActive
	return nil
}

// Regrid redistributes one step's payloads — one buffer per chunk passed
// to the latest Connect, in the same order — into the need buffer.
func (rg *Regridder) Regrid(c *mpi.Comm, bufs [][]byte, needBuf []byte) error {
	switch rg.state {
	case stateAbandoned:
		return fmt.Errorf("transit: Regrid on an abandoned session")
	case stateStale:
		return fmt.Errorf("transit: Regrid on a stale session (reconnect first)")
	}
	if rg.epochs == 0 {
		return fmt.Errorf("transit: Regrid before Connect")
	}
	return rg.desc.ReorganizeData(c, bufs, needBuf)
}

// ResizeReport describes what one elastic resize moved.
type ResizeReport struct {
	Resize        int   // 1-based resize ordinal of this session
	NewGroupSize  int   // consumer ranks after the resize (N′)
	MovedBytes    int64 // received over the wire by this rank
	RetainedBytes int64 // satisfied by the local old→new copy
	NeedBytes     int64 // total size of the new need buffer

	// Lost and Missing are non-empty when the resize completed partially:
	// the peers given up on, and the new-need regions their data would
	// have filled (those cells keep whatever newData held before).
	Lost    []int
	Missing []grid.Box
}

// Resize rescales the consumer group from N to N′ ranks without tearing
// the session down. It is collective over c, which must span the union
// of old and new participants (the resize collective); newNeed is this
// rank's need box after the resize — zero-extent for a rank leaving the
// group — and a rank joining the group has no old need (it simply calls
// Resize on its zero-extent session). oldData holds the current need box
// and newData receives the new one (nil for an empty side).
//
// The move is a redistribution in which every rank owns its old need box
// and needs its new one: SetupDataMapping(c, []grid.Box{oldNeed},
// newNeed), then ReorganizeData. The plan compiler's ownership rule keeps
// every cell a rank already holds as a local copy and takes each other
// one from its lowest-ranked old holder, so only the bytes whose
// ownership changed cross the wire. A repeat of a geometry every rank
// has mapped before replays the cached plans, at the one small allgather
// of the plan-cache agreement.
//
// On success the session re-targets the descriptor at newSize ranks
// (newSize = the number of ranks with a non-empty new need) and clears
// the producer mapping: the next Connect must run on the new consumer
// communicator, and opens the first epoch of the resized session. A
// leaver's session becomes abandoned once its data is handed off.
//
// Peer loss during the move degrades rather than aborts when the
// descriptor has an exchange deadline: the resize commits on the
// surviving ranks and the report (and a *core.PartialError wrapped in
// the returned error) names the lost peers and the regions they never
// filled. Any other failure marks the session stale.
func (rg *Regridder) Resize(c *mpi.Comm, newNeed grid.Box, oldData, newData []byte) (*ResizeReport, error) {
	if rg.state == stateAbandoned {
		return nil, fmt.Errorf("transit: Resize on an abandoned session")
	}
	var err error
	if rg.resize == nil {
		rg.resize, err = core.NewDescriptor(c.Size(), rg.desc.Layout(), core.Uint8,
			core.WithElemSize(rg.desc.ElemSize()), core.WithExchangeDeadline(rg.desc.ExchangeDeadline()))
	} else {
		err = rg.resize.Reshape(c.Size())
	}
	if err != nil {
		return nil, fmt.Errorf("transit: resize: %w", err)
	}
	nn := rg.normalNeed(newNeed)
	if err := rg.resize.SetupDataMapping(c, []grid.Box{rg.normalNeed(rg.need)}, nn); err != nil {
		rg.state = stateStale
		return nil, fmt.Errorf("transit: resize %d mapping: %w", rg.resizes+1, err)
	}
	plan := rg.resize.Plan()

	exErr := rg.resize.ReorganizeDataCtx(nil, c, [][]byte{oldData}, newData)
	var pe *core.PartialError
	if exErr != nil && !errors.As(exErr, &pe) {
		rg.state = stateStale
		rg.desc.ResetMapping()
		return nil, fmt.Errorf("transit: resize %d exchange: %w", rg.resizes+1, exErr)
	}

	// Commit: the session now owns the new need box. The producer mapping
	// is gone — the consumer communicator changed shape — so the next
	// Connect reopens the coupling at the new scale.
	rg.resizes++
	rg.need = newNeed
	rg.own = rg.own[:0]
	rg.state = stateActive
	report := &ResizeReport{
		Resize:        rg.resizes,
		NewGroupSize:  plan.NeedRanks(),
		MovedBytes:    plan.ReceivedBytes(),
		RetainedBytes: plan.RetainedBytes(),
		NeedBytes:     int64(nn.Volume()) * int64(rg.desc.ElemSize()),
	}
	if pe != nil {
		report.Lost = pe.LostPeers
		report.Missing = pe.Missing
	}
	rg.recordResize(report)
	if nn.Empty() {
		rg.state = stateAbandoned
		rg.desc.ResetMapping()
	} else if err := rg.desc.Reshape(report.NewGroupSize); err != nil {
		rg.state = stateStale
		return nil, fmt.Errorf("transit: resize %d: %w", rg.resizes, err)
	}
	if pe != nil {
		return report, fmt.Errorf("transit: resize %d completed partially: %w", rg.resizes, pe)
	}
	return report, nil
}

// normalNeed gives a zero-value need box the descriptor's
// dimensionality, so "not in the group" maps as a zero-extent box of the
// layout SetupDataMapping checks boxes against.
func (rg *Regridder) normalNeed(b grid.Box) grid.Box {
	if b.NDims != 0 {
		return b
	}
	nd := rg.desc.Layout().NDims()
	dims := make([]int, nd)
	return grid.MustBox(make([]int, nd), dims)
}

// recordResize publishes resize telemetry when the descriptor carries a
// metrics registry: cumulative moved / retained / total byte counters
// and a moved-vs-total gauge (per mille of the new need that crossed the
// wire in the latest resize — the quantity an incremental plan
// minimizes).
func (rg *Regridder) recordResize(rep *ResizeReport) {
	reg := rg.desc.MetricsRegistry()
	if reg == nil {
		return
	}
	if !rg.metricsSet {
		rg.mResizes = reg.Counter("ddr_resize_total", "Elastic resizes completed by this session.")
		rg.mMoved = reg.Counter("ddr_resize_moved_bytes_total", "Bytes received over the wire by elastic resizes.")
		rg.mRetained = reg.Counter("ddr_resize_retained_bytes_total", "Bytes satisfied locally by elastic resizes.")
		rg.mNeed = reg.Counter("ddr_resize_need_bytes_total", "Total new-need bytes across elastic resizes.")
		rg.mMovedPct = reg.Gauge("ddr_resize_moved_per_mille", "Share of the latest resize's need that crossed the wire, in 1/1000.")
		rg.metricsSet = true
	}
	rg.mResizes.Add(1)
	rg.mMoved.Add(rep.MovedBytes)
	rg.mRetained.Add(rep.RetainedBytes)
	rg.mNeed.Add(rep.NeedBytes)
	if rep.NeedBytes > 0 {
		rg.mMovedPct.Set(rep.MovedBytes * 1000 / rep.NeedBytes)
	}
}

// Need returns the session's current need box (it changes on Resize).
func (rg *Regridder) Need() grid.Box { return rg.need }

// Abandoned reports whether this rank has resized out of the consumer
// group; an abandoned session accepts no further operations.
func (rg *Regridder) Abandoned() bool { return rg.state == stateAbandoned }

// ResizeCacheStats reports the resize descriptor's plan-cache hits and
// misses (both zero before the first Resize).
func (rg *Regridder) ResizeCacheStats() (hits, misses int64) {
	if rg.resize == nil {
		return 0, 0
	}
	return rg.resize.PlanCacheStats()
}
