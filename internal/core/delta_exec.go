// Execution of delta plans: one executor step (exec.go) that carries
// only the changed-ownership bytes of an elastic resize, under the same
// graceful-degradation contract as ReorganizeData: with a deadline armed,
// peer-loss and timeout failures park the peer on a lost list and the
// call completes with a *PartialError naming the new-need regions that
// never arrived (their cells stay untouched, per the paper's
// incomplete-receive rule).
package core

import (
	"context"
	"fmt"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// deltaTag is the tag of the resize exchange round. It sits in the DDR
// reserved range above the per-round exchange tags so a resize can be
// in flight on a communicator without colliding with steady-state
// redistribution traffic (or with fault schedules that target it).
const deltaTag = ddrTagBase + (1 << 19)

// Exchange executes the resize move fail-fast: oldData holds this rank's
// old need box, newData receives the new one (nil for an empty side).
// Cells of the new need covered by no old rank are left untouched.
func (p *DeltaPlan) Exchange(c *mpi.Comm, oldData, newData []byte) error {
	return p.ExchangeCtx(nil, c, oldData, newData, 0)
}

// ExchangeCtx is Exchange with cancellation and graceful degradation: a
// positive deadline bounds the whole exchange, and within it peer-loss
// or timeout failures degrade the move instead of aborting — the call
// returns a *PartialError whose Missing boxes are the new-need regions
// whose old holder was lost. ctx cancellation always aborts.
func (p *DeltaPlan) ExchangeCtx(ctx context.Context, c *mpi.Comm, oldData, newData []byte, deadline time.Duration) error {
	ctx, ps, cancel, err := beginExchange(ctx, deadline)
	if err != nil {
		return err
	}
	defer cancel()
	if c.Size() != p.nRanks || c.Rank() != p.rank {
		return fmt.Errorf("core: communicator does not match the one the delta plan was compiled for: %w", ErrCommMismatch)
	}
	if want := p.volBytes(p.oldNeed); len(oldData) != want {
		return fmt.Errorf("core: old buffer has %d bytes, box %v needs %d: %w", len(oldData), p.oldNeed, want, ErrBufferSize)
	}
	if want := p.volBytes(p.newNeed); len(newData) != want {
		return fmt.Errorf("core: new buffer has %d bytes, box %v needs %d: %w", len(newData), p.newNeed, want, ErrBufferSize)
	}
	// The plan is immutable and shareable, so each call brings its own
	// executor; the payloads themselves cycle through the arena.
	x := executor{eng: engine{par: 1}}
	err = x.run(&exchange{ctx: ctx, c: c, ps: ps, deadline: deadline},
		p.sched, 1, [][]byte{oldData}, [][]byte{newData})
	if err != nil {
		return err
	}
	return partialError(ps, p.sched)
}

func (p *DeltaPlan) volBytes(b grid.Box) int {
	if boxEmpty(b) {
		return 0
	}
	return b.Volume() * p.elemSize
}
