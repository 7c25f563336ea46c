package core

import (
	"errors"
	"fmt"

	"ddr/internal/grid"
)

// Sentinel errors reported by the redistribution API. They are wrapped
// with call-site context, so match with errors.Is rather than equality.
var (
	// ErrNoMapping reports a data exchange attempted before
	// SetupDataMapping compiled a plan.
	ErrNoMapping = errors.New("no data mapping")
	// ErrCommMismatch reports a communicator whose size or rank does not
	// match the one the descriptor or plan was built for.
	ErrCommMismatch = errors.New("communicator mismatch")
	// ErrBufferSize reports owned or need buffers whose count or byte
	// length disagrees with the registered geometry.
	ErrBufferSize = errors.New("buffer size mismatch")
)

// PartialError reports a ReorganizeData exchange that completed for every
// reachable peer but gave up on the listed ones — peers that became
// unreachable or failed to respond within the WithExchangeDeadline bound.
// Regions of the need buffer fed only by healthy peers hold correct data;
// Missing enumerates the need-box regions (in global coordinates) whose
// producing peer was lost, which therefore still hold their pre-exchange
// contents. Cause preserves a representative underlying error, so
// errors.Is(err, mpi.ErrPeerLost) and errors.Is(err, mpi.ErrExchangeTimeout)
// keep working through the wrap.
//
// After a partial completion the communicator must not be reused for DDR
// traffic: abandoned receives and unconsumed messages from the lost peers
// may still be in flight (the same poisoning contract as cancellation,
// see DESIGN.md). Degrade to tear down and rebuild, not to retry in place.
type PartialError struct {
	LostPeers []int      // world ranks given up on, sorted, deduplicated
	Missing   []grid.Box // need-box regions whose data never arrived
	Cause     error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("core: redistribution completed partially; lost peers %v (%d regions missing): %v",
		e.LostPeers, len(e.Missing), e.Cause)
}

func (e *PartialError) Unwrap() error { return e.Cause }
