package mpi

import (
	"encoding/binary"
	"fmt"
	"time"

	"ddr/internal/trace"
)

// Distributed trace assembly. After an exchange (or a whole run), every
// rank calls GatherTrace collectively: rank 0 first estimates each peer's
// clock offset with a short ping-pong exchange against the recorders'
// own timebases, then gathers every rank's span summaries over the
// ordinary Gather collective and shifts them into its own timebase. The
// result is one merged timeline whose cross-rank orderings are honest to
// within the measured round-trip noise.

// traceSyncRounds is the number of ping-pong iterations per peer; the
// offset from the minimum-RTT iteration wins (NTP's classic filter — the
// fastest exchange is the one least polluted by queueing).
const traceSyncRounds = 4

// MergedTrace is the rank-0 result of GatherTrace.
type MergedTrace struct {
	// Events holds every rank's spans, with Start shifted into rank 0's
	// timebase. Unsorted; renderers sort.
	Events []trace.Event
	// Offsets[r] estimates rank r's recorder clock minus rank 0's at
	// gather time (Offsets[0] is 0).
	Offsets []time.Duration
	// RTTs[r] is the minimum observed ping-pong round trip against rank
	// r — the uncertainty bound on Offsets[r].
	RTTs []time.Duration
}

// GatherTrace assembles the world's merged timeline at rank 0. Collective
// over c: every rank must call it with its own recorder (recorders may be
// shared between ranks in in-process worlds; each rank contributes only
// the events carrying its world rank, so nothing is double-counted).
// Returns the merged trace at rank 0 and nil elsewhere. A nil recorder
// participates in the sync and contributes no events.
func GatherTrace(c *Comm, rec *trace.Recorder) (*MergedTrace, error) {
	n := c.Size()
	rank := c.Rank()
	tag := c.nextCollTag()

	var merged *MergedTrace
	if rank == 0 {
		merged = &MergedTrace{
			Offsets: make([]time.Duration, n),
			RTTs:    make([]time.Duration, n),
		}
	}

	// Phase 1: clock offsets, rank 0 against each peer in rank order. All
	// other ranks idle through the iterations that are not theirs; the
	// pairwise messages are matched by (src, tag) so no cross-talk is
	// possible on the shared collective tag.
	var pong [8]byte
	for r := 1; r < n; r++ {
		switch rank {
		case 0:
			best := time.Duration(1<<63 - 1)
			var off time.Duration
			for k := 0; k < traceSyncRounds; k++ {
				t0 := rec.Now()
				if err := c.send(nil, r, tag, nil, nil, nil); err != nil {
					return nil, fmt.Errorf("mpi: trace sync ping to rank %d: %w", r, err)
				}
				data, _, _, err := c.recvInternal(nil, r, tag)
				if err != nil {
					return nil, fmt.Errorf("mpi: trace sync pong from rank %d: %w", r, err)
				}
				t1 := rec.Now()
				if len(data) != 8 {
					return nil, fmt.Errorf("mpi: trace sync pong from rank %d: %d bytes", r, len(data))
				}
				theirs := time.Duration(binary.LittleEndian.Uint64(data))
				PutBuffer(data)
				if rtt := t1 - t0; rtt < best {
					best = rtt
					// Their clock read happened, on average, at our midpoint.
					off = theirs - (t0 + (t1-t0)/2)
				}
			}
			merged.Offsets[r] = off
			merged.RTTs[r] = best
		case r:
			for k := 0; k < traceSyncRounds; k++ {
				data, _, _, err := c.recvInternal(nil, 0, tag)
				if err != nil {
					return nil, fmt.Errorf("mpi: trace sync ping from rank 0: %w", err)
				}
				PutBuffer(data)
				binary.LittleEndian.PutUint64(pong[:], uint64(rec.Now()))
				if err := c.send(nil, 0, tag, pong[:], nil, nil); err != nil {
					return nil, fmt.Errorf("mpi: trace sync pong to rank 0: %w", err)
				}
			}
		}
	}

	// Phase 2: gather span summaries. Each rank ships only the events
	// attributed to its own world rank — with a shared in-process recorder
	// every rank sees everyone's events, and this filter is what keeps the
	// merge duplicate-free.
	self := c.WorldRank(rank)
	var mine []trace.Event
	if rec != nil {
		for _, e := range rec.Events() {
			if e.Rank == self {
				mine = append(mine, e)
			}
		}
	}
	gathered, err := c.Gather(0, trace.EncodeEvents(mine))
	if err != nil {
		return nil, fmt.Errorf("mpi: trace gather: %w", err)
	}
	if rank != 0 {
		return nil, nil
	}
	for r, buf := range gathered {
		events, err := trace.DecodeEvents(buf)
		if err != nil {
			return nil, fmt.Errorf("mpi: trace gather from rank %d: %w", r, err)
		}
		off := merged.Offsets[r]
		for _, e := range events {
			e.Start -= off // their timebase minus their lead = ours
			merged.Events = append(merged.Events, e)
		}
	}
	return merged, nil
}
