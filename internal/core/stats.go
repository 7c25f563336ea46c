package core

import (
	"fmt"

	"ddr/internal/grid"
)

// ScheduleStats summarizes the communication schedule of a Plan. All byte
// counts refer to data crossing between distinct ranks; data a rank keeps
// for itself (its owned chunk overlapping its own need) is reported
// separately as SelfBytes. These are the quantities behind the paper's
// Table III ("number of rounds" and "data size sent and received per
// process per round").
type ScheduleStats struct {
	Rounds int
	Ranks  int

	// TotalWireBytes is the sum over all rounds and rank pairs of data
	// actually transmitted.
	TotalWireBytes int64
	// SelfBytes is the total data satisfied locally without transmission.
	SelfBytes int64

	// PerRankRoundAvg is TotalWireBytes averaged over every (rank, round)
	// slot in which the rank owns a chunk — the per-process-per-round data
	// size of Table III.
	PerRankRoundAvg float64
	// PerRankRoundMax is the largest number of bytes any single rank sends
	// in any single round.
	PerRankRoundMax int64

	// MaxPeersPerRound is the largest number of distinct destinations any
	// rank addresses in one round — the sparsity measure motivating the
	// paper's point-to-point future work.
	MaxPeersPerRound int
}

// String renders the stats in the shape of a Table III row.
func (s ScheduleStats) String() string {
	return fmt.Sprintf("rounds=%d avg=%.2f MB/rank/round max=%.2f MB self=%.2f MB",
		s.Rounds, float64(s.PerRankRoundAvg)/1e6, float64(s.PerRankRoundMax)/1e6, float64(s.SelfBytes)/1e6)
}

// Stats computes the schedule statistics of the plan's world: what every
// rank's plan moves, from the compiler's own discovery and ownership rule,
// without building a datatype. Because every rank holds the full gathered
// geometry, the computation is local and deterministic — all ranks obtain
// identical values. It decodes the world afresh on every call.
func (p *Plan) Stats() ScheduleStats {
	s := ScheduleStats{Rounds: p.rounds, Ranks: p.nProcs}
	allChunks, allNeeds := p.boxes()
	sc := newScheduleCompiler(p.elemSize, allChunks, allNeeds, nil)
	activeSlots := 0
	var jobs []typeJob
	for rank := range p.nProcs {
		activeSlots += len(allChunks[rank])
		var nSend int
		var contested []bool
		jobs, nSend, contested = sc.discover(rank, jobs)
		sends := jobs[:nSend]
		var pieces []grid.Box
		if contested != nil {
			sends, pieces = sc.cut(rank, sends, false, contested, nil)
		}
		// sends arrive round-major: one pass per round.
		for i := 0; i < len(sends); {
			var sent int64
			peers := 0
			for r := sends[i].r; i < len(sends) && sends[i].r == r; i++ {
				j := &sends[i]
				cells := j.region.Volume()
				if j.nFrag > 0 {
					cells = 0
					for _, b := range pieces[j.frag : j.frag+j.nFrag] {
						cells += b.Volume()
					}
				}
				bytes := int64(cells) * int64(p.elemSize)
				if j.peer == rank {
					s.SelfBytes += bytes
					continue
				}
				peers++
				sent += bytes
			}
			s.TotalWireBytes += sent
			s.PerRankRoundMax = max(s.PerRankRoundMax, sent)
			s.MaxPeersPerRound = max(s.MaxPeersPerRound, peers)
		}
	}
	if activeSlots > 0 {
		s.PerRankRoundAvg = float64(s.TotalWireBytes) / float64(activeSlots)
	}
	return s
}

// RoundSendBytes returns the bytes this rank's plan transmits to other
// ranks in round r.
func (p *Plan) RoundSendBytes(r int) int64 {
	var n int64
	for _, m := range p.sched[r].sends {
		n += int64(m.bytes)
	}
	return n
}

// ReceivedBytes returns the bytes this rank's plan receives from other
// ranks per exchange.
func (p *Plan) ReceivedBytes() int64 {
	var n int64
	for i := range p.sched {
		for _, m := range p.sched[i].recvs {
			n += int64(m.bytes)
		}
	}
	return n
}

// RetainedBytes returns the bytes this rank's plan copies from its own
// chunks into its need box per exchange: what it already held.
func (p *Plan) RetainedBytes() int64 {
	var n int64
	for i := range p.sched {
		for _, sf := range p.sched[i].selfs {
			n += int64(sf.dst.t.PackedSize())
		}
	}
	return n
}

// NeedRanks returns how many ranks of the plan's world need a non-empty
// box — after a resize, the size of the new group.
func (p *Plan) NeedRanks() int { return p.needRanks }

// boxes decodes the plan's world into a fresh table: every rank's chunks
// and need box. The plan was compiled from these very encodings, so they
// decode.
func (p *Plan) boxes() (allChunks [][]grid.Box, allNeeds []grid.Box) {
	allNeeds, allChunks, err := decodeGeometries(p.world)
	if err != nil {
		panic(fmt.Sprintf("core: a plan's own geometry does not decode: %v", err))
	}
	return allChunks, allNeeds
}
