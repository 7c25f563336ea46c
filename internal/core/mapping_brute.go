package core

import (
	"fmt"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// bruteTables is the reference compiler's discovery and construction: it
// intersects every chunk against every peer's need linearly into dense
// (round, peer) type tables, Empty where a pair exchanges nothing, exactly
// as the original implementation of the paper's DDR_SetupDataMapping did.
// These tables are the rows the paper's MPI_Alltoallw takes, one per
// round; TestAlltoallwRowsMatchBrute holds each round's step against them
// slot for slot.
func bruteTables(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (send, recv [][]datatype.Type, err error) {
	nProcs := len(allNeeds)
	rounds := 0
	for _, chunks := range allChunks {
		rounds = max(rounds, len(chunks))
	}
	myChunks, need := allChunks[rank], allNeeds[rank]
	send = make([][]datatype.Type, rounds)
	recv = make([][]datatype.Type, rounds)
	for r := 0; r < rounds; r++ {
		send[r] = make([]datatype.Type, nProcs)
		recv[r] = make([]datatype.Type, nProcs)
		for peer := 0; peer < nProcs; peer++ {
			send[r][peer] = datatype.Empty{}
			recv[r][peer] = datatype.Empty{}
		}
		// Sends: the overlap of my round-r chunk with each peer's need.
		if r < len(myChunks) {
			chunk := myChunks[r]
			for peer := 0; peer < nProcs; peer++ {
				ov, ok := chunk.Intersect(allNeeds[peer])
				if !ok {
					continue
				}
				st, err := datatype.NewSubarray(elemSize, chunk, ov)
				if err != nil {
					return nil, nil, fmt.Errorf("core: send type to rank %d: %w", peer, err)
				}
				send[r][peer] = st
			}
		}
		// Receives: the overlap of each peer's round-r chunk with my need.
		for peer := 0; peer < nProcs; peer++ {
			if r >= len(allChunks[peer]) {
				continue
			}
			ov, ok := allChunks[peer][r].Intersect(need)
			if !ok {
				continue
			}
			rt, err := datatype.NewSubarray(elemSize, need, ov)
			if err != nil {
				return nil, nil, fmt.Errorf("core: recv type from rank %d: %w", peer, err)
			}
			recv[r][peer] = rt
		}
	}
	return send, recv, nil
}

// compilePlanBrute is the reference compiler: bruteTables, then its own
// conversion of the dense tables to the plan's step list — non-empty
// slots in (round, peer) order, contiguity detected per slot. It is
// retained solely as the differential-testing oracle for scheduleCompiler
// — compilePlan and CompileSchedule, its P per-rank compiles, must both
// produce its plans byte for byte on every geometry (see
// TestCompilerEquivalence and the ddrtest sweep) — and as a row of the
// mapping benchmarks. No library path calls it, and it shares neither
// discovery nor layout with the compiler it checks.
func compilePlanBrute(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	send, recv, err := bruteTables(rank, elemSize, allChunks, allNeeds)
	if err != nil {
		return nil, err
	}
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds, encodeWorld(allNeeds, allChunks))
	p := &Plan{
		elemSize:  elemSize,
		rank:      rank,
		nProcs:    len(allNeeds),
		rounds:    len(send),
		myChunks:  allChunks[rank],
		need:      allNeeds[rank],
		needRanks: sc.needRanks,
		world:     sc.world,
		sched:     make([]step, len(send)),
	}
	for r := range p.sched {
		st := &p.sched[r]
		for peer := 0; peer < p.nProcs; peer++ {
			if t, ok := send[r][peer].(*datatype.Subarray); ok && peer != rank {
				st.sends = append(st.sends, bruteMessage(peer, r, bruteSeg(t, r)))
			}
			if t, ok := recv[r][peer].(*datatype.Subarray); ok && peer != rank {
				st.recvs = append(st.recvs, bruteMessage(peer, r, bruteSeg(t, 0)))
			}
		}
		if t, ok := send[r][rank].(*datatype.Subarray); ok {
			st.selfs = []selfMove{{src: bruteSeg(t, r), dst: bruteSeg(recv[r][rank].(*datatype.Subarray), 0)}}
		}
	}
	return p, nil
}

// bruteSeg lifts a dense-table slot into a seg addressing buffer buf.
func bruteSeg(t *datatype.Subarray, buf int) seg {
	off, n, ok := t.ContiguousSpan()
	return seg{buf: buf, t: *t, span: contigSpan{off: off, n: n, ok: ok}}
}

// bruteMessage is round r's single-seg message to or from peer.
func bruteMessage(peer, r int, sg seg) message {
	return message{peer: peer, tag: ddrTagBase + r, bytes: sg.t.PackedSize(), segs: []seg{sg}}
}
