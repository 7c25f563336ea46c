package core

import (
	"encoding/json"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// plansIdentical compares two compiled plans entry by entry — summaries
// (peers, sizes, spans) and the self-transfer entries the summary's peer
// lists exclude.
func plansIdentical(t *testing.T, label string, want, got *Plan) {
	t.Helper()
	wj, err := json.Marshal(want.Summary())
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Errorf("%s: plan summary diverges from brute force\nbrute: %s\ngot:   %s", label, wj, gj)
		return
	}
	for r := range want.sched {
		ws, gs := want.sched[r].selfs, got.sched[r].selfs
		if len(ws) != len(gs) {
			t.Errorf("%s: round %d has %d self moves, brute %d", label, r, len(gs), len(ws))
			continue
		}
		for i := range ws {
			side := func(name string, w, g seg) {
				if w.t.PackedSize() != g.t.PackedSize() || w.span != g.span || w.buf != g.buf {
					t.Errorf("%s: round %d self-%s is %d bytes, span %+v, buf %d; brute %d bytes, span %+v, buf %d",
						label, r, name, g.t.PackedSize(), g.span, g.buf, w.t.PackedSize(), w.span, w.buf)
				}
			}
			side("send", ws[i].src, gs[i].src)
			side("recv", ws[i].dst, gs[i].dst)
		}
	}
}

// compilersAgree checks the compiler and the oracle against one another
// on one geometry: for every rank, the per-rank compile and that rank's
// plan of the whole-schedule compile (the same compile, fanned out across
// ranks) must both equal the brute-force reference. Stats, read from the
// compiler's discovery and rule, must equal what the brute-force plans
// move.
func compilersAgree(t *testing.T, label string, elemSize int, chunks [][]grid.Box, needs []grid.Box) {
	t.Helper()
	schedule, err := CompileSchedule(elemSize, chunks, needs, 2)
	if err != nil {
		t.Fatal(err)
	}
	brutes := make([]*Plan, len(chunks))
	for rank := range chunks {
		brute, err := compilePlanBrute(rank, elemSize, chunks, needs)
		if err != nil {
			t.Fatal(err)
		}
		linear, err := compilePlan(rank, elemSize, chunks, needs)
		if err != nil {
			t.Fatal(err)
		}
		plansIdentical(t, label+"/linear", brute, linear)
		plansIdentical(t, label+"/schedule", brute, schedule[rank])
		brutes[rank] = brute
	}
	if got, want := schedule[0].Stats(), planStats(brutes); got != want {
		t.Errorf("%s: Stats reads %#v, the brute-force plans move %#v", label, got, want)
	}
}

// TestCompilerEquivalenceGolden proves the compilers are plan-preserving
// on the golden geometries: linear = schedule = brute force, for every
// rank of every golden case.
func TestCompilerEquivalenceGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			compilersAgree(t, gc.name, gc.elemSize, gc.chunks, gc.needs)
		})
	}
}

// TestCompilerEquivalenceDegenerate exercises the shapes discovery must
// not mishandle: ranks owning nothing, zero-extent chunks and needs (the
// index drops them at build time; the scan must find they intersect
// nothing), and needs entirely outside the owned domain.
func TestCompilerEquivalenceDegenerate(t *testing.T) {
	gc := degenerateCase()
	compilersAgree(t, gc.name, gc.elemSize, gc.chunks, gc.needs)
}

// degenerateCase is the first golden geometry bent into the shapes above.
func degenerateCase() goldenCase {
	gc := goldenCases()[0]
	nd := gc.needs[0].NDims
	empty := grid.MustBox(make([]int, nd), make([]int, nd))
	chunks := append([][]grid.Box{}, gc.chunks...)
	chunks[1] = nil // a rank with no data
	chunks[0] = append([]grid.Box{empty}, chunks[0]...)
	chunks[3] = append(append([]grid.Box{}, chunks[3]...), empty)
	needs := append([]grid.Box{}, gc.needs...)
	needs[2] = grid.MustBox([]int{1000}, []int{16}) // a need nothing covers
	needs[3] = empty
	gc.name, gc.chunks, gc.needs = "degenerate", chunks, needs
	return gc
}

// alltoallwRows lays round r's step out as the paper's MPI_Alltoallw
// would take it: one datatype per peer, each message's seg in its peer's
// slot, the local move in the rank's own, Empty where the pair exchanges
// nothing. A slot with more than one seg (a contested overlap's
// fragments) keeps the last; the callers' geometries have none.
func alltoallwRows(p *Plan, r int) (rowSend, rowRecv []datatype.Type) {
	rowSend = make([]datatype.Type, p.nProcs)
	rowRecv = make([]datatype.Type, p.nProcs)
	for i := range rowSend {
		rowSend[i], rowRecv[i] = datatype.Empty{}, datatype.Empty{}
	}
	st := &p.sched[r]
	for i := range st.selfs {
		rowSend[p.rank], rowRecv[p.rank] = &st.selfs[i].src.t, &st.selfs[i].dst.t
	}
	for _, m := range st.sends {
		for k := range m.segs {
			rowSend[m.peer] = &m.segs[k].t
		}
	}
	for _, m := range st.recvs {
		for k := range m.segs {
			rowRecv[m.peer] = &m.segs[k].t
		}
	}
	return rowSend, rowRecv
}

// TestAlltoallwRowsMatchBrute holds each round's step against the
// brute-force dense tables, the rows the paper's MPI_Alltoallw takes: for
// every round of every rank of every golden and degenerate geometry, the
// step laid out per peer carries the packed size and contiguity span of
// the brute-force table in every slot — Empty where the pair exchanges
// nothing, the rank's own slot included. compilersAgree compares the same
// schedule with compilePlanBrute's step list; this reads the tables
// before that conversion.
func TestAlltoallwRowsMatchBrute(t *testing.T) {
	sameSlot := func(got, want datatype.Type) bool {
		gOff, gN, gOK := got.ContiguousSpan()
		wOff, wN, wOK := want.ContiguousSpan()
		return got.PackedSize() == want.PackedSize() && gOff == wOff && gN == wN && gOK == wOK
	}
	for _, gc := range append(goldenCases(), degenerateCase()) {
		t.Run(gc.name, func(t *testing.T) {
			for rank := range gc.needs {
				p, err := compilePlan(rank, gc.elemSize, gc.chunks, gc.needs)
				if err != nil {
					t.Fatal(err)
				}
				send, recv, err := bruteTables(rank, gc.elemSize, gc.chunks, gc.needs)
				if err != nil {
					t.Fatal(err)
				}
				if len(send) != p.rounds {
					t.Fatalf("rank %d: %d rounds, brute %d", rank, p.rounds, len(send))
				}
				for r := 0; r < p.rounds; r++ {
					rowSend, rowRecv := alltoallwRows(p, r)
					for peer := range gc.needs {
						if !sameSlot(rowSend[peer], send[r][peer]) {
							t.Errorf("rank %d round %d: send slot %d is %v, brute %v", rank, r, peer, rowSend[peer], send[r][peer])
						}
						if !sameSlot(rowRecv[peer], recv[r][peer]) {
							t.Errorf("rank %d round %d: recv slot %d is %v, brute %v", rank, r, peer, rowRecv[peer], recv[r][peer])
						}
					}
				}
			}
		})
	}
}
