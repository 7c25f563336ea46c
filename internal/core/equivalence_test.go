package core

import (
	"encoding/json"
	"runtime"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// plansIdentical compares two compiled plans entry by entry — summaries
// (peers, sizes, spans), schedule stats, and the
// self-transfer entries the summary's peer lists exclude.
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
	if want.Stats() != got.Stats() {
		t.Errorf("%s: schedule stats diverge: brute %+v, got %+v", label, want.Stats(), got.Stats())
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

// compilersAgree checks the two discoveries and the oracle against one
// another on one geometry: for every rank, the linear per-rank compile
// (serial and parallel construction) and that rank's plan of the
// whole-schedule compile, bucketed from the index-backed enumerator, must
// both equal the brute-force reference.
func compilersAgree(t *testing.T, label string, elemSize int, chunks [][]grid.Box, needs []grid.Box) {
	t.Helper()
	schedule, err := CompileSchedule(elemSize, chunks, needs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range chunks {
		brute, err := compilePlanBrute(rank, elemSize, chunks, needs)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			linear, err := compilePlan(rank, elemSize, chunks, needs, par)
			if err != nil {
				t.Fatal(err)
			}
			plansIdentical(t, label+"/linear", brute, linear)
		}
		plansIdentical(t, label+"/schedule", brute, schedule[rank])
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

// TestAlltoallwRowsMatchBrute holds the ModeAlltoallw oracle's wire format
// against the reference compiler's: for every round of every rank of every
// golden and degenerate geometry, the dense rows the descriptor derives
// from the plan's step list carry the packed size and contiguity span of
// the brute-force dense tables in every slot — Empty where the pair
// exchanges nothing, the rank's own slot included — and are all Empty
// again once the round is reset.
func TestAlltoallwRowsMatchBrute(t *testing.T) {
	sameSlot := func(got, want datatype.Type) bool {
		gOff, gN, gOK := got.ContiguousSpan()
		wOff, wN, wOK := want.ContiguousSpan()
		return got.PackedSize() == want.PackedSize() && gOff == wOff && gN == wN && gOK == wOK
	}
	for _, gc := range append(goldenCases(), degenerateCase()) {
		t.Run(gc.name, func(t *testing.T) {
			for rank := range gc.needs {
				p, err := compilePlan(rank, gc.elemSize, gc.chunks, gc.needs, 1)
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
				d := &Descriptor{}
				for r := 0; r < p.rounds; r++ {
					rowSend, rowRecv := d.alltoallwRows(p, r)
					for peer := range gc.needs {
						if !sameSlot(rowSend[peer], send[r][peer]) {
							t.Errorf("rank %d round %d: send row slot %d is %v, brute %v", rank, r, peer, rowSend[peer], send[r][peer])
						}
						if !sameSlot(rowRecv[peer], recv[r][peer]) {
							t.Errorf("rank %d round %d: recv row slot %d is %v, brute %v", rank, r, peer, rowRecv[peer], recv[r][peer])
						}
					}
					d.resetAlltoallwRows(p, r)
					for peer := range gc.needs {
						if rowSend[peer] != (datatype.Empty{}) || rowRecv[peer] != (datatype.Empty{}) {
							t.Errorf("rank %d round %d: slot %d not Empty after reset", rank, r, peer)
						}
					}
				}
			}
		})
	}
}
