package core

import (
	"encoding/json"
	"runtime"
	"testing"

	"ddr/internal/grid"
)

// plansIdentical compares two compiled plans entry by entry — summaries
// (peers, sizes, spans, fused schedule), schedule stats, and the
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
	for r := 0; r < want.rounds; r++ {
		rank := want.rank
		wst, wss := want.sendE.at(r, rank)
		gst, gss := got.sendE.at(r, rank)
		wrt, wrs := want.recvE.at(r, rank)
		grt, grs := got.recvE.at(r, rank)
		if w, g := wst.PackedSize(), gst.PackedSize(); w != g {
			t.Errorf("%s: round %d self-send size %d != brute %d", label, r, g, w)
		}
		if w, g := wrt.PackedSize(), grt.PackedSize(); w != g {
			t.Errorf("%s: round %d self-recv size %d != brute %d", label, r, g, w)
		}
		if w, g := wss, gss; w != g {
			t.Errorf("%s: round %d self-send span %+v != brute %+v", label, r, g, w)
		}
		if w, g := wrs, grs; w != g {
			t.Errorf("%s: round %d self-recv span %+v != brute %+v", label, r, g, w)
		}
	}
}

// compilePlanIndexed compiles one rank's plan with freshly built spatial
// indexes — the discovery strategy CompileSchedule shares across ranks,
// applied to a single compile.
func compilePlanIndexed(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	return newScheduleCompiler(elemSize, allChunks, allNeeds, true).compile(rank, 1)
}

// compilersAgree checks the three discovery strategies against one
// another on one geometry: for every rank, the linear per-rank compile
// (serial and parallel construction), the whole-schedule indexed compile
// and a single indexed compile must all equal the brute-force reference.
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
		indexed, err := compilePlanIndexed(rank, elemSize, chunks, needs)
		if err != nil {
			t.Fatal(err)
		}
		plansIdentical(t, label+"/indexed", brute, indexed)
	}
}

// TestCompilerEquivalenceGolden proves the compilers are plan-preserving
// on the golden geometries: linear = indexed = brute force, for every
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
	compilersAgree(t, "degenerate", gc.elemSize, chunks, needs)
}
