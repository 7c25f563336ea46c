package ddrtest

import (
	"encoding/json"
	"testing"

	"ddr/internal/core"
	"ddr/internal/grid"
)

// TestCompilerEquivalenceSweep differentially tests the compiler and the
// oracle over seeded random geometries — random tilings, uneven chunk
// counts, needs poking past the domain and, on every other seed, a rank
// stripped of its chunks, zero-extent chunks and a zero-extent need. For
// every rank the per-rank compiler (what SetupDataMapping runs) and the
// whole-schedule compiler (the same compile, fanned out across ranks)
// must both produce the brute-force reference's plan, and Stats must
// read what the brute-force plans move. Run under -race this also shakes
// down the rank-per-worker fan-out.
func TestCompilerEquivalenceSweep(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	same := func(tc *Case, label string, rank int, brute, got *core.Plan) {
		t.Helper()
		want, err := json.Marshal(brute.Summary())
		if err != nil {
			t.Fatal(err)
		}
		have, err := json.Marshal(got.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if string(have) != string(want) {
			t.Fatalf("%v rank %d %s: plan diverges from brute force\nbrute: %s\ngot:   %s", tc, rank, label, want, have)
		}
	}
	for seed := 0; seed < seeds; seed++ {
		tc := GenCase(uint64(seed), 12, 24)
		if seed%2 == 1 {
			nd := tc.Layout.NDims()
			empty := grid.MustBox(make([]int, nd), make([]int, nd))
			tc.Chunks[0] = nil
			tc.Chunks[1] = append([]grid.Box{empty}, tc.Chunks[1]...)
			tc.Chunks[tc.NProcs-1] = append(tc.Chunks[tc.NProcs-1], empty)
			tc.Needs[seed%tc.NProcs] = empty
		}
		schedule, err := core.CompileSchedule(tc.ElemSize, tc.Chunks, tc.Needs, 2)
		if err != nil {
			t.Fatalf("%v: schedule: %v", &tc, err)
		}
		var wire, self, roundMax int64
		for rank := 0; rank < tc.NProcs; rank++ {
			brute, err := core.CompileBruteForTest(rank, tc.ElemSize, tc.Chunks, tc.Needs)
			if err != nil {
				t.Fatalf("%v rank %d: brute: %v", &tc, rank, err)
			}
			linear, err := core.NewPlanFromGeometry(rank, tc.ElemSize, tc.Chunks, tc.Needs)
			if err != nil {
				t.Fatalf("%v rank %d: %v", &tc, rank, err)
			}
			same(&tc, "linear", rank, brute, linear)
			same(&tc, "schedule", rank, brute, schedule[rank])
			wire += brute.ReceivedBytes()
			self += brute.RetainedBytes()
			for r := 0; r < brute.Rounds(); r++ {
				roundMax = max(roundMax, brute.RoundSendBytes(r))
			}
		}
		if s := schedule[0].Stats(); s.TotalWireBytes != wire || s.SelfBytes != self || s.PerRankRoundMax != roundMax {
			t.Fatalf("%v: Stats reads wire %d, self %d, round max %d; the brute-force plans move %d, %d, %d",
				&tc, s.TotalWireBytes, s.SelfBytes, s.PerRankRoundMax, wire, self, roundMax)
		}
	}
}

// TestCacheReuseSchedule runs the three-pass cache-reuse schedule over a
// few seeds: identical geometry twice (one compile, one hit) plus a
// perturbed geometry (a second compile), all passes preserving the fill
// invariant.
func TestCacheReuseSchedule(t *testing.T) {
	for _, seed := range []uint64{3, 11, 27} {
		tc := GenCase(seed, 6, 20)
		results, err := tc.RunCacheReuse(false)
		if err != nil {
			t.Fatalf("%v: %v", &tc, err)
		}
		for rank, res := range results {
			for pass, cerr := range res.CheckErrs {
				if cerr != nil {
					t.Errorf("%v rank %d pass %d: %v", &tc, rank, pass, cerr)
				}
			}
			if res.Hits != 1 || res.Misses != 2 {
				t.Errorf("%v rank %d: %d hits / %d misses, want 1 / 2", &tc, rank, res.Hits, res.Misses)
			}
		}
	}
}

// TestCacheReuseCatchesStalePlan plants a corrupted cached plan on rank 0
// (via PerturbPlanForTest) between the cold and warm passes. The warm
// pass replays the poisoned plan, and the invariant check must flag the
// misplaced data — proving the harness would catch a stale-cache bug such
// as a hit returning a plan for the wrong geometry.
func TestCacheReuseCatchesStalePlan(t *testing.T) {
	applied, caught := false, false
	for seed := uint64(1); seed <= 40 && !caught; seed++ {
		tc := GenCase(seed, 6, 20)
		results, err := tc.RunCacheReuse(true)
		if err != nil {
			t.Fatalf("%v: %v", &tc, err)
		}
		if !results[0].PerturbApplied {
			continue // no shiftable span in this plan; try the next seed
		}
		applied = true
		if results[0].CheckErrs[0] != nil {
			t.Fatalf("%v: cold pass dirty before perturbation: %v", &tc, results[0].CheckErrs[0])
		}
		if results[0].CheckErrs[1] != nil {
			caught = true
		}
	}
	if !applied {
		t.Fatal("no seed produced a perturbable plan; the stale-cache property was never exercised")
	}
	if !caught {
		t.Fatal("no warm pass surfaced the corrupted cached plan; the stale-cache bug escaped")
	}
}
