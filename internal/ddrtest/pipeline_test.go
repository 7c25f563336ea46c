package ddrtest

import (
	"fmt"
	"testing"

	"ddr/internal/chaos"
	"ddr/internal/core"
)

// Pipelined-schedule coverage: the same fill-invariant property as
// TestDDRProperty, swept across explicit pipeline depths (1 = serial
// reference, 2 = the default double buffer, 4 = a deep ring) and the
// chaos schedules, on every transport. Every 4th case additionally arms
// a small memory budget so the pipelined bounded step schedule — the
// composition of PR 9's backend with the depth-k ring — is exercised
// under the same faults. Depth changes only the exchange schedule, so
// nothing about the judgment changes: non-lossy schedules must fill
// every cell, sever may degrade but must report exactly what is missing.

// pipelineBudget is the ceiling armed on the budgeted subsample: well
// above the arena's minimum class (so no generated case is rejected at
// mapping time) but small enough that realistic cases overflow it and
// run the bounded backend.
const pipelineBudget = 4096

// pipelineSchedules returns the chaos schedules the pipelined sweep
// runs: clean, drop, dup, and sever (delay-reorder rides along in the
// main TestDDRProperty sweep, which already runs the default depth).
func pipelineSchedules() []schedule {
	var out []schedule
	for _, sc := range schedules() {
		switch sc.name {
		case "clean", "drop", "dup", "sever":
			out = append(out, sc)
		}
	}
	return out
}

// runOnePipelined executes one (seed, depth, schedule) combination and
// judges it exactly like the main sweep.
func runOnePipelined(t *testing.T, seed uint64, depth int, sc schedule, transport string, budget int) {
	t.Helper()
	tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
	results, err := tc.Run(RunOptions{
		Transport:     transport,
		Injector:      sc.build(&tc),
		Deadline:      sc.deadline,
		Budget:        budget,
		PipelineDepth: depth,
	})
	if err != nil {
		t.Errorf("%v depth %d budget %d under schedule %q (transport=%q): world error: %v\nreproduce: go test ./internal/ddrtest -run TestPipelinedProperty -ddr-seed=%d",
			&tc, depth, budget, sc.name, transport, err, seed)
		return
	}
	for rank, res := range results {
		var cause error
		switch {
		case res.Err != nil:
			cause = fmt.Errorf("rank %d exchange failed: %w", rank, res.Err)
		case res.CheckErr != nil:
			cause = fmt.Errorf("rank %d invariant violated: %w", rank, res.CheckErr)
		case res.Partial != nil && !sc.lossy:
			cause = fmt.Errorf("rank %d degraded under a lossless schedule: %v", rank, res.Partial)
		case budget > 0 && res.PeakStaging > int64(budget):
			cause = fmt.Errorf("rank %d peak staging %d exceeds the %d budget", rank, res.PeakStaging, budget)
		}
		if cause != nil {
			t.Errorf("%v depth %d budget %d under schedule %q (transport=%q): %v\nreproduce: go test ./internal/ddrtest -run TestPipelinedProperty -ddr-seed=%d",
				&tc, depth, budget, sc.name, transport, cause, seed)
		}
	}
}

// TestPipelinedProperty is the pipelined sweep: depths 1/2/4 × the chaos
// schedules × seeded random point-to-point cases on the in-process
// transport, with TCP and shared-memory subsamples, and a
// budgeted subsample that composes pipelining with the bounded backend.
func TestPipelinedProperty(t *testing.T) {
	cases := *flagCases / 4
	if testing.Short() {
		cases = 8
	}
	if cases < 4 {
		cases = 4
	}
	defer checkGoroutines(t)
	for _, depth := range []int{1, 2, 4} {
		for _, sc := range pipelineSchedules() {
			name := fmt.Sprintf("depth%d/%s", depth, sc.name)
			t.Run(name, func(t *testing.T) {
				if *flagSeed >= 0 {
					runOnePipelined(t, uint64(*flagSeed), depth, sc, *flagTransport, 0)
					runOnePipelined(t, uint64(*flagSeed), depth, sc, *flagTransport, pipelineBudget)
					return
				}
				for i := 0; i < cases && !t.Failed(); i++ {
					// A different seed stream from TestDDRProperty's, so
					// the two sweeps explore different geometries.
					seed := uint64(i)*40503 + uint64(depth)*977 + 3
					budget := 0
					if i%4 == 3 {
						budget = pipelineBudget
					}
					runOnePipelined(t, seed, depth, sc, TransportInproc, budget)
					if *flagTCPEvery > 0 && i%*flagTCPEvery == 1 {
						runOnePipelined(t, seed, depth, sc, TransportTCP, budget)
					}
					if *flagShmEvery > 0 && i%*flagShmEvery == 6 {
						runOnePipelined(t, seed, depth, sc, TransportShm, budget)
					}
				}
			})
		}
	}
}

// TestHarnessCatchesPipelinePlantedBug proves the property harness
// detects pipelined buffer-lifetime bugs: arming PerturbPipelineForTest
// on rank 0 — its held receive payloads recycled to the staging arena
// one round early, so a later round's pack staging overwrites them
// before they are scattered — must surface as a fill-invariant
// violation on at least one generated case. The worlds run behind a
// fault injector that injects nothing, where every payload is eager: on
// bare inproc a strided receive lands in its posted parts and leaves no
// payload to hold. Cases whose payloads all ride the contiguous fast path
// (never held) or whose round count never exceeds the depth are
// legitimately inert, so the test sweeps seeds until the bug bites.
func TestHarnessCatchesPipelinePlantedBug(t *testing.T) {
	if raceEnabled {
		t.Skip("the planted bug is a real buffer-lifetime data race; the detector fires before the invariant check can prove its teeth — make verify runs this test without -race")
	}
	caught := false
	for seed := uint64(1); seed <= 80 && !caught; seed++ {
		tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
		results, err := tc.Run(RunOptions{
			Injector:         chaos.New(chaos.Options{}),
			PipelineDepth:    2,
			MutateDescriptor: (*core.Descriptor).PerturbPipelineForTest,
		})
		if err != nil {
			t.Fatalf("seed %d: world error: %v", seed, err)
		}
		for rank, res := range results {
			if res.Err != nil {
				t.Fatalf("seed %d: rank %d exchange error instead of invariant violation: %v", seed, rank, res.Err)
			}
			if res.CheckErr != nil {
				caught = true
			}
		}
	}
	if !caught {
		t.Fatal("planted pipelined buffer-lifetime bug escaped the harness on every seed")
	}
}
