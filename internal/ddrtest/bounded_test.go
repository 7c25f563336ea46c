package ddrtest

import (
	"flag"
	"fmt"
	"testing"

	"ddr/internal/core"
)

// Bounded-backend property schedule: the same generator, invariant, and
// chaos schedules as TestDDRProperty, but every case runs under a memory
// budget tight enough to push it onto the bounded step compiler. The
// fill invariant must hold and every rank's measured peak staging must
// stay under the budget — under faults and across all transports.

var flagBoundedSeeds = flag.Int("ddr-bounded-seeds", 12,
	"seeded cases per depth row in the bounded property schedule")

// boundedTiers derives the budget ladder for a case from its ranks'
// offline-compiled single-shot footprints: half and an eighth of the
// largest, plus the one-chunk minimum (the smallest arena class). Tiers
// at or above the largest footprint are dropped — every rank would replay
// its rounds and the tier would test nothing new. footprints[r] is rank
// r's own footprint, which decides whether that rank re-packs.
func boundedTiers(t *testing.T, tc *Case) (tiers, footprints []int) {
	t.Helper()
	worst := 0
	for r := range tc.Needs {
		p, err := core.NewPlanFromGeometry(r, tc.ElemSize, tc.Chunks, tc.Needs)
		if err != nil {
			t.Fatalf("%v: offline plan: %v", tc, err)
		}
		footprints = append(footprints, p.SingleShotFootprint())
		worst = max(worst, footprints[r])
	}
	for _, b := range []int{worst / 2, worst / 8, 256} {
		if b < 256 {
			b = 256
		}
		if b >= worst {
			continue
		}
		dup := false
		for _, prev := range tiers {
			dup = dup || prev == b
		}
		if !dup {
			tiers = append(tiers, b)
		}
	}
	return tiers, footprints
}

// runBoundedOne executes one (seed, depth, schedule, transport, budget)
// combination and checks the invariant plus the budget-enforcement
// property: measured peak staging must not exceed the budget on any rank,
// and exactly the ranks whose own footprint exceeds it re-pack.
func runBoundedOne(t *testing.T, seed uint64, depth int, sc schedule, transport string, budget int) {
	t.Helper()
	tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
	_, footprints := boundedTiers(t, &tc)
	results, err := tc.Run(RunOptions{
		Transport:     transport,
		Injector:      sc.build(&tc),
		Deadline:      sc.deadline,
		Budget:        budget,
		PipelineDepth: depth,
	})
	bfail := func(cause error) {
		t.Errorf("%v depth=%d budget=%d under schedule %q (transport=%q): %v\nreproduce: go test ./internal/ddrtest -run TestBoundedProperty -ddr-seed=%d -ddr-transport=%s",
			&tc, depth, budget, sc.name, transport, cause, seed, transport)
	}
	if err != nil {
		bfail(fmt.Errorf("world error: %w", err))
		return
	}
	for rank, res := range results {
		switch {
		case res.Err != nil:
			bfail(fmt.Errorf("rank %d exchange failed: %w", rank, res.Err))
		case res.CheckErr != nil:
			bfail(fmt.Errorf("rank %d invariant violated: %w", rank, res.CheckErr))
		case res.Partial != nil && !sc.lossy:
			bfail(fmt.Errorf("rank %d degraded under a lossless schedule: %v", rank, res.Partial))
		case (res.BoundedSteps > 0) != (footprints[rank] > budget):
			bfail(fmt.Errorf("rank %d ran %d bounded steps at budget %d, its footprint %d", rank, res.BoundedSteps, budget, footprints[rank]))
		case res.PeakStaging > int64(budget):
			bfail(fmt.Errorf("rank %d peak staging %d exceeds budget %d", rank, res.PeakStaging, budget))
		}
	}
}

// TestBoundedProperty sweeps seeded cases × depth rows × chaos
// schedules × budget tiers through the bounded backend on the in-process
// transport, with clean-schedule coverage of the TCP and shared-memory
// transports at the tightest tier.
func TestBoundedProperty(t *testing.T) {
	seeds := *flagBoundedSeeds
	if testing.Short() {
		seeds = 5
	}
	defer checkGoroutines(t)
	for _, row := range propertyRows {
		for _, sc := range schedules() {
			if sc.name == "delay-reorder" {
				continue // covered by TestDDRProperty; keep this sweep's budget on faults that alter delivery
			}
			if row.depth == 1 && sc.lossy {
				continue
			}
			name := fmt.Sprintf("%s/%s", row.name, sc.name)
			t.Run(name, func(t *testing.T) {
				for i := 0; i < seeds && !t.Failed(); i++ {
					seed := uint64(i)*2654435761 + uint64(i) + 1
					if *flagSeed >= 0 {
						seed = uint64(*flagSeed)
					}
					tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
					tiers, _ := boundedTiers(t, &tc)
					for _, budget := range tiers {
						runBoundedOne(t, seed, row.depth, sc, *flagTransport, budget)
					}
					// Tightest tier once per remote transport, clean
					// schedule only (the chaos×transport product belongs to
					// TestDDRProperty; here each wire proves it carries a
					// sliced schedule).
					if sc.name == "clean" && len(tiers) > 0 && *flagTransport == TransportInproc {
						tight := tiers[len(tiers)-1]
						for ti, tr := range []string{TransportTCP, TransportShm} {
							if i%2 == ti {
								runBoundedOne(t, seed, row.depth, sc, tr, tight)
							}
						}
					}
					if *flagSeed >= 0 {
						break
					}
				}
			})
		}
	}
}

// TestHarnessCatchesBoundedPlantedBug proves the bounded property
// schedule has teeth: shifting one receive slice of a compiled bounded
// schedule by one cell (a step-boundary off-by-one) must surface as an
// invariant violation on at least one seed. The wire lengths still
// match, so only the fill check can see it.
func TestHarnessCatchesBoundedPlantedBug(t *testing.T) {
	caught, perturbed := false, false
	for seed := uint64(1); seed <= 40 && !caught; seed++ {
		tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
		tiers, _ := boundedTiers(t, &tc)
		if len(tiers) == 0 {
			continue // footprint already at the floor; no bounded run possible
		}
		applied := false
		results, err := tc.Run(RunOptions{
			Budget: tiers[len(tiers)-1],
			Mutate: func(p *core.Plan) { applied = p.PerturbBoundedForTest() },
		})
		if err != nil {
			t.Fatalf("seed %d: world error: %v", seed, err)
		}
		if !applied {
			continue // no shiftable receive slice in this case
		}
		perturbed = true
		for _, res := range results {
			if res.CheckErr != nil {
				caught = true
			}
			if res.Err != nil {
				t.Fatalf("seed %d: exchange error instead of invariant violation: %v", seed, res.Err)
			}
		}
	}
	if !perturbed {
		t.Fatal("no generated case offered a perturbable bounded schedule")
	}
	if !caught {
		t.Fatal("planted bounded off-by-one escaped the harness")
	}
}
