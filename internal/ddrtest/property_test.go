package ddrtest

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ddr/internal/chaos"
	"ddr/internal/core"
	"ddr/internal/mpi"
)

// Harness flags. A failing run prints the exact command that reproduces
// it:
//
//	go test ./internal/ddrtest -run TestDDRProperty -ddr-seed=N
var (
	flagSeed = flag.Int64("ddr-seed", -1,
		"run only this case seed (every row and schedule) instead of the sweep")
	flagCases = flag.Int("ddr-cases", 200,
		"randomized cases per depth row per chaos schedule")
	flagMaxProcs = flag.Int("ddr-max-procs", 5,
		"largest world size the generator may pick")
	flagMaxExtent = flag.Int("ddr-max-extent", 20,
		"largest domain extent per axis the generator may pick")
	flagTCPEvery = flag.Int("ddr-tcp-every", 16,
		"run every Nth case on the TCP transport as well (0 disables)")
	flagShmEvery = flag.Int("ddr-shm-every", 16,
		"run every Nth case on the shared-memory transport as well (0 disables)")
	flagTransport = flag.String("ddr-transport", "",
		"transport for -ddr-seed reproductions: \"\" (in-process), tcp, or shm")
)

// severDeadline bounds exchanges under sever schedules so lost peers
// surface as partial completions instead of hangs.
const severDeadline = 5 * time.Second

// schedule pairs a chaos configuration with how the harness must judge
// its outcome.
type schedule struct {
	name string
	// build constructs the injector for a case (nil = fault-free). Sever
	// schedules target concrete ranks, so they see the case.
	build func(tc *Case) mpi.FaultInjector
	// deadline, when set, arms graceful degradation.
	deadline time.Duration
	// lossy marks schedules that may legitimately end in partial
	// completion; non-lossy schedules must complete fully on every rank.
	lossy bool
}

// Schedules. The recoverable ones set TagFloor = 0 and fault everything —
// the mapping collectives included — which recoverable faults must
// survive; sever sets TagFloor = core.ExchangeTagBase so the mapping runs
// clean and only exchange traffic is cut.
func schedules() []schedule {
	return []schedule{
		{name: "clean", build: func(*Case) mpi.FaultInjector { return nil }},
		{name: "drop", build: func(tc *Case) mpi.FaultInjector {
			return chaos.New(chaos.Options{Seed: tc.Seed, DropProb: 0.08})
		}},
		{name: "delay-reorder", build: func(tc *Case) mpi.FaultInjector {
			return chaos.New(chaos.Options{
				Seed: tc.Seed, DelayProb: 0.2, DelayMax: 500 * time.Microsecond,
				ReorderProb: 0.15, StallProb: 0.02, StallFor: 2 * time.Millisecond,
			})
		}},
		{name: "dup", build: func(tc *Case) mpi.FaultInjector {
			return chaos.New(chaos.Options{Seed: tc.Seed, DupProb: 0.15, DelayProb: 0.1})
		}},
		{name: "sever", lossy: true, deadline: severDeadline, build: func(tc *Case) mpi.FaultInjector {
			// Cut one deterministic link a few exchange messages in. The
			// tag floor confines the cut to DDR exchange traffic, so the
			// mapping completes and the loss surfaces as a PartialError.
			from := int(tc.Seed % uint64(tc.NProcs))
			to := int((tc.Seed / 7) % uint64(tc.NProcs))
			if to == from {
				to = (to + 1) % tc.NProcs
			}
			return chaos.New(chaos.Options{
				Seed:     tc.Seed,
				TagFloor: core.ExchangeTagBase,
				Severs:   []chaos.Sever{{From: from, To: to, After: tc.Seed % 3}},
			})
		}},
	}
}

// depthRow is one exchange configuration of the property sweeps, kept
// under the subtest name it had when the sweeps ran each exchange mode.
type depthRow struct {
	name  string
	depth int
}

// propertyRows: "alltoallw" is the paper's round — one MPI_Alltoallw
// there, one step run at depth 1 here — and "point-to-point" the default
// depth. The depth-1 row skips the lossy schedules, which
// TestPipelinedProperty runs at depth 1.
var propertyRows = []depthRow{
	{"alltoallw", 1},
	{"point-to-point", core.DefaultPipelineDepth},
}

// runOne executes one (seed, depth, schedule) combination and fails the
// test with a reproduction command if the invariant does not hold.
func runOne(t *testing.T, seed uint64, depth int, sc schedule, transport string) {
	t.Helper()
	tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
	results, err := tc.Run(RunOptions{
		Transport:     transport,
		Injector:      sc.build(&tc),
		Deadline:      sc.deadline,
		PipelineDepth: depth,
	})
	if err != nil {
		fail(t, &tc, depth, sc, transport, fmt.Errorf("world error: %w", err))
		return
	}
	for rank, res := range results {
		switch {
		case res.Err != nil:
			fail(t, &tc, depth, sc, transport, fmt.Errorf("rank %d exchange failed: %w", rank, res.Err))
		case res.CheckErr != nil:
			fail(t, &tc, depth, sc, transport, fmt.Errorf("rank %d invariant violated: %w", rank, res.CheckErr))
		case res.Partial != nil && !sc.lossy:
			fail(t, &tc, depth, sc, transport, fmt.Errorf("rank %d degraded under a lossless schedule: %v", rank, res.Partial))
		}
	}
}

// fail reports a violation together with the minimal reproduction found
// by shrinking the generator bounds for the same seed.
func fail(t *testing.T, tc *Case, depth int, sc schedule, transport string, cause error) {
	t.Helper()
	procs, extent := shrink(tc.Seed, depth, sc, transport)
	t.Errorf("%v depth %d under schedule %q (transport=%q): %v\nreproduce: go test ./internal/ddrtest -run TestDDRProperty -ddr-seed=%d -ddr-max-procs=%d -ddr-max-extent=%d -ddr-transport=%s",
		tc, depth, sc.name, transport, cause, tc.Seed, procs, extent, transport)
}

// shrink re-runs the failing seed with progressively tighter generator
// bounds and returns the smallest (maxProcs, maxExtent) that still fails,
// so the reproduction command builds the least case that shows the bug.
func shrink(seed uint64, depth int, sc schedule, transport string) (procs, extent int) {
	procs, extent = *flagMaxProcs, *flagMaxExtent
	fails := func(p, e int) bool {
		tc := GenCase(seed, p, e)
		results, err := tc.Run(RunOptions{Transport: transport, Injector: sc.build(&tc), Deadline: sc.deadline, PipelineDepth: depth})
		if err != nil {
			return true
		}
		for _, res := range results {
			if res.Err != nil || res.CheckErr != nil || (res.Partial != nil && !sc.lossy) {
				return true
			}
		}
		return false
	}
	for procs > 2 && fails(procs-1, extent) {
		procs--
	}
	for extent > 4 && fails(procs, extent-1) {
		extent--
	}
	return procs, extent
}

// TestDDRProperty is the harness sweep: for both depth rows and every
// chaos schedule it runs the configured number of seeded random cases
// (default 200, reduced under -short) on the in-process transport, plus
// TCP and shared-memory subsamples, and requires the redistribution
// invariant to hold.
func TestDDRProperty(t *testing.T) {
	cases := *flagCases
	if testing.Short() {
		cases = 25
	}
	defer checkGoroutines(t)
	for _, row := range propertyRows {
		for _, sc := range schedules() {
			if row.depth == 1 && sc.lossy {
				continue
			}
			name := fmt.Sprintf("%s/%s", row.name, sc.name)
			t.Run(name, func(t *testing.T) {
				if *flagSeed >= 0 {
					runOne(t, uint64(*flagSeed), row.depth, sc, *flagTransport)
					return
				}
				for i := 0; i < cases && !t.Failed(); i++ {
					seed := uint64(i)*2654435761 + uint64(i) + 1
					runOne(t, seed, row.depth, sc, TransportInproc)
					// Subsample the heavier transports on offset strides so
					// no two sweeps hit the same case indices.
					if *flagTCPEvery > 0 && i%*flagTCPEvery == 0 {
						runOne(t, seed, row.depth, sc, TransportTCP)
					}
					if *flagShmEvery > 0 && i%*flagShmEvery == 5 {
						runOne(t, seed, row.depth, sc, TransportShm)
					}
				}
			})
		}
	}
}

// TestHarnessCatchesPlantedBug proves the harness has teeth: a one-element
// perturbation of a compiled overlap span (an injected overlap-math bug)
// must surface as an invariant violation on at least one seed.
func TestHarnessCatchesPlantedBug(t *testing.T) {
	caught, perturbed := false, false
	for seed := uint64(1); seed <= 40 && !caught; seed++ {
		tc := GenCase(seed, *flagMaxProcs, *flagMaxExtent)
		applied := false
		results, err := tc.Run(RunOptions{
			Mutate: func(p *core.Plan) { applied = p.PerturbPlanForTest() },
		})
		if err != nil {
			t.Fatalf("seed %d: world error: %v", seed, err)
		}
		if !applied {
			continue // no contiguous span to perturb in this case
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
		t.Fatal("no generated case offered a perturbable plan entry")
	}
	if !caught {
		t.Fatal("planted overlap-math bug escaped the harness")
	}
}

// checkGoroutines is the harness's leak check: after all worlds have shut
// down, the goroutine count must return to (near) its starting point.
// Retries absorb goroutines still unwinding from closed worlds.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutine leak: %d running, started with %d\n%s", n, base, buf)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
