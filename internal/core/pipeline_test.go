package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Differential tests of the pipelined exchange engine. The ground truth
// is the same brute-force oracle the bounded sweep uses: pipelining only
// reschedules the rounds, so every (depth, mode, budget) point must stay
// byte-identical to the serial output — and, when a budget is armed, the
// measured peak staging must stay under the ceiling even with k rounds
// of receive payloads in flight.

// runPipeWorld runs one (case, mode, depth, budget) configuration and
// byte-compares every rank's output against the brute oracle. budget 0
// runs unmetered; mutate, when non-nil, runs on rank 0's descriptor
// after mapping setup. Returns the number of ranks whose output diverged
// (0 for a healthy run; planted-bug tests expect > 0).
func (bc *boundedCase) runPipeWorld(t *testing.T, mode ExchangeMode, depth, budget int,
	mutate func(*Descriptor), checkRank func(rank int, d *Descriptor) error) int {
	t.Helper()
	own := bc.ownData()
	oracle := make([][]byte, bc.nProcs)
	for r := 0; r < bc.nProcs; r++ {
		oracle[r] = bc.oracleNeed(t, r, own)
	}
	diverged := make([]bool, bc.nProcs)
	fold := bc.folds(t, budget)
	err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		opts := []Option{
			WithExchangeMode(mode), WithElemSize(bc.elemSize), WithPipelineDepth(depth),
		}
		if budget > 0 {
			opts = append(opts, WithMemoryBudget(budget))
		}
		d, err := NewDescriptor(bc.nProcs, bc.layout, Uint8, opts...)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, bc.chunks[rank], bc.needs[rank]); err != nil {
			return err
		}
		if fold {
			foldPeers(d.plan)
		}
		if rank == 0 && mutate != nil {
			mutate(d)
		}
		out := make([]byte, bc.needs[rank].Volume()*bc.elemSize)
		for i := range out {
			out[i] = boundedSentinel
		}
		bufs := make([][]byte, len(bc.chunks[rank]))
		for i := range bufs {
			bufs[i] = append([]byte(nil), own[rank][i]...)
		}
		if err := d.ReorganizeData(c, bufs, out); err != nil {
			return err
		}
		if !bytes.Equal(out, oracle[rank]) {
			diverged[rank] = true
		}
		if checkRank != nil {
			return checkRank(rank, d)
		}
		return nil
	}, bc.launch...)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, bad := range diverged {
		if bad {
			n++
		}
	}
	return n
}

// TestPipelineDifferentialSweep is the pipelined engine's acceptance
// sweep: seeded geometries × the sweep rows × depths 1/2/4 ×
// budget tiers (none, half the single-shot footprint — which composes
// pipelining with the bounded step backend — and the one-class minimum),
// every output byte-compared against the brute oracle, the effective
// depth asserted within the configured depth, and the measured peak
// staging under the ceiling wherever one was set.
func TestPipelineDifferentialSweep(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, row := range sweepRows {
			bc := genBoundedCase(seed)
			bc.fold = row.fold
			fp := bc.tierScale(t)
			if fp == 0 {
				continue
			}
			budgets := []int{0, max(fp/2, 1<<minStagingShift), 1 << minStagingShift}
			for _, depth := range []int{1, 2, 4} {
				for _, budget := range budgets {
					name := fmt.Sprintf("seed%d/%s/depth%d/budget%d", seed, row.name, depth, budget)
					t.Run(name, func(t *testing.T) {
						bad := bc.runPipeWorld(t, row.mode, depth, budget, nil, func(rank int, d *Descriptor) error {
							if got := d.LastPipelineDepth(); got < 1 || got > depth {
								return fmt.Errorf("rank %d: effective depth %d outside [1, %d]", rank, got, depth)
							}
							if budget > 0 {
								if peak := d.LastPeakStaging(); peak > int64(budget) {
									return fmt.Errorf("rank %d: peak staging %d exceeds budget %d", rank, peak, budget)
								}
							}
							return nil
						})
						if bad != 0 {
							t.Errorf("%s: %d ranks diverged from the brute oracle", name, bad)
						}
					})
				}
			}
		}
	}
}

// pipePlantWorld is the crafted geometry the planted-bug test needs to
// manifest deterministically: three ranks, each owning a four-wide column
// band as five row-pair chunks (so the point-to-point exchange runs five
// rounds, more than the default depth), with needs whose overlap with
// every active remote chunk is a three-wide strict sub-box — strided on
// both the pack and the unpack side. Rank 0, the perturbed one, therefore
// holds two received payloads across the pipeline window in each active
// round and stages two sends through the arena in the next. That is
// exactly the collision the early-recycle perturbation needs: the held
// payloads of round r freed early are drawn back out as round r+k's pack
// staging and overwritten before their unpack runs. Two per round, not
// one, makes it independent of what the arena held beforehand: staged
// wires leave by ownership and never come back, so whatever single buffer
// the pool had cached for this goroutine satisfies the first draw at most;
// the second is one of the payloads just freed. The world runs behind a
// no-op fault injector: on bare inproc every one of these strided
// receives would land in its posted parts, and a landed message leaves no
// payload to recycle early.
func pipePlantWorld() boundedCase {
	bc := boundedCase{nProcs: 3, layout: Layout2D, elemSize: 4}
	bc.chunks = make([][]grid.Box, 3)
	for r := range bc.chunks {
		for i := 0; i < 5; i++ {
			bc.chunks[r] = append(bc.chunks[r], grid.Box2(4*r, 2*i, 4, 2))
		}
	}
	bc.needs = []grid.Box{grid.Box2(5, 2, 6, 6), grid.Box2(1, 2, 10, 6), grid.Box2(1, 2, 6, 6)}
	bc.launch = []mpi.LaunchOption{mpi.WithFaultInjector(noFaults{})}
	return bc
}

// TestPipelineHarnessCatchesPlantedBug proves the differential sweep has
// teeth against buffer-lifetime bugs: arming PerturbPipelineForTest —
// every round's held payloads recycled to the arena one iteration early,
// so the next round's pack staging draws them back out and overwrites
// them before the unpack batch reads them — must surface as a byte
// divergence on the perturbed rank. The same geometry runs clean first
// to prove the divergence comes from the perturbation alone.
func TestPipelineHarnessCatchesPlantedBug(t *testing.T) {
	if raceEnabled {
		t.Skip("the planted bug is a real buffer-lifetime data race; the detector fires before the divergence check can prove its teeth — make verify runs this test without -race")
	}
	bc := pipePlantWorld()
	if bad := bc.runPipeWorld(t, ModePointToPoint, 2, 0, nil, nil); bad != 0 {
		t.Fatalf("unperturbed run diverged on %d ranks; geometry is broken", bad)
	}
	bad := bc.runPipeWorld(t, ModePointToPoint, 2, 0, (*Descriptor).PerturbPipelineForTest, nil)
	if bad == 0 {
		t.Error("early-recycle perturbation produced oracle-identical output — the harness is blind to pipelined buffer-lifetime bugs")
	}
	// Depth 1 never holds a payload across an issue, so the planted bug
	// must be inert there — this pins that the bug (and the harness's
	// sensitivity) is specific to the pipelined window.
	if bad := bc.runPipeWorld(t, ModePointToPoint, 1, 0, (*Descriptor).PerturbPipelineForTest, nil); bad != 0 {
		t.Errorf("perturbation diverged %d ranks at depth 1; the serial path should never hold payloads across rounds", bad)
	}
}

// TestPipelineDepthClampedByBudget verifies the lease model's clamp: a
// budget of three of the world's largest single-shot footprints admits at
// most two rounds in flight on the rank with that footprint (k+1
// footprints must fit), and at most budget/fp−1 on any other rank,
// however deep the configuration asks to go — and the measured peak
// proves the clamped window really stayed under the ceiling.
func TestPipelineDepthClampedByBudget(t *testing.T) {
	const procs, side, chunksPerRank = 4, 32, 6
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	world := boundedCase{nProcs: procs, layout: Layout2D, elemSize: 4, chunks: ownAll, needs: needAll}
	fps := world.footprints(t)
	fp := slices.Max(fps)
	if fp == 0 {
		t.Fatal("strided strip world has zero footprint; the clamp has nothing to bite on")
	}
	budget := 3 * fp
	err := mpi.Launch(procs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(procs, Layout2D, Float32,
			WithExchangeMode(ModePointToPoint), WithPipelineDepth(8), WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = fillBox(box, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		if err := d.ReorganizeData(c, bufs, dst); err != nil {
			return err
		}
		want := 2
		if fps[rank] < fp {
			want = max(budget/fps[rank]-1, 1)
		}
		if got := d.LastPipelineDepth(); got > want {
			return fmt.Errorf("rank %d: budget %d (3 footprints of %d, own %d) ran depth %d, want at most %d", rank, budget, fp, fps[rank], got, want)
		}
		if peak := d.LastPeakStaging(); peak > int64(budget) {
			return fmt.Errorf("rank %d: peak staging %d exceeds budget %d", rank, peak, budget)
		}
		return checkBox(dst, needAll[rank], 4, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelineTimingsSubDurations pins the RoundTiming contract the
// overlap metric depends on: every round reports non-negative pack,
// wire, and unpack sub-durations, pack+unpack never exceeds the round's
// duration (the remainder is the unhidden wire time), and OverlapRatio
// computed from LastTimings alone lands in [0,1] and matches the
// descriptor's own LastOverlapRatio. Where the receives are strided
// every layer does work — a strided receive posts no span, its message
// always arrives as a payload and is scattered at retire — so a
// descriptor built with no options at all must report non-zero pack,
// wire and unpack time: the split the benchmark's core.pack / mpi.wire /
// core.unpack columns are read from. Where every receive is one
// contiguous span (row strips -> column slabs, stack_to_bricks' shape) a
// message whose post is already open lands in it on this transport, and
// one that did arrive as a payload is placed inside the wait, which Wire
// spans: nothing is left to unpack, and Unpack legitimately reads zero to
// the clock's resolution there. Pack and wire still must not.
func TestPipelineTimingsSubDurations(t *testing.T) {
	const procs, side, chunksPerRank = 4, 32, 3
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true) // contiguous receives
	testTimingsSubDurations(t, ownAll, needAll, false)
	t.Run("strided-recv", func(t *testing.T) {
		ownAll, needAll := stridedRecvWorld(procs, side, chunksPerRank)
		testTimingsSubDurations(t, ownAll, needAll, true)
	})
}

func testTimingsSubDurations(t *testing.T, ownAll [][]grid.Box, needAll []grid.Box, unpacks bool) {
	const procs, chunksPerRank = 4, 3
	rows := []struct {
		name  string
		depth int
		opts  []Option
	}{
		{"depth1", 1, []Option{WithPipelineDepth(1)}},
		{"depth2", 2, []Option{WithPipelineDepth(2)}},
		{"default", DefaultPipelineDepth, nil},
	}
	for _, row := range rows {
		depth := row.depth
		t.Run(row.name, func(t *testing.T) {
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				rank := c.Rank()
				d, err := NewDescriptor(procs, Layout2D, Float32, row.opts...)
				if err != nil {
					return err
				}
				if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
					return err
				}
				bufs := make([][]byte, len(ownAll[rank]))
				for i, box := range ownAll[rank] {
					bufs[i] = fillBox(box, 4)
				}
				dst := make([]byte, needAll[rank].Volume()*4)
				if err := d.ReorganizeData(c, bufs, dst); err != nil {
					return err
				}
				if got := d.LastPipelineDepth(); got != depth {
					return fmt.Errorf("effective depth %d, want %d", got, depth)
				}
				ts := d.LastTimings()
				if len(ts) != chunksPerRank {
					return fmt.Errorf("got %d round timings, want %d", len(ts), chunksPerRank)
				}
				const slack = time.Millisecond
				var sum RoundTiming
				for i, rt := range ts {
					sum.Pack, sum.Wire, sum.Unpack = sum.Pack+rt.Pack, sum.Wire+rt.Wire, sum.Unpack+rt.Unpack
					if rt.Round != i {
						return fmt.Errorf("timing %d reports round %d; retires must stay in round order", i, rt.Round)
					}
					if rt.Pack < 0 || rt.Wire < 0 || rt.Unpack < 0 || rt.Duration < 0 {
						return fmt.Errorf("round %d has a negative sub-duration: %+v", i, rt)
					}
					if rt.Pack+rt.Unpack > rt.Duration+slack {
						return fmt.Errorf("round %d pack %v + unpack %v exceeds duration %v", i, rt.Pack, rt.Unpack, rt.Duration)
					}
					if rt.WireBytes <= 0 {
						return fmt.Errorf("round %d reports %d wire bytes of a strip that crosses every slab", i, rt.WireBytes)
					}
				}
				if sum.Pack <= 0 || sum.Wire <= 0 || (unpacks && sum.Unpack <= 0) {
					return fmt.Errorf("a layer reports no time over %d rounds: pack %v wire %v unpack %v",
						len(ts), sum.Pack, sum.Wire, sum.Unpack)
				}
				ratio := OverlapRatio(ts)
				if ratio < 0 || ratio > 1 {
					return fmt.Errorf("OverlapRatio = %v, want within [0,1]", ratio)
				}
				if got := d.LastOverlapRatio(); got != ratio {
					return fmt.Errorf("LastOverlapRatio %v != OverlapRatio(LastTimings) %v", got, ratio)
				}
				return checkBox(dst, needAll[rank], 4, nil, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelineZeroAllocSteadyState proves the pipelined path reaches the
// same steady state as the serial one: slot rings, job batches, and
// staging all recycle, so a replayed pipelined exchange allocates nothing
// — on a descriptor pinned to depth 2, and on a default-options
// descriptor over a many-round layout (one strided region per peer and
// round).
//
// The malloc counter is process-wide, so the measurement covers the whole
// world: every rank parks at a gate, rank 0 reads the counter, all ranks
// run the same number of lockstep exchanges, park again, and rank 0 reads
// it back. Nothing but the exchanges runs inside the window. The count is
// averaged per world exchange the way testing.AllocsPerRun averages (integer
// division by the run count): sync.Pool grows a per-P queue or misses on a
// buffer parked in another P's private slot once in a while, which is not
// the code under test, while a single allocation per exchange on either
// rank reads as 1.
func TestPipelineZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per cross-goroutine sync event; the pipelined path's race coverage comes from the differential sweep")
	}
	rows := []struct {
		name          string
		chunksPerRank int
		opts          []Option
	}{
		{"depth2", 4, []Option{WithPipelineDepth(2)}},
		{"default", 8, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if perRun := steadyStateMallocs(t, 2, 16, row.chunksPerRank, row.opts...); perRun != 0 {
				t.Errorf("%d allocs per steady-state pipelined world exchange, want 0", perRun)
			}
		})
	}
}

// TestStridedStepsZeroAlloc: a world of four ranks on a 16-round layout
// whose every step moves a strided two-row region to each of three peers
// replays its exchange without allocating — every message is a typed
// send, every strided unpack runs on the rank's own goroutine, and no
// step forks anything.
func TestStridedStepsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per cross-goroutine sync event")
	}
	if perRun := steadyStateMallocs(t, 4, 128, 16); perRun != 0 {
		t.Errorf("%d allocs per steady-state world exchange, want 0", perRun)
	}
}

// steadyStateMallocs replays a warmed-up exchange on stripWorld's strided
// geometry, checks every rank's need buffer against the oracle, and
// returns the mallocs per world exchange.
func steadyStateMallocs(t *testing.T, procs, side, chunksPerRank int, opts ...Option) (perRun uint64) {
	t.Helper()
	const runs = 50
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	var mallocs uint64
	var ms runtime.MemStats // rank 0's, out here so it is not allocated inside the window
	// gate parks every rank but 0 until rank 0 has run read.
	arrived := make(chan struct{}, procs)
	gate := func(rank int, open chan struct{}, read func()) {
		if rank != 0 {
			arrived <- struct{}{}
			<-open
			return
		}
		for i := 1; i < procs; i++ {
			<-arrived
		}
		read()
		close(open)
	}
	start, stop := make(chan struct{}), make(chan struct{})
	err := mpi.Launch(procs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(procs, Layout2D, Float32, opts...)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = fillBox(box, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		for i := 0; i < runs; i++ { // reach steady state
			if err := d.ReorganizeData(c, bufs, dst); err != nil {
				return err
			}
		}
		if got := d.LastPipelineDepth(); got != 2 {
			return fmt.Errorf("effective depth %d, want 2", got)
		}
		gate(rank, start, func() {
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs
		})
		for i := 0; i < runs; i++ {
			if err := d.ReorganizeData(c, bufs, dst); err != nil {
				return err
			}
		}
		gate(rank, stop, func() {
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs - mallocs
		})
		return checkBox(dst, needAll[rank], 4, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return mallocs / runs
}

// TestWithPipelineDepthValidation pins the option's contract: the
// default is DefaultPipelineDepth, explicit depths echo back through the
// accessor, and a non-positive depth is rejected at construction.
func TestWithPipelineDepthValidation(t *testing.T) {
	d, err := NewDescriptor(2, Layout2D, Float32)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PipelineDepth(); got != DefaultPipelineDepth {
		t.Errorf("default depth = %d, want DefaultPipelineDepth (%d)", got, DefaultPipelineDepth)
	}
	d, err = NewDescriptor(2, Layout2D, Float32, WithPipelineDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PipelineDepth(); got != 4 {
		t.Errorf("configured depth = %d, want 4", got)
	}
	if _, err := NewDescriptor(2, Layout2D, Float32, WithPipelineDepth(0)); err == nil {
		t.Error("depth 0 accepted; want a construction error")
	}
}
