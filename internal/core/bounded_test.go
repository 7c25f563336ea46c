package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// procRSSPeak reports the process's peak resident set in bytes (VmHWM
// from /proc/self/status), or 0 where the proc filesystem is absent —
// the benchmark's peak-RSS column is best-effort by nature.
func procRSSPeak() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// Differential tests of the memory-bounded plan backend. The ground
// truth is the brute-force compiler (mapping_brute.go) simulated locally
// — every (round, src, dst) transfer packed with the source's brute
// plan and unpacked with the destination's — which shares no code with
// the bounded compiler's slice enumeration or the step executor. The
// sweep runs seeded random geometries × the sweep rows ×
// budget tiers from "generous" (single-shot fits, bounded backend must
// stand down) through "one chunk" (the arena's minimum class), asserting
// byte-identical output at every point and, wherever the bounded path
// ran, that the measured peak staging stayed under the ceiling.

const boundedSentinel = 0xA5

// boundedCase is one randomly generated redistribution geometry.
type boundedCase struct {
	nProcs   int
	layout   Layout
	elemSize int
	chunks   [][]grid.Box
	needs    []grid.Box
	// fold, when set, has every rank replay its point-to-point plan
	// folded to one message per peer pair (foldPeers) — the sweeps'
	// point-to-point-fused rows.
	fold bool
}

// sweepRow is one exchange configuration of the differential sweeps.
type sweepRow struct {
	name string
	mode ExchangeMode
	fold bool
}

// sweepRows are the configurations every sweep geometry runs: the
// paper's collective, the default point-to-point schedule, and that
// schedule folded per peer pair, which drives multi-seg messages through
// the executor's gather/scatter on every geometry.
var sweepRows = []sweepRow{
	{"alltoallw", ModeAlltoallw, false},
	{"point-to-point", ModePointToPoint, false},
	{"point-to-point-fused", ModePointToPoint, true},
}

// foldPeers rewrites a mapped plan's round schedule into one step whose
// message to each peer carries that pair's per-round segs in round
// order, on every rank alike. The fold stages every pair's bytes at
// once, so under a budget that foldedFootprint exceeds it attaches the
// bounded schedule for the budget instead, as the descriptor does for a
// round schedule that does not fit.
func foldPeers(p *Plan, budget int) error {
	if budget > 0 && foldedFootprint(p) > budget {
		return CompileBoundedForTest(p, budget)
	}
	fold := func(recv bool) (msgs []message) {
		var ms []*message
		for r := range p.sched {
			for i := range p.sched[r].msgs(recv) {
				ms = append(ms, &p.sched[r].msgs(recv)[i])
			}
		}
		sort.SliceStable(ms, func(a, b int) bool { return ms[a].peer < ms[b].peer })
		for _, m := range ms {
			for _, sg := range m.segs {
				msgs = appendSeg(msgs, m.peer, ddrTagBase, sg)
			}
		}
		return msgs
	}
	st := step{sends: fold(false), recvs: fold(true)}
	for r := range p.sched {
		st.selfs = append(st.selfs, p.sched[r].selfs...)
	}
	p.sched = []step{st}
	return nil
}

// foldedFootprint is the worst per-rank staging, in class-rounded bytes,
// of a folded plan: every outgoing and incoming pair total at once.
func foldedFootprint(p *Plan) int {
	n, cls := p.nProcs, mpi.BufferClassSize
	pair := make([]int, n*n) // pair[src*n+dst]: the pair's bytes
	forEachOverlap(p.allChunks, p.allNeeds, func(src, _, dst int, ov grid.Box) {
		pair[src*n+dst] += ov.Volume() * p.elemSize
	})
	worst := 0
	for r := 0; r < n; r++ {
		total := 0
		for peer := 0; peer < n; peer++ {
			total += cls(pair[r*n+peer]) + cls(pair[peer*n+r])
		}
		worst = max(worst, total)
	}
	return worst
}

// genBoundedCase derives a geometry deterministically from seed:
// 2–4 ranks, 1D/2D/3D, uneven chunk deals (some ranks several chunks,
// some none beyond the first deal), independent random needs.
func genBoundedCase(seed int64) boundedCase {
	rng := rand.New(rand.NewSource(seed))
	bc := boundedCase{
		nProcs:   2 + rng.Intn(3),
		layout:   Layout(1 + rng.Intn(3)),
		elemSize: []int{1, 2, 4, 8}[rng.Intn(4)],
	}
	nd := bc.layout.NDims()
	offs := make([]int, nd)
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = 4 + rng.Intn(13)
	}
	domain := grid.MustBox(offs, dims)

	parts := bc.nProcs + rng.Intn(bc.nProcs+1)
	tiles := grid.RandomTiling(rng, domain, parts)
	bc.chunks = make([][]grid.Box, bc.nProcs)
	for i, tile := range tiles {
		r := i % bc.nProcs
		if i >= bc.nProcs {
			r = rng.Intn(bc.nProcs)
		}
		bc.chunks[r] = append(bc.chunks[r], tile)
	}
	bc.needs = make([]grid.Box, bc.nProcs)
	for r := range bc.needs {
		bc.needs[r] = grid.RandomBoxIn(rng, domain)
	}
	return bc
}

// ownData fills every rank's chunk buffers with the canonical pattern.
func (bc *boundedCase) ownData() [][][]byte {
	all := make([][][]byte, bc.nProcs)
	for r, chunks := range bc.chunks {
		all[r] = make([][]byte, len(chunks))
		for i, box := range chunks {
			all[r][i] = fillBox(box, bc.elemSize)
		}
	}
	return all
}

// oracleNeed computes rank dst's expected need buffer through the
// brute-force tables: sentinel-prefilled, then every transfer of every
// round simulated with the oracle compiler's pack and unpack types.
func (bc *boundedCase) oracleNeed(t *testing.T, dst int, own [][][]byte) []byte {
	t.Helper()
	out := make([]byte, bc.needs[dst].Volume()*bc.elemSize)
	for i := range out {
		out[i] = boundedSentinel
	}
	_, recv, err := bruteTables(dst, bc.elemSize, bc.chunks, bc.needs)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < bc.nProcs; src++ {
		send, _, err := bruteTables(src, bc.elemSize, bc.chunks, bc.needs)
		if err != nil {
			t.Fatal(err)
		}
		for r := range bc.chunks[src] {
			st := send[r][dst]
			n := st.PackedSize()
			if n == 0 {
				continue
			}
			wire := make([]byte, n)
			st.Pack(own[src][r], wire)
			recv[r][src].Unpack(wire, out)
		}
	}
	return out
}

// footprint computes the reference single-shot footprint of the case
// (its folded footprint when bc.fold is set), from an offline-compiled
// plan.
func (bc *boundedCase) footprint(t *testing.T) int {
	t.Helper()
	p, err := NewPlanFromGeometry(0, bc.elemSize, bc.chunks, bc.needs)
	if err != nil {
		t.Fatal(err)
	}
	if bc.fold {
		return foldedFootprint(p)
	}
	return p.SingleShotFootprint()
}

// budgetTiers derives the sweep's ceilings from a case's footprint:
// generous (bounded must stand down), half, an eighth, and the arena's
// one-chunk minimum — deduplicated, all clamped to the minimum class.
func budgetTiers(fp int) []int {
	raw := []int{2 * fp, fp / 2, fp / 8, 1 << minStagingShift}
	var tiers []int
	for _, b := range raw {
		b = max(b, 1<<minStagingShift)
		dup := false
		for _, have := range tiers {
			if have == b {
				dup = true
			}
		}
		if !dup {
			tiers = append(tiers, b)
		}
	}
	return tiers
}

// runBoundedWorld runs one (case, mode, budget) configuration and checks
// every rank's output byte-identical to the brute oracle. mutate, when
// non-nil, runs on rank 0 after mapping setup; checkRank receives each
// rank's descriptor after the exchange for extra assertions. Returns the
// number of ranks whose output diverged from the oracle (0 for a healthy
// run; mutation tests expect > 0).
func (bc *boundedCase) runBoundedWorld(t *testing.T, mode ExchangeMode, budget int,
	mutate func(*Plan) bool, checkRank func(rank int, d *Descriptor) error) int {
	t.Helper()
	own := bc.ownData()
	oracle := make([][]byte, bc.nProcs)
	for r := 0; r < bc.nProcs; r++ {
		oracle[r] = bc.oracleNeed(t, r, own)
	}
	diverged := make([]bool, bc.nProcs)
	err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(bc.nProcs, bc.layout, Uint8,
			WithExchangeMode(mode), WithElemSize(bc.elemSize), WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, bc.chunks[rank], bc.needs[rank]); err != nil {
			return err
		}
		if bc.fold {
			if err := foldPeers(d.plan, budget); err != nil {
				return err
			}
		}
		if rank == 0 && mutate != nil && !mutate(d.plan) {
			return fmt.Errorf("rank 0: mutation hook found nothing to perturb")
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
	})
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

// TestBoundedDifferentialSweep is the tentpole's acceptance sweep:
// seeded geometries × the sweep rows × budget tiers down to
// the one-chunk minimum, every output byte-compared against the brute
// oracle, the measured peak staging asserted under the ceiling whenever
// the bounded backend ran, and the backend required to stand down when
// the single-shot footprint fits the budget.
func TestBoundedDifferentialSweep(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, row := range sweepRows {
			bc := genBoundedCase(seed)
			bc.fold = row.fold
			fp := bc.footprint(t)
			if fp == 0 {
				continue
			}
			for _, budget := range budgetTiers(fp) {
				name := fmt.Sprintf("seed%d/%s/budget%d", seed, row.name, budget)
				t.Run(name, func(t *testing.T) {
					wantBounded := fp > budget
					bad := bc.runBoundedWorld(t, row.mode, budget, nil, func(rank int, d *Descriptor) error {
						steps := d.BoundedSteps()
						if wantBounded && steps == 0 {
							return fmt.Errorf("rank %d: footprint %d > budget %d but the one-shot path ran", rank, fp, budget)
						}
						if !wantBounded && steps != 0 {
							return fmt.Errorf("rank %d: footprint %d <= budget %d but bounded ran %d steps", rank, fp, budget, steps)
						}
						if peak := d.LastPeakStaging(); peak > int64(budget) {
							return fmt.Errorf("rank %d: measured peak staging %d exceeds budget %d", rank, peak, budget)
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

// TestStagingHandOffEveryTransport pins the executor's ownership hand-off
// (mpi.SendOwned) on all four transports: a strided multi-round exchange
// under a budget — roomy enough for the pipelined one-shot path, then
// tight enough for the bounded backend — must land byte-identical, keep
// its measured peak under the budget, and leave nothing charged to the
// staging meter once the call returns: a wire's charge ends when it is
// handed off, a lease's when its step retires.
func TestStagingHandOffEveryTransport(t *testing.T) {
	const procs, side, chunksPerRank = 4, 32, 3
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	probe, err := NewPlanFromGeometry(0, 4, ownAll, needAll)
	if err != nil {
		t.Fatal(err)
	}
	fp := probe.SingleShotFootprint()
	transports := []struct {
		name string
		opts []mpi.LaunchOption
	}{
		{"inproc", nil},
		{"tcp", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportTCP)}},
		{"shm", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}},
		{"hier", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm), mpi.WithTopology(mpi.NodesOf(procs, 2))}},
	}
	for _, tr := range transports {
		for _, budget := range []int{3 * fp, fp / 2} {
			t.Run(fmt.Sprintf("%s/budget%d", tr.name, budget), func(t *testing.T) {
				err := mpi.Launch(procs, func(c *mpi.Comm) error {
					rank := c.Rank()
					d, err := NewDescriptor(procs, Layout2D, Float32, WithMemoryBudget(budget))
					if err != nil {
						return err
					}
					if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
						return err
					}
					if bounded := d.BoundedSteps() > 0; bounded != (budget < fp) {
						return fmt.Errorf("rank %d: bounded backend = %v at budget %d, footprint %d", rank, bounded, budget, fp)
					}
					bufs := make([][]byte, len(ownAll[rank]))
					for i, box := range ownAll[rank] {
						bufs[i] = fillBox(box, 4)
					}
					dst := make([]byte, needAll[rank].Volume()*4)
					for iter := 0; iter < 2; iter++ {
						if err := d.ReorganizeData(c, bufs, dst); err != nil {
							return err
						}
						if cur := d.ex.meter.Current(); cur != 0 {
							return fmt.Errorf("rank %d: %d staging bytes still charged after the exchange", rank, cur)
						}
						if peak := d.LastPeakStaging(); peak <= 0 || peak > int64(budget) {
							return fmt.Errorf("rank %d: peak staging %d, want in (0, %d]", rank, peak, budget)
						}
					}
					return checkBox(dst, needAll[rank], 4, nil, 0)
				}, tr.opts...)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBoundedHarnessCatchesPlantedBug proves the differential harness
// has teeth: a one-cell translation of a single receive slice
// (PerturbBoundedForTest — the payload lands one cell from where it
// belongs, wire lengths unchanged) must surface as a byte divergence
// from the oracle on the perturbed rank.
func TestBoundedHarnessCatchesPlantedBug(t *testing.T) {
	planted := 0
	for seed := int64(0); seed < 20 && planted < 3; seed++ {
		bc := genBoundedCase(seed)
		fp := bc.footprint(t)
		if fp < 2*(1<<minStagingShift) {
			continue
		}
		budget := max(fp/4, 1<<minStagingShift)
		bad := bc.runBoundedWorld(t, ModePointToPoint, budget, (*Plan).PerturbBoundedForTest, nil)
		if bad == 0 {
			t.Errorf("seed %d: perturbed bounded plan produced oracle-identical output — the harness is blind", seed)
		}
		planted++
	}
	if planted == 0 {
		t.Fatal("no seed produced a perturbable bounded plan")
	}
}

// TestBoundedMeterHasTeeth proves the peak-staging assertion measures
// reality rather than echoing the configuration: swapping in a schedule
// compiled for a budget far above the descriptor's ceiling — one slice
// covering the whole strided overlap, staged in a single arena class —
// must drive the measured peak past that ceiling. A single-rank world
// keeps the mismatched schedule off the transport (mixed step schedules
// are not a supported configuration; this hook exists only to prove the
// meter measures).
func TestBoundedMeterHasTeeth(t *testing.T) {
	// Split ownership so every overlap is a strict sub-box of both its
	// chunk and the need — strided on both sides, so a whole-overlap
	// slice must stage through the metered arena.
	left := grid.Box2(0, 0, 32, 64)
	right := grid.Box2(32, 0, 32, 64)
	need := grid.Box2(1, 1, 62, 62)
	const budget = 1 << minStagingShift
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		d, err := NewDescriptor(1, Layout2D, Float64, WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, []grid.Box{left, right}, need); err != nil {
			return err
		}
		src := [][]byte{fillBox(left, 8), fillBox(right, 8)}
		dst := make([]byte, need.Volume()*8)
		if err := d.ReorganizeData(c, src, dst); err != nil {
			return err
		}
		// Tight slicing degrades the overlap to row segments, which are
		// contiguous and bypass staging entirely — the measured peak may
		// legitimately be 0, but never above the ceiling.
		if peak := d.LastPeakStaging(); peak > budget {
			return fmt.Errorf("tight schedule: peak %d exceeds the %d ceiling", peak, budget)
		}
		// Same descriptor, same ceiling — but a loose schedule that
		// stages the whole overlap at once. The meter must report the
		// violation, not the configured budget.
		if err := CompileBoundedForTest(d.plan, need.Volume()*8*2); err != nil {
			return err
		}
		if err := d.ReorganizeData(c, src, dst); err != nil {
			return err
		}
		if peak := d.LastPeakStaging(); peak <= budget {
			return fmt.Errorf("loose schedule measured peak %d under the %d ceiling — the meter is not measuring", peak, budget)
		}
		return checkBox(dst, need, 8, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedBudgetTooSmall verifies a ceiling below the arena's minimum
// class is rejected at mapping time with the typed error.
func TestBoundedBudgetTooSmall(t *testing.T) {
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		d, err := NewDescriptor(1, Layout2D, Float32, WithMemoryBudget(64))
		if err != nil {
			return err
		}
		array := grid.Box2(0, 0, 64, 64)
		err = d.SetupDataMapping(c, []grid.Box{array}, array)
		if !errors.Is(err, ErrBudgetTooSmall) {
			return fmt.Errorf("got %v, want ErrBudgetTooSmall", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedPlanCacheKeyedByBudget verifies two descriptors mapping the
// same geometry under different budgets never share a fingerprint — the
// budget is part of the plan identity (salted into the hash), so plans,
// autotune entries, and exchange IDs stay distinct.
func TestBoundedPlanCacheKeyedByBudget(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		array := grid.Box2(c.Rank()*32, 0, 32, 64)
		need := grid.Box2(0, c.Rank()*32, 64, 32)
		var fps [3]uint64
		for i, budget := range []int{0, 4096, 8192} {
			d, err := NewDescriptor(2, Layout2D, Float32, WithMemoryBudget(budget))
			if err != nil {
				return err
			}
			if err := d.SetupDataMapping(c, []grid.Box{array}, need); err != nil {
				return err
			}
			fps[i] = d.plan.fp
		}
		for i := 0; i < len(fps); i++ {
			for j := i + 1; j < len(fps); j++ {
				if fps[i] == fps[j] {
					return fmt.Errorf("budgets %d and %d share plan fingerprint %016x", i, j, fps[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedCachedPlanReplays verifies a cached bounded plan replays on
// a repeat mapping (collective cache hit) with the schedule attached and
// the exchange still oracle-identical and under budget.
func TestBoundedCachedPlanReplays(t *testing.T) {
	bc := genBoundedCase(3)
	fp := bc.footprint(t)
	budget := max(fp/4, 1<<minStagingShift)
	own := bc.ownData()
	oracle := make([][]byte, bc.nProcs)
	for r := 0; r < bc.nProcs; r++ {
		oracle[r] = bc.oracleNeed(t, r, own)
	}
	err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(bc.nProcs, bc.layout, Uint8,
			WithExchangeMode(ModePointToPoint), WithElemSize(bc.elemSize), WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		for iter := 0; iter < 2; iter++ {
			if err := d.SetupDataMapping(c, bc.chunks[rank], bc.needs[rank]); err != nil {
				return err
			}
			out := make([]byte, bc.needs[rank].Volume()*bc.elemSize)
			for i := range out {
				out[i] = boundedSentinel
			}
			if err := d.ReorganizeData(c, own[rank], out); err != nil {
				return err
			}
			if !bytes.Equal(out, oracle[rank]) {
				return fmt.Errorf("rank %d iter %d: output diverges from oracle", rank, iter)
			}
			if peak := d.LastPeakStaging(); peak > int64(budget) {
				return fmt.Errorf("rank %d iter %d: peak %d > budget %d", rank, iter, peak, budget)
			}
		}
		hits, misses := d.PlanCacheStats()
		if hits != 1 || misses != 1 {
			return fmt.Errorf("rank %d: cache stats hits=%d misses=%d, want 1/1", rank, hits, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedZeroAllocSteadyState mirrors TestZeroAllocSteadyState for
// the bounded backend: once the step schedule has been exercised,
// replaying a bounded ReorganizeData allocates nothing — staging cycles
// through the metered arena and all bookkeeping reuses descriptor
// scratch — and the measured peak staging is stable, positive, and under
// the ceiling on every replay.
func TestBoundedZeroAllocSteadyState(t *testing.T) {
	// Two owned chunks whose overlaps with the interior need are strided
	// on both sides, so every step stages through the metered arena; at
	// elem size 8 the round footprint (2×256-byte classes) exceeds the
	// 256-byte budget and the bounded backend self-selects.
	left := grid.Box2(0, 0, 4, 8)
	right := grid.Box2(4, 0, 4, 8)
	need := grid.Box2(1, 1, 6, 6)
	const budget = 256
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		d, err := NewDescriptor(1, Layout2D, Float64, WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, []grid.Box{left, right}, need); err != nil {
			return err
		}
		if d.BoundedSteps() == 0 {
			return fmt.Errorf("geometry fits the budget; the test exercises nothing")
		}
		src := [][]byte{fillBox(left, 8), fillBox(right, 8)}
		dst := make([]byte, need.Volume()*8)
		for i := 0; i < 3; i++ { // reach steady state
			if err := d.ReorganizeData(c, src, dst); err != nil {
				return err
			}
		}
		peak := d.LastPeakStaging()
		if peak <= 0 || peak > budget {
			return fmt.Errorf("steady-state peak staging %d, want in (0, %d]", peak, budget)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(50, func() {
			if err := d.ReorganizeData(c, src, dst); err != nil {
				t.Error(err)
			}
			if p := d.LastPeakStaging(); p != peak {
				t.Errorf("peak staging drifted: %d then %d", peak, p)
			}
		})
		if allocs != 0 {
			t.Errorf("%.1f allocs per steady-state bounded ReorganizeData, want 0", allocs)
		}
		return checkBox(dst, need, 8, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleShotFootprintClassRounded pins the footprint model to the
// arena's actual class sizes, so drift between the mirrored constants in
// bounded.go and the arena is caught here rather than as a silently
// wrong auto-selection threshold.
func TestSingleShotFootprintClassRounded(t *testing.T) {
	if got, want := 1<<minStagingShift, mpi.BufferClassSize(1); got != want {
		t.Fatalf("minimum class drifted: bounded.go says %d, arena says %d", got, want)
	}
	if got, want := 1<<maxStagingShift, mpi.BufferClassSize(1<<maxStagingShift); got != want {
		t.Fatalf("maximum class drifted: bounded.go says %d, arena says %d", got, want)
	}
	// One 6×6 float32 self-overlap: 144 bytes staged as a 256-byte class
	// on each side of the round.
	p, err := NewPlanFromGeometry(0, 4, [][]grid.Box{{grid.Box2(0, 0, 8, 8)}}, []grid.Box{grid.Box2(1, 1, 6, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SingleShotFootprint(); got != 512 {
		t.Fatalf("footprint = %d, want 512 (two 256-byte classes)", got)
	}
}

// BenchmarkBoundedExchange measures the bounded backend against the
// one-shot path on a 16-rank strip regrid, reporting the measured peak
// staging and step count alongside throughput.
func BenchmarkBoundedExchange(b *testing.B) {
	const (
		procs    = 16
		side     = 256
		elemSize = 4
	)
	// Column needs against row-strip ownership: every slice is strided,
	// so the exchange must stage through pack buffers and the budget has
	// something real to bound (row needs would be served zero-copy with a
	// zero footprint, and the bounded backend would never engage).
	ownAll, needAll := stripWorld(procs, side, 4, true)
	for _, cfg := range []struct {
		name   string
		budget int
	}{
		// The strided 16-rank regrid has an 8 KiB single-shot footprint
		// per rank, so 4 KiB forces a bounded schedule and 512 B drives
		// it down to near the one-class-per-step floor.
		{"oneshot", 0},
		{"budget4KiB", 1 << 12},
		{"budget512B", 512},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var peak int64
			var steps int
			b.SetBytes(int64(side) * int64(side) * elemSize)
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				rank := c.Rank()
				opts := []Option{WithExchangeMode(ModePointToPoint)}
				if cfg.budget > 0 {
					opts = append(opts, WithMemoryBudget(cfg.budget))
				}
				d, err := NewDescriptor(procs, Layout2D, Float32, opts...)
				if err != nil {
					return err
				}
				if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
					return err
				}
				bufs := make([][]byte, len(ownAll[rank]))
				for i, box := range ownAll[rank] {
					bufs[i] = make([]byte, box.Volume()*elemSize)
				}
				dst := make([]byte, needAll[rank].Volume()*elemSize)
				if rank == 0 {
					b.ResetTimer()
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					if err := d.ReorganizeData(c, bufs, dst); err != nil {
						return err
					}
				}
				if rank == 0 {
					peak = d.LastPeakStaging()
					steps = d.BoundedSteps()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(peak), "peak-staging-B")
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(procRSSPeak(), "peak-rss-B")
		})
	}
}
