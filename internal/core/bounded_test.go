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
	// launch, when set, picks the world runPipeWorld launches (bare
	// inproc by default).
	launch []mpi.LaunchOption
}

// sweepRow is one exchange configuration of the differential sweeps.
type sweepRow struct {
	name   string
	depth  int  // the depth the row runs at in a sweep without a depth axis
	staged bool // every message packed into a wire and unpacked (withStaged)
	fold   bool
}

// opts are the row's descriptor options beyond depth and budget.
func (r sweepRow) opts() []Option {
	if r.staged {
		return []Option{withStaged()}
	}
	return nil
}

// sweepRows are the configurations every sweep geometry runs: the
// paper's round as its collective ran it — one step at a time, every
// message packed into a wire and unpacked from it, nothing landing — the
// default point-to-point schedule, and that schedule folded per peer
// pair, which drives multi-seg messages through the executor's
// gather/scatter on every geometry.
var sweepRows = []sweepRow{
	{"alltoallw", 1, true, false},
	{"point-to-point", DefaultPipelineDepth, false, false},
	{"point-to-point-fused", DefaultPipelineDepth, false, true},
}

// foldPeers rewrites a mapped plan's round schedule into one step whose
// message to each peer carries that pair's per-round segs in round
// order — the sweeps' point-to-point-fused rows. Both ends of a pair
// must fold, so whether to fold is a world decision (folds).
func foldPeers(p *Plan) {
	fold := func(recv bool) (msgs []message) {
		var ms []*message
		for r := range p.sched {
			list := p.sched[r].sends
			if recv {
				list = p.sched[r].recvs
			}
			for i := range list {
				ms = append(ms, &list[i])
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
}

// appendSeg adds sg to the message for peer at the tail of msgs, opening
// it first if the tail belongs to another peer — how foldPeers folds a
// peer-major run of segs into one message per peer.
func appendSeg(msgs []message, peer, tag int, sg seg) []message {
	if n := len(msgs); n == 0 || msgs[n-1].peer != peer {
		msgs = append(msgs, message{peer: peer, tag: tag})
	}
	m := &msgs[len(msgs)-1]
	m.segs = append(m.segs, sg)
	m.bytes += sg.t.PackedSize()
	return msgs
}

// plans compiles every rank's plan offline.
func (bc *boundedCase) plans(t *testing.T) []*Plan {
	t.Helper()
	ps := make([]*Plan, bc.nProcs)
	for r := range ps {
		var err error
		if ps[r], err = NewPlanFromGeometry(r, bc.elemSize, bc.chunks, bc.needs); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

// footprints returns every rank's own single-shot footprint: what its
// descriptor compares a budget against.
func (bc *boundedCase) footprints(t *testing.T) []int {
	t.Helper()
	var fps []int
	for _, p := range bc.plans(t) {
		fps = append(fps, p.SingleShotFootprint())
	}
	return fps
}

// tierScale is the scale the sweeps derive their budget tiers from: the
// largest staging any rank's round (its folded step when bc.fold is set)
// would take with every self overlap charged on both sides, as if it
// were a message to itself. It is at least every rank's own footprint, so
// the generous tier (2×) fits every rank and the tiers below it split the
// world wherever the ranks' own footprints fall.
func (bc *boundedCase) tierScale(t *testing.T) int {
	t.Helper()
	cls := mpi.BufferClassSize
	worst := 0
	for _, p := range bc.plans(t) {
		if bc.fold {
			pair := map[int][2]int{} // peer → bytes sent, received over all rounds
			for r := range p.sched {
				st := &p.sched[r]
				for _, sf := range st.selfs {
					n := sf.src.t.PackedSize()
					pair[p.rank] = [2]int{pair[p.rank][0] + n, pair[p.rank][1] + n}
				}
				for _, m := range st.sends {
					pair[m.peer] = [2]int{pair[m.peer][0] + m.bytes, pair[m.peer][1]}
				}
				for _, m := range st.recvs {
					pair[m.peer] = [2]int{pair[m.peer][0], pair[m.peer][1] + m.bytes}
				}
			}
			total := 0
			for _, b := range pair {
				total += cls(b[0]) + cls(b[1])
			}
			worst = max(worst, total)
			continue
		}
		for r := range p.sched {
			c := charge(&p.sched[r])
			for _, sf := range p.sched[r].selfs {
				c += cls(sf.src.t.PackedSize())
			}
			worst = max(worst, c)
		}
	}
	return worst
}

// folds reports whether the fold rows fold under budget: only when every
// rank's folded step, on the tier scale's model, fits it. Otherwise every
// rank maps as its descriptor decides, as for the unfolded rows.
func (bc *boundedCase) folds(t *testing.T, budget int) bool {
	return bc.fold && (budget <= 0 || bc.tierScale(t) <= budget)
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

// runBoundedWorld runs one (case, options, budget) configuration and checks
// every rank's output byte-identical to the brute oracle. mutate, when
// non-nil, runs on rank 0 after mapping setup; checkRank receives each
// rank's descriptor after the exchange for extra assertions. Returns the
// number of ranks whose output diverged from the oracle (0 for a healthy
// run; mutation tests expect > 0).
func (bc *boundedCase) runBoundedWorld(t *testing.T, opts []Option, budget int,
	mutate func(*Plan) bool, checkRank func(rank int, d *Descriptor) error) int {
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
		d, err := NewDescriptor(bc.nProcs, bc.layout, Uint8,
			append([]Option{WithElemSize(bc.elemSize), WithMemoryBudget(budget)}, opts...)...)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, bc.chunks[rank], bc.needs[rank]); err != nil {
			return err
		}
		if fold {
			foldPeers(d.plan)
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

// TestBoundedDifferentialSweep is the bounded backend's acceptance sweep:
// seeded geometries × the sweep rows × budget tiers down to the one-chunk
// minimum, every output byte-compared against the brute oracle and every
// rank's measured peak staging asserted under the ceiling. Each rank
// decides for itself: it must re-pack exactly when its own single-shot
// footprint exceeds the budget (and the fold rows, when they fold, run
// one step on every rank).
func TestBoundedDifferentialSweep(t *testing.T) {
	seeds := 12
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
			fps := bc.footprints(t)
			for _, budget := range budgetTiers(fp) {
				name := fmt.Sprintf("seed%d/%s/budget%d", seed, row.name, budget)
				t.Run(name, func(t *testing.T) {
					folded := bc.folds(t, budget)
					bad := bc.runBoundedWorld(t, append(row.opts(), WithPipelineDepth(row.depth)), budget, nil, func(rank int, d *Descriptor) error {
						steps := d.BoundedSteps()
						wantBounded := !folded && fps[rank] > budget
						if wantBounded && steps == 0 {
							return fmt.Errorf("rank %d: footprint %d > budget %d but its rounds ran unchanged", rank, fps[rank], budget)
						}
						if !wantBounded && steps != 0 {
							return fmt.Errorf("rank %d: footprint %d <= budget %d (folded %v) but bounded ran %d steps", rank, fps[rank], budget, folded, steps)
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

// leaseWindow is the receive-lease high-water mark the executor's ring
// reaches running steps at depth k: the largest sum of the leases of k+1
// consecutive steps (of one step at depth 1, whose ring is one slot).
func leaseWindow(steps []step, k int) int64 {
	w := k + 1
	if k == 1 {
		w = 1
	}
	var peak int64
	for r := range steps {
		var sum int64
		for j := max(0, r-w+1); j <= r; j++ {
			for _, m := range steps[j].recvs {
				sum += int64(mpi.BufferClassSize(m.bytes))
			}
		}
		peak = max(peak, sum)
	}
	return peak
}

// maxSendWire is the largest arena wire any one send of steps can take.
func maxSendWire(steps []step) int64 {
	var w int64
	for i := range steps {
		for _, m := range steps[i].sends {
			w = max(w, int64(mpi.BufferClassSize(m.bytes)))
		}
	}
	return w
}

// TestStagingHandOffEveryTransport pins the executor's staging on all
// four transports: a strided multi-round exchange under a budget — roomy
// enough for the pipelined one-shot path, then tight enough for the
// bounded backend — must land byte-identical, keep its measured peak under
// the budget, and leave nothing charged to the staging meter once the call
// returns: a send wire's charge ends when SendTyped hands it off, a
// lease's when its step retires. The peak itself is derived from the send
// paths: the receive leases of the in-flight window, plus at most one
// send wire — a send that needs one packs it and hands it off before the
// next is packed. The receives here are contiguous and the local moves
// pack straight into them, so nothing else is ever charged.
// TestSendSideStagesNothing pins which sends need a wire at all.
func TestStagingHandOffEveryTransport(t *testing.T) {
	const procs, side, chunksPerRank = 4, 32, 3
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	world := boundedCase{nProcs: procs, layout: Layout2D, elemSize: 4, chunks: ownAll, needs: needAll}
	fps := world.footprints(t)
	fp := world.tierScale(t)
	transports := []struct {
		name string
		opts []mpi.LaunchOption
	}{
		{"inproc", nil},
		{"tcp", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportTCP)}},
		{"shm", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}},
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
					if bounded := d.BoundedSteps() > 0; bounded != (budget < fps[rank]) {
						return fmt.Errorf("rank %d: bounded backend = %v at budget %d, footprint %d", rank, bounded, budget, fps[rank])
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
						peak := d.LastPeakStaging()
						if peak <= 0 || peak > int64(budget) {
							return fmt.Errorf("rank %d: peak staging %d, want in (0, %d]", rank, peak, budget)
						}
						steps, k := d.schedule(d.plan)
						leases, wire := leaseWindow(steps, k), maxSendWire(steps)
						if peak < leases || peak > leases+wire {
							return fmt.Errorf("rank %d: peak staging %d outside [%d, %d]: more than one send wire was charged", rank, peak, leases, leases+wire)
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

// TestSendSideStagesNothing: rank 0 owns the whole 256x256 float32
// domain and receives nothing, so under a budget its measured peak is its
// send staging alone. Its step sends two strided messages, 64 KiB to rank
// 1 and 128 KiB to rank 2. On shm (packed into the ring record) and tcp
// (rows lent to the writer) they stage nothing; behind a fault injector
// each is packed into an arena wire handed off before the next is packed,
// so the peak is the larger wire's class — never both wires at once.
func TestSendSideStagesNothing(t *testing.T) {
	domain := grid.Box2(0, 0, 256, 256)
	needs := []grid.Box{grid.Box2(0, 0, 64, 256), grid.Box2(64, 0, 64, 256), grid.Box2(128, 0, 128, 256)}
	transports := []struct {
		name string
		opts []mpi.LaunchOption
		peak int64
	}{
		{"shm", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm), mpi.WithFaultInjector(nil)}, 0},
		{"tcp", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportTCP), mpi.WithFaultInjector(nil)}, 0},
		{"inproc+injector", []mpi.LaunchOption{mpi.WithFaultInjector(noFaults{})}, int64(mpi.BufferClassSize(128 * 256 * 4))},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			err := mpi.Launch(len(needs), func(c *mpi.Comm) error {
				d, err := NewDescriptor(c.Size(), Layout2D, Float32, WithMemoryBudget(64<<20))
				if err != nil {
					return err
				}
				var own []grid.Box
				var bufs [][]byte
				if c.Rank() == 0 {
					own, bufs = []grid.Box{domain}, [][]byte{fillBox(domain, 4)}
				}
				need := needs[c.Rank()]
				if err := d.SetupDataMapping(c, own, need); err != nil {
					return err
				}
				dst := make([]byte, need.Volume()*4)
				for iter := 0; iter < 2; iter++ {
					if err := d.ReorganizeData(c, bufs, dst); err != nil {
						return err
					}
					if peak := d.LastPeakStaging(); c.Rank() == 0 && peak != tr.peak {
						return fmt.Errorf("rank 0 staged a peak of %d bytes sending, want %d", peak, tr.peak)
					}
				}
				return checkBox(dst, need, 4, nil, 0)
			}, tr.opts...)
			if err != nil {
				t.Fatal(err)
			}
		})
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
		fp := bc.footprints(t)[0] // the perturbed rank must re-pack
		if fp < 2*(1<<minStagingShift) {
			continue
		}
		budget := max(fp/4, 1<<minStagingShift)
		bad := bc.runBoundedWorld(t, nil, budget, (*Plan).PerturbBoundedForTest, nil)
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
// covering each whole overlap, received under a single arena-class lease
// — must drive the measured peak past that ceiling. Staging is what the
// meter measures, and a self move stages nothing, so the overlaps are a
// peer's: two ranks own the left and right halves and both need the same
// interior box. Both ranks swap in the loose schedule, so the world's
// step lists still agree (mixed step schedules are not a supported
// configuration; this hook exists only to prove the meter measures).
func TestBoundedMeterHasTeeth(t *testing.T) {
	// Split ownership so every overlap is a strict sub-box of both its
	// chunk and the need — strided on both sides.
	own := []grid.Box{grid.Box2(0, 0, 32, 64), grid.Box2(32, 0, 32, 64)}
	need := grid.Box2(1, 1, 62, 62)
	const budget = 1 << minStagingShift
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		d, err := NewDescriptor(2, Layout2D, Float64, WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		mine := own[c.Rank()]
		if err := d.SetupDataMapping(c, []grid.Box{mine}, need); err != nil {
			return err
		}
		src := [][]byte{fillBox(mine, 8)}
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
		// Same descriptor, same ceiling — but the schedule compiled for a
		// loose budget, under which each rank replays its rounds and leases
		// each whole overlap at once. The meter must report the violation,
		// not the configured budget.
		loose, err := compileBounded(d.plan, need.Volume()*8*2)
		if err != nil {
			return err
		}
		d.plan.bounded = loose
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
// budget is part of the plan identity (salted into the hash), so plans
// and exchange IDs stay distinct.
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
	fp := bc.tierScale(t)
	budget := max(fp/4, 1<<minStagingShift)
	own := bc.ownData()
	oracle := make([][]byte, bc.nProcs)
	for r := 0; r < bc.nProcs; r++ {
		oracle[r] = bc.oracleNeed(t, r, own)
	}
	err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(bc.nProcs, bc.layout, Uint8,
			WithElemSize(bc.elemSize), WithMemoryBudget(budget))
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
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so pooled completions allocate; make verify runs this test without -race")
	}
	// Two ranks, each owning one 8×8 array and needing 8×6 cells of it
	// and the neighbouring array's adjacent column — 7×6 strided on both
	// sides of the self move, 1×6 strided on both sides of the message.
	// At elem size 8 the self move (336 bytes, a 512-byte class) exceeds
	// the 256-byte budget, so each rank slices it into two pieces and
	// re-packs its round. A self move stages nothing; what the meter sees
	// is the message: its receive lease, and its send wire when run
	// settles it before the peer's post took it — one 256-byte class
	// either way, never both at once.
	arrays := []grid.Box{grid.Box2(0, 0, 8, 8), grid.Box2(8, 0, 8, 8)}
	needs := []grid.Box{grid.Box2(1, 1, 8, 6), grid.Box2(7, 1, 8, 6)}
	const budget = 256
	const replays = 50
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		rank := c.Rank()
		array, need := arrays[rank], needs[rank]
		d, err := NewDescriptor(2, Layout2D, Float64, WithMemoryBudget(budget))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, []grid.Box{array}, need); err != nil {
			return err
		}
		if d.BoundedSteps() == 0 {
			return fmt.Errorf("geometry fits the budget; the test exercises nothing")
		}
		src := [][]byte{fillBox(array, 8)}
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
		if rank == 1 {
			// The peer of rank 0's measured replays: AllocsPerRun runs its
			// function once more than it averages over.
			for i := 0; i <= replays; i++ {
				if err := d.ReorganizeData(c, src, dst); err != nil {
					return err
				}
			}
			return checkBox(dst, need, 8, nil, 0)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(replays, func() {
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
	// The one charge model: a self move stages at most one buffer, so one
	// 6×6 float32 self-overlap (144 bytes) charges one 256-byte class.
	p, err := NewPlanFromGeometry(0, 4, [][]grid.Box{{grid.Box2(0, 0, 8, 8)}}, []grid.Box{grid.Box2(1, 1, 6, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SingleShotFootprint(); got != 256 {
		t.Fatalf("self-move footprint = %d, want 256 (one 256-byte class)", got)
	}
	// A message charges both its ends: rank 0 sends 144 bytes to rank 1
	// and receives 144 from it in the same round, two 256-byte classes.
	chunks := [][]grid.Box{{grid.Box2(0, 0, 6, 6)}, {grid.Box2(6, 0, 6, 6)}}
	needs := []grid.Box{grid.Box2(6, 0, 6, 6), grid.Box2(0, 0, 6, 6)}
	if p, err = NewPlanFromGeometry(0, 4, chunks, needs); err != nil {
		t.Fatal(err)
	}
	if got := p.SingleShotFootprint(); got != 512 {
		t.Fatalf("send+receive footprint = %d, want 512 (two 256-byte classes)", got)
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
				var opts []Option
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
