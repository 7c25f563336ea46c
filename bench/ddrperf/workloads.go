package main

import (
	"fmt"
	"math/rand"
	"unsafe"

	"ddr/internal/core"
	"ddr/internal/fft"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/transit"
)

// workload is one named, seeded scenario. Every workload runs on the
// library's defaults: no exchange mode, pipeline depth or pack strategy
// is chosen here (stack_bounded's memory budget is the one option set,
// because the budget is the workload).
type workload struct {
	name      string
	why       string
	transport mpi.Transport
	ranks     int
	cycle     int // epochs after which the geometry sequence repeats
	needRank  int // a rank that holds a need buffer on every epoch
	setups    int // worlds an end-to-end run builds: setup_s is the fastest of their set-ups, each holds a share of the timed window
	build     func(seed uint64, short bool) *instance

	// ungated is why BENCHMARK.json does not list the workload, so that
	// the driver's check leaves it out; every other way of running it is
	// as for the rest.
	ungated string
}

// instance is a workload's generated inputs for one seed.
type instance struct {
	payload  float64    // useful bytes landing in need buffers per epoch (mean over the cycle)
	geoms    []geometry // global geometries the epochs redistribute, for the single-thread replays
	deltas   [][2][]grid.Box
	newRank  func(c *mpi.Comm, tr *rankTrace) (rankState, error)
	describe string

	floorSend [][][]byte // [rank][peer] floor-exchange payloads, filled after the timed window
}

// geometry is one global redistribution problem.
type geometry struct {
	elemSize int
	chunks   [][]grid.Box
	needs    []grid.Box
}

var workloads = []*workload{
	{name: "intransit_regrid", transport: mpi.TransportTCP, ranks: 12, cycle: 1, setups: 5, needRank: transitProducers, build: buildInTransit,
		why: "paper use case B steady state on tcp: 24 medium stream messages and 3 warm-plan 2-D regrids per epoch; mailbox match, TCP framing and strided unpack do the work, plan compile does none"},
	{name: "stack_to_bricks", transport: mpi.TransportInProc, ranks: 8, cycle: 1, setups: 5, build: func(s uint64, short bool) *instance { return buildStack(s, short, 0) },
		why: "paper use case A without the disk, inproc: the wire is nearly free, so 3-D strided pack/unpack, 16 rounds and staging dominate; a transport change must not move it"},
	{name: "stack_bounded", transport: mpi.TransportInProc, ranks: 8, cycle: 1, setups: 5, build: func(s uint64, short bool) *instance { return buildStack(s, short, stackBudget) },
		why:     "same geometry and bytes under a 256 KiB memory budget: the bounded step compiler and metered staging; speed bought with staging memory shows here",
		ungated: "its 126 steps an epoch read 1.6-1.8x their quiet time for minutes on end on a shared host; ten runs spread past the 0.25 bound"},
	{name: "fft_transpose", transport: mpi.TransportShm, ranks: 16, cycle: 1, setups: 3, build: buildFFT,
		why: "dense all-to-all on shm, 240 peer pairs of 64 KiB twice per epoch: issue order, incast, pipeline depth and ring occupancy do the work that sparse-neighbour workloads bypass"},
	{name: "elastic_churn", transport: mpi.TransportInProc, ranks: churnMax, cycle: churnLayouts, setups: 5, build: buildChurn,
		why: "geometry changes every epoch and few bytes move: SetupDataMapping, CompileDelta, allgather and allocation are the cost, the plan layer's write side that the warm-plan workloads only read"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// descBase is the accessor bookkeeping every workload shares: the
// descriptor whose plan the epochs replay and the staging high-water mark.
type descBase struct {
	desc        *core.Descriptor
	peakStaging int64
	setupCalls  int64
}

func (b *descBase) afterExchange(d *core.Descriptor) {
	b.peakStaging = max(b.peakStaging, d.LastPeakStaging())
}

func (b *descBase) stats(out *rankStats) {
	out.peakStaging = b.peakStaging
	out.setupCalls = b.setupCalls
	if d := b.desc; d != nil {
		if p := d.Plan(); p != nil {
			out.planRounds = p.Rounds()
		}
		out.boundedSteps = d.BoundedSteps()
		out.pipelineDepth = d.LastPipelineDepth()
		out.cacheHits, out.cacheMisses = d.PlanCacheStats()
	}
}

func (b *descBase) floor() (bool, error) { return false, nil }

// setupMapping is SetupDataMapping with its span and call count.
func (b *descBase) setupMapping(tr *rankTrace, parent int, d *core.Descriptor, c *mpi.Comm, own []grid.Box, need grid.Box) error {
	sp := tr.begin("core.setup_mapping", layerPlan, parent)
	err := d.SetupDataMapping(c, own, need)
	tr.end(sp)
	b.setupCalls++
	return err
}

// ---------------------------------------------------------------------
// stack_to_bricks / stack_bounded: use case A's redistribution, a z-stack
// dealt round-robin to the ranks that read it -> one brick per rank.

const stackBudget = 256 << 10

type stackRank struct {
	descBase
	c       *mpi.Comm
	seed    uint64
	domain  grid.Box
	need    grid.Box
	own     [][]byte
	needBuf []byte
}

func buildStack(seed uint64, short bool, budget int) *instance {
	const ranks = 8
	domain := grid.Box3(0, 0, 0, 256, 256, 128)
	if short {
		domain = grid.Box3(0, 0, 0, 32, 32, 32)
		budget /= 64 // keep the budget below the small problem's one-shot footprint
	}
	chunks := grid.RoundRobinSlices(domain, 2, ranks)
	needs := grid.Bricks3D(domain, 2, 2, 2)
	inst := &instance{
		payload:  float64(4 * domain.Volume()),
		geoms:    []geometry{{4, chunks, needs}},
		describe: fmt.Sprintf("%v float32 (%d MiB), %d slices/rank round-robin -> 2x2x2 bricks, budget %d B", domain, 4*domain.Volume()>>20, len(chunks[0]), budget),
	}
	inst.newRank = func(c *mpi.Comm, tr *rankTrace) (rankState, error) {
		r := c.Rank()
		s := &stackRank{c: c, seed: seed, domain: domain, need: needs[r], needBuf: make([]byte, 4*needs[r].Volume())}
		for _, b := range chunks[r] {
			buf := make([]byte, 4*b.Volume())
			fillBox(buf, b, domain, seed, 0)
			s.own = append(s.own, buf)
		}
		var opts []core.Option
		if budget > 0 {
			opts = append(opts, core.WithMemoryBudget(budget))
		}
		var err error
		if s.desc, err = core.NewDescriptor(ranks, core.Layout3D, core.Float32, opts...); err != nil {
			return nil, err
		}
		return s, s.setupMapping(tr, -1, s.desc, c, chunks[r], needs[r])
	}
	return inst
}

func (s *stackRank) epoch(g int, tr *rankTrace, root int) error {
	sp := tr.begin("core.exchange", layerExchange, root)
	err := s.desc.ReorganizeData(s.c, s.own, s.needBuf)
	tr.end(sp)
	if tr != nil {
		tr.exchange(sp, s.desc, tr.spans[sp].end, false)
	}
	s.afterExchange(s.desc)
	return err
}

func (s *stackRank) poison()         { poison(s.needBuf) }
func (s *stackRank) check() error    { return checkBox(s.needBuf, s.need, s.domain, s.seed, 0) }
func (s *stackRank) needs() [][]byte { return [][]byte{s.needBuf} }

// ---------------------------------------------------------------------
// intransit_regrid: use case B. Producers stream row slabs of three
// fields; consumers regrid what arrived into a 2x2 block layout.

const (
	transitFields    = 3
	transitProducers = 8
	transitConsumers = 4
)

type transitRank struct {
	descBase
	cp     *transit.Coupling
	rg     *transit.Regridder
	seed   uint64
	domain grid.Box

	fields [][]byte // producer: one slab buffer per field

	need     grid.Box // consumer
	needBufs [][]byte // one per field
	bufs     [][]byte
}

func buildInTransit(seed uint64, short bool) *instance {
	const producers, consumers = transitProducers, transitConsumers
	domain := grid.Box2(0, 0, 1024, 512)
	if short {
		domain = grid.Box2(0, 0, 64, 64)
	}
	slabs := grid.Slabs(domain, 1, producers)
	blocks := grid.Grid2D(domain, 2, 2)
	// The consumer group's redistribution problem: consumer k holds the
	// slabs of its producers and needs block k.
	geom := geometry{elemSize: 4, chunks: make([][]grid.Box, consumers), needs: blocks}
	edges := grid.SplitEven(producers, consumers)
	for k := 0; k < consumers; k++ {
		geom.chunks[k] = slabs[edges[k]:edges[k+1]]
	}
	inst := &instance{
		payload:  float64(transitFields * 4 * domain.Volume()),
		geoms:    []geometry{geom},
		describe: fmt.Sprintf("%v x %d float32 fields (%d KiB/epoch), %d producers -> %d consumers, 2x2 blocks", domain, transitFields, transitFields*4*domain.Volume()>>10, producers, consumers),
	}
	inst.newRank = func(world *mpi.Comm, tr *rankTrace) (rankState, error) {
		cp, err := transit.NewCoupling(world, producers, consumers)
		if err != nil {
			return nil, err
		}
		s := &transitRank{cp: cp, seed: seed, domain: domain}
		if cp.Role == transit.Producer {
			slab := slabs[cp.Local.Rank()]
			for f := 0; f < transitFields; f++ {
				buf := make([]byte, 4*slab.Volume())
				fillBox(buf, slab, domain, seed, f)
				s.fields = append(s.fields, buf)
			}
			return s, nil
		}
		k := cp.Local.Rank()
		s.need = blocks[k]
		for f := 0; f < transitFields; f++ {
			s.needBufs = append(s.needBufs, make([]byte, 4*s.need.Volume()))
		}
		if s.desc, err = core.NewDescriptor(consumers, core.Layout2D, core.Float32); err != nil {
			return nil, err
		}
		s.rg = transit.NewRegridder(s.desc, s.need)
		sp := tr.begin("transit.connect", layerTransit, -1)
		err = s.rg.Connect(cp.Local, geom.chunks[k])
		tr.end(sp)
		if tr != nil {
			tr.child("core.setup_mapping", layerPlan, sp, tr.spans[sp].start, tr.spans[sp].end)
		}
		s.setupCalls++
		return s, err
	}
	return inst
}

func (s *transitRank) epoch(g int, tr *rankTrace, root int) error {
	var waited int64 // in Recv this epoch: only the first field's arrival is ever waited for
	for f := 0; f < transitFields; f++ {
		step := g*transitFields + f
		if s.cp.Role == transit.Producer {
			sp := tr.begin("transit.send", layerTransit, root)
			err := s.cp.Send(step, s.fields[f])
			tr.end(sp)
			if err != nil {
				return err
			}
			continue
		}
		sp := tr.begin("transit.recv", layerTransit, root)
		msgs, err := s.cp.Recv(step)
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr != nil {
			waited += tr.spans[sp].end - tr.spans[sp].start
		}
		s.bufs = s.bufs[:0]
		for _, m := range msgs {
			s.bufs = append(s.bufs, m.Data)
		}
		sp = tr.begin("transit.regrid", layerTransit, root)
		err = s.rg.Regrid(s.cp.Local, s.bufs, s.needBufs[f])
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.exchange(sp, s.desc, tr.spans[sp].end, true)
		}
		s.afterExchange(s.desc)
	}
	if tr != nil && s.cp.Role == transit.Consumer {
		tr.calls["transit.recv_epoch"] = append(tr.calls["transit.recv_epoch"], float64(waited)/1e6)
	}
	return nil
}

func (s *transitRank) poison() {
	for _, b := range s.needBufs {
		poison(b)
	}
}

func (s *transitRank) check() error {
	for f, b := range s.needBufs {
		if err := checkBox(b, s.need, s.domain, s.seed, f); err != nil {
			return err
		}
	}
	return nil
}

func (s *transitRank) needs() [][]byte { return s.needBufs }

// ---------------------------------------------------------------------
// fft_transpose: one spectral timestep of fft.Dist2D per epoch.

const fftBlocks = 4 // chunks (exchange rounds) per transpose, as examples/fft

type fftRank struct {
	descBase
	c    *mpi.Comm
	d    *fft.Dist2D
	seed uint64
	base int // global index of this rank's first row cell
	inv  *core.Descriptor
}

func buildFFT(seed uint64, short bool) *instance {
	const ranks = 16
	n := 1024
	if short {
		n = 128
	}
	h := n / ranks
	// Forward (row slabs -> column pencils) and inverse geometries, as
	// Dist2D registers them.
	fwd := geometry{elemSize: 16, chunks: make([][]grid.Box, ranks), needs: make([]grid.Box, ranks)}
	inv := geometry{elemSize: 16, chunks: make([][]grid.Box, ranks), needs: make([]grid.Box, ranks)}
	for r := 0; r < ranks; r++ {
		fwd.chunks[r] = grid.Slabs(grid.Box2(0, r*h, n, h), 1, fftBlocks)
		fwd.needs[r] = grid.Box2(r*h, 0, h, n)
		inv.chunks[r] = grid.Slabs(grid.Box2(r*h, 0, h, n), 1, fftBlocks)
		inv.needs[r] = grid.Box2(0, r*h, n, h)
	}
	inst := &instance{
		payload:  float64(2 * 16 * n * n),
		geoms:    []geometry{fwd, inv},
		describe: fmt.Sprintf("%dx%d complex128 (%d MiB), %d blocks/transpose, epoch = Dist2D.Step", n, n, 16*n*n>>20, fftBlocks),
	}
	inst.newRank = func(c *mpi.Comm, tr *rankTrace) (rankState, error) {
		s := &fftRank{c: c, seed: seed, base: c.Rank() * h * n}
		sp := tr.begin("fft.NewDist2D", layerPlan, -1)
		d, err := fft.NewDist2D(c, n, fftBlocks)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			// Both mappings and the slab buffers; not separable from outside.
			tr.child("core.setup_mapping", layerPlan, sp, tr.spans[sp].start, tr.spans[sp].end)
		}
		s.d = d
		s.desc, s.inv = d.Descriptors()
		s.setupCalls = 2
		s.reset()
		return s, nil
	}
	return inst
}

func (s *fftRank) reset() {
	rows := s.d.Rows()
	for i := range rows {
		rows[i] = complexValue(s.seed, s.base+i)
	}
}

func (s *fftRank) epoch(g int, tr *rankTrace, root int) error {
	sp := tr.begin("fft.step", layerKernel, root)
	err := s.d.Step(s.c)
	tr.end(sp)
	if tr != nil {
		// The four kernel passes are private to Dist2D; lay the two
		// transposes out assuming they take equal time.
		step := tr.spans[sp]
		fwd, inv := sumDurations(s.desc), sumDurations(s.inv)
		pass := max(step.end-step.start-fwd-inv, 0) / 4
		tr.exchange(sp, s.desc, step.start+pass+fwd, true)
		tr.exchange(sp, s.inv, step.end-pass, true)
		tr.calls["fft.transpose_fwd"] = append(tr.calls["fft.transpose_fwd"], float64(fwd)/1e6)
		tr.calls["fft.transpose_inv"] = append(tr.calls["fft.transpose_inv"], float64(inv)/1e6)
		tr.calls["fft.kernel"] = append(tr.calls["fft.kernel"], float64(4*pass)/1e6)
	}
	s.afterExchange(s.desc)
	s.afterExchange(s.inv)
	return err
}

func sumDurations(d *core.Descriptor) int64 {
	var total int64
	for _, rt := range d.LastTimings() {
		total += int64(rt.Duration)
	}
	return total
}

// poison resets the rows to the oracle (so rounding does not accumulate
// past one verification stride) and scribbles over the pencils, which
// the forward transpose must overwrite completely.
func (s *fftRank) poison() {
	s.reset()
	p := s.d.Pencils()
	poison(unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), 16*len(p)))
}

func (s *fftRank) check() error { return checkComplex(s.d.Rows(), s.base, s.seed) }

func (s *fftRank) needs() [][]byte {
	r := s.d.Rows()
	return [][]byte{unsafe.Slice((*byte)(unsafe.Pointer(&r[0])), 16*len(r))}
}

func (s *fftRank) floor() (bool, error) { return true, s.d.HandStep(s.c) }

// ---------------------------------------------------------------------
// elastic_churn: the consumer group resizes every epoch and the
// producers come back with a different chunk layout every epoch.

const (
	churnMin     = 12
	churnMax     = 17
	churnLayouts = 64 // distinct layouts: more than the 8-entry plan and delta caches hold
	churnChunks  = 16 // producer chunks per consumer rank
)

// churnStep is one epoch of the cycle: the group goes from `from` to
// `to` ranks (Resize moves field 0) and the producers return with tiling
// (Connect + Regrid bring in field 1).
type churnStep struct {
	from, to int
	tiling   []grid.Box // churnChunks*to boxes, rank r owns [r*churnChunks, (r+1)*churnChunks)
}

type churnRank struct {
	descBase
	rank   int
	seed   uint64
	domain grid.Box
	steps  []churnStep
	comms  map[int]*mpi.Comm // group size -> communicator of ranks [0, size)

	rg       *transit.Regridder // nil while this rank is outside the group
	size     int                // current group size
	state    map[int][]byte     // field 0 per group size: the data a resize moves
	arrivals map[int][]byte     // field 1 per group size: what a regrid lands
	own      [][][]byte         // [step][chunk] producer buffers of field 1

	retired rankStats // cache counters of sessions this rank has left behind
	moved   int64
	needed  int64
}

func churnNeed(domain grid.Box, size, rank int) grid.Box {
	if rank >= size {
		return grid.Box{}
	}
	return grid.Slabs(domain, 0, size)[rank]
}

func buildChurn(seed uint64, short bool) *instance {
	domain := grid.Box2(0, 0, 2048, 256)
	if short {
		domain = grid.Box2(0, 0, 256, 64)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	// A closed ±1 walk: from every position only moves that stay in
	// range and can still return to the start in the steps left.
	steps := make([]churnStep, churnLayouts)
	first := churnMin + rng.Intn(churnMax-churnMin+1)
	at := first
	for i := range steps {
		left := churnLayouts - i - 1
		var moves []int
		for _, to := range []int{at - 1, at + 1} {
			if to >= churnMin && to <= churnMax && abs(to-first) <= left {
				moves = append(moves, to)
			}
		}
		to := moves[rng.Intn(len(moves))]
		steps[i] = churnStep{from: at, to: to, tiling: grid.RandomTiling(rng, domain, churnChunks*to)}
		at = to
	}
	inst := &instance{describe: fmt.Sprintf("%v float32 x 2 fields, group walks %d..%d ranks from %d, %d layouts of %d chunks/rank", domain, churnMin, churnMax, first, churnLayouts, churnChunks)}
	for _, st := range steps {
		size := max(st.from, st.to)
		oldNeeds, newNeeds := make([]grid.Box, size), make([]grid.Box, size)
		g := geometry{elemSize: 4, chunks: make([][]grid.Box, st.to), needs: make([]grid.Box, st.to)}
		for r := 0; r < size; r++ {
			oldNeeds[r], newNeeds[r] = emptyAs2D(churnNeed(domain, st.from, r)), emptyAs2D(churnNeed(domain, st.to, r))
		}
		for r := 0; r < st.to; r++ {
			g.chunks[r], g.needs[r] = st.tiling[r*churnChunks:(r+1)*churnChunks], newNeeds[r]
		}
		inst.geoms = append(inst.geoms, g)
		inst.deltas = append(inst.deltas, [2][]grid.Box{oldNeeds, newNeeds})
		// Both fields land whole in the new group's need buffers.
		inst.payload += float64(2*4*domain.Volume()) / churnLayouts
	}
	inst.newRank = func(world *mpi.Comm, tr *rankTrace) (rankState, error) {
		s := &churnRank{rank: world.Rank(), seed: seed, domain: domain, steps: steps, size: first,
			comms: map[int]*mpi.Comm{}, state: map[int][]byte{}, arrivals: map[int][]byte{}}
		for size := churnMin; size <= churnMax; size++ {
			color := -1
			if s.rank < size {
				color = 0
			}
			c, err := world.Split(color, s.rank)
			if err != nil {
				return nil, err
			}
			s.comms[size] = c
			if s.rank < size {
				need := churnNeed(domain, size, s.rank)
				s.state[size] = make([]byte, 4*need.Volume())
				s.arrivals[size] = make([]byte, 4*need.Volume())
			}
		}
		s.own = make([][][]byte, len(steps))
		for i, st := range steps {
			if s.rank >= st.to {
				continue
			}
			for _, b := range st.tiling[s.rank*churnChunks : (s.rank+1)*churnChunks] {
				buf := make([]byte, 4*b.Volume())
				fillBox(buf, b, domain, seed, 1)
				s.own[i] = append(s.own[i], buf)
			}
		}
		if s.rank < first {
			need := churnNeed(domain, first, s.rank)
			fillBox(s.state[first], need, domain, seed, 0)
			if err := s.openSession(first, need); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	return inst
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// emptyAs2D gives "not in the group" the dimensionality CompileDelta wants.
func emptyAs2D(b grid.Box) grid.Box {
	if b.NDims == 0 {
		return grid.Box2(0, 0, 0, 0)
	}
	return b
}

func (s *churnRank) openSession(size int, need grid.Box) error {
	d, err := core.NewDescriptor(size, core.Layout2D, core.Float32)
	if err != nil {
		return err
	}
	s.desc = d
	s.rg = transit.NewRegridder(d, need)
	return nil
}

// retire keeps a session's cache counters when the rank leaves the group
// and drops the session.
func (s *churnRank) retire() {
	var total rankStats
	s.stats(&total)
	s.retired = rankStats{cacheHits: total.cacheHits, cacheMisses: total.cacheMisses,
		deltaHits: total.deltaHits, deltaMisses: total.deltaMisses}
	s.rg, s.desc = nil, nil
}

// stats adds the counters of retired sessions to the live one's.
func (s *churnRank) stats(out *rankStats) {
	s.descBase.stats(out)
	if s.rg != nil {
		out.deltaHits, out.deltaMisses = s.rg.ResizeCacheStats()
	}
	out.cacheHits += s.retired.cacheHits
	out.cacheMisses += s.retired.cacheMisses
	out.deltaHits += s.retired.deltaHits
	out.deltaMisses += s.retired.deltaMisses
	out.movedBytes, out.needBytes = s.moved, s.needed
}

func (s *churnRank) epoch(g int, tr *rankTrace, root int) error {
	i := g % len(s.steps)
	st := s.steps[i]
	s.size = st.to
	if s.rank >= max(st.from, st.to) {
		return nil
	}
	// A rank outside the group joins through a fresh session.
	if s.rg == nil {
		if err := s.openSession(st.from, grid.Box{}); err != nil {
			return err
		}
	}
	newNeed := churnNeed(s.domain, st.to, s.rank)
	sp := tr.begin("transit.resize", layerTransit, root)
	rep, err := s.rg.Resize(s.comms[max(st.from, st.to)], newNeed, s.state[st.from], s.state[st.to])
	tr.end(sp)
	if err != nil {
		return err
	}
	s.moved += rep.MovedBytes
	s.needed += rep.NeedBytes
	if s.rg.Abandoned() {
		s.retire()
		return nil
	}
	c := s.comms[st.to]
	sp = tr.begin("transit.connect", layerTransit, root)
	err = s.rg.Connect(c, st.tiling[s.rank*churnChunks:(s.rank+1)*churnChunks])
	tr.end(sp)
	s.setupCalls++
	if err != nil {
		return err
	}
	if tr != nil {
		// Connect is SetupDataMapping and nothing else.
		tr.child("core.setup_mapping", layerPlan, sp, tr.spans[sp].start, tr.spans[sp].end)
	}
	sp = tr.begin("transit.regrid", layerTransit, root)
	err = s.rg.Regrid(c, s.own[i], s.arrivals[st.to])
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.exchange(sp, s.desc, tr.spans[sp].end, true)
	}
	s.afterExchange(s.desc)
	return nil
}

// poison scribbles over the buffers the next epoch must fill. The group
// size after the coming epoch is not known here, so every size's arrival
// buffer and every state buffer but the live one is poisoned.
func (s *churnRank) poison() {
	for size, b := range s.state {
		if size != s.size {
			poison(b)
		}
	}
	for _, b := range s.arrivals {
		poison(b)
	}
}

func (s *churnRank) check() error {
	if s.rank >= s.size {
		return nil
	}
	need := churnNeed(s.domain, s.size, s.rank)
	if err := checkBox(s.state[s.size], need, s.domain, s.seed, 0); err != nil {
		return fmt.Errorf("after resize to %d ranks: %w", s.size, err)
	}
	if err := checkBox(s.arrivals[s.size], need, s.domain, s.seed, 1); err != nil {
		return fmt.Errorf("after regrid on %d ranks: %w", s.size, err)
	}
	return nil
}

func (s *churnRank) needs() [][]byte {
	if b := s.arrivals[s.size]; b != nil {
		return [][]byte{b}
	}
	return nil
}
