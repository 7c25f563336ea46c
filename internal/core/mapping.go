package core

import (
	"fmt"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// Plan is the compiled communication schedule produced by
// SetupDataMapping. It is immutable and may be replayed by
// ReorganizeData any number of times while the data layout stays the
// same — only the data values need to be fresh (the paper's "dynamic
// data" property). Because it is immutable it may also be shared: the
// plan cache hands the same *Plan back to repeated setups of one
// geometry.
type Plan struct {
	elemSize int
	rank     int
	nProcs   int
	rounds   int

	// fp is the collectively agreed fingerprint of the global geometry the
	// plan was compiled for. Exchange trace IDs are minted from it, so the
	// timelines of repeated exchanges on one layout correlate across ranks
	// (and across runs) without any extra communication.
	fp uint64

	myChunks []grid.Box
	need     grid.Box

	allChunks [][]grid.Box // [rank][chunk]
	allNeeds  []grid.Box   // [rank]

	// The per-round exchange tables, stored sparsely: one entry per
	// actual overlap instead of a dense (round, peer) matrix. A rank's
	// plan at P processes holds O(overlaps) state rather than O(R·P) —
	// the dense tables were >99% Empty sentinels at scale, and their
	// allocation and zeroing dominated plan compilation long before the
	// overlap math did. Entries carry the packing type and its contiguity
	// span together (a contiguous send needs no pack, a contiguous
	// receive no scatter — detected at compile time so the exchange fast
	// paths pay no per-call analysis). The alltoallw exchange, whose wire
	// format is a dense row per round, materializes rows into reusable
	// descriptor scratch.
	sendE planEntries // packing from the round's chunk buffer
	recvE planEntries // scattering into the need buffer

	// bounded is the memory-bounded step schedule, attached by
	// ensureBounded when a WithMemoryBudget descriptor maps a geometry
	// whose single-shot footprint exceeds the budget, nil otherwise (see
	// bounded.go).
	bounded *boundedPlan

	// The executor's step lists for the round tables above, compiled on
	// first use (steps.go).
	roundSched, fusedSched []step
}

// planEntries is one direction's sparse exchange table: the overlap
// entries of all rounds concatenated round-major, peers ascending within
// each round (self included), with off[r]..off[r+1] delimiting round r.
type planEntries struct {
	off   []int // [rounds+1]
	peers []int
	types []datatype.Type
	spans []contigSpan

	left []int // compile-time scratch: unassigned slots per round
}

// at returns round r's entry for peer, or the Empty sentinel when the
// pair exchanges nothing. Peers are sorted within a round, so the lookup
// is a binary search over that round's few entries.
func (e *planEntries) at(r, peer int) (datatype.Type, contigSpan) {
	lo, hi := e.off[r], e.off[r+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.peers[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < e.off[r+1] && e.peers[lo] == peer {
		return e.types[lo], e.spans[lo]
	}
	return datatype.Empty{}, contigSpan{}
}

// contigSpan records whether a plan entry is contiguous in its local
// array and, if so, where.
type contigSpan struct {
	off, n int
	ok     bool
}

// Rounds returns the number of exchange rounds, which equals the maximum
// number of chunks owned by any single rank (paper §III-C).
func (p *Plan) Rounds() int { return p.rounds }

// Need returns the box this rank receives.
func (p *Plan) Need() grid.Box { return p.need }

// MyChunks returns the boxes this rank contributed as owned data.
func (p *Plan) MyChunks() []grid.Box { return p.myChunks }

// SetupDataMapping computes the data mapping between all ranks. It is a
// collective call: every rank passes the chunks it currently owns (any
// number, including zero) and the single contiguous box it needs after
// redistribution. It corresponds to DDR_SetupDataMapping(rank, nProcs,
// nChunks, ownDims, ownOffsets, needDims, needOffsets, desc) — rank and
// nProcs come from the communicator and each (dims, offset) pair is a
// grid.Box.
//
// Owned chunks must be mutually exclusive across ranks and collectively
// complete over the domain; need boxes may overlap and need not cover the
// domain (paper §III-B). With WithValidation the exclusivity/completeness
// precondition is checked collectively and violations are reported.
//
// When the plan cache is enabled (the default, see WithPlanCache), the
// ranks first agree collectively on a fingerprint of the global geometry;
// if every rank holds a cached plan for it, the geometry allgather,
// validation, and compilation are all skipped and the cached plan is
// replayed — the steady-state cost of re-establishing a mapping whose
// layout did not change (the in-transit reconnect cycle) is two tiny
// collectives.
func (d *Descriptor) SetupDataMapping(c *mpi.Comm, own []grid.Box, need grid.Box) error {
	if c.Size() != d.nProcs {
		return fmt.Errorf("core: descriptor is for %d processes but communicator has %d: %w",
			d.nProcs, c.Size(), ErrCommMismatch)
	}
	if err := d.checkBoxDims(need, "need"); err != nil {
		return err
	}
	for i, b := range own {
		if err := d.checkBoxDims(b, fmt.Sprintf("owned chunk %d", i)); err != nil {
			return err
		}
	}

	wr := c.WorldRank(c.Rank())
	d.buildObs(wr)
	o := d.obsv
	var mapStart time.Time
	if o.on() {
		mapStart = time.Now()
	}
	endSpan := d.tracer.Span(o.Rank(c), "mapping", 0)
	defer endSpan()

	enc := encodeGeometry(need, own)
	if d.cache != nil {
		cached, ok, err := d.cache.lookup(c, enc, d.fpSalt(), func(p *Plan) bool {
			return planMatchesLocal(p, c.Rank(), own, need)
		})
		if err != nil {
			return fmt.Errorf("core: plan cache agreement: %w", err)
		}
		if ok {
			if err := d.ensureBounded(cached); err != nil {
				return err
			}
			d.plan = cached
			d.cacheHits.Add(1)
			if o.on() {
				o.cacheHits.Inc()
			}
			d.flight.Record(obs.FlightEvent{Kind: obs.FlightCacheHit, Rank: int32(wr), Peer: -1})
			return nil
		}
		d.cacheMisses.Add(1)
		if o.on() {
			o.cacheMisses.Inc()
		}
		d.flight.Record(obs.FlightEvent{Kind: obs.FlightCacheMiss, Rank: int32(wr), Peer: -1})
	}

	packed, err := c.Allgather(enc)
	if err != nil {
		return fmt.Errorf("core: geometry exchange: %w", err)
	}
	allChunks := make([][]grid.Box, c.Size())
	allNeeds := make([]grid.Box, c.Size())
	for r, buf := range packed {
		allNeeds[r], allChunks[r], err = decodeGeometry(buf)
		if err != nil {
			return fmt.Errorf("core: geometry from rank %d: %w", r, err)
		}
	}

	if d.validate {
		if err := validateOwnership(allChunks); err != nil {
			return err
		}
	}

	var compileStart time.Time
	if o.on() {
		compileStart = time.Now()
	}
	plan, err := compilePlan(c.Rank(), d.elemSize, allChunks, allNeeds, d.parallelism())
	if err != nil {
		return err
	}
	if o.on() {
		now := time.Now()
		o.rec.AddSpan(o.rank, "compile", compileStart, now, 0)
		o.planCompile.Observe(now.Sub(mapStart).Seconds())
		o.compilePar.Observe(float64(d.parallelism()))
	}
	if err := d.ensureBounded(plan); err != nil {
		return err
	}
	if d.cache != nil {
		// The cache lookup already agreed on the fingerprint collectively;
		// reuse it so the stored plan replays with the same identity.
		plan.fp = d.cache.lastKey.fp
		d.cache.store(plan)
	} else {
		plan.fp = saltHash(topoHash(geometryFingerprint(packed), c), d.fpSalt())
	}
	d.plan = plan
	return nil
}

// planMatchesLocal confirms a cached plan was compiled from exactly this
// rank's current contribution — the local half of the defense against a
// fingerprint collision handing back a plan for a different geometry. A
// rank whose contribution differs reports a cache miss, and the collective
// agreement then routes every rank through the full compile path.
func planMatchesLocal(p *Plan, rank int, own []grid.Box, need grid.Box) bool {
	if p.rank != rank || !p.need.Equal(need) || len(p.myChunks) != len(own) {
		return false
	}
	for i, b := range own {
		if !p.myChunks[i].Equal(b) {
			return false
		}
	}
	return true
}

// Rank returns the trace lane for spans recorded against the
// communicator: the world rank when observation is attached, the local
// rank otherwise (matching the pre-telemetry behaviour).
func (o *exchObs) Rank(c *mpi.Comm) int {
	if o == nil {
		return c.Rank()
	}
	return o.rank
}

// validateOwnership enforces the paper's sending-side precondition: the
// owned chunks of all ranks are pairwise disjoint and tile their bounding
// box exactly. Overlap reports carry the owning ranks and every
// conflicting pair (bounded), so a broken layout at scale is diagnosable
// from one error.
func validateOwnership(allChunks [][]grid.Box) error {
	var flat []grid.Box
	owner := make([]int, 0)
	for r, chunks := range allChunks {
		for _, b := range chunks {
			flat = append(flat, b)
			owner = append(owner, r)
		}
	}
	domain, ok := grid.BoundingBox(flat)
	if !ok {
		return fmt.Errorf("core: no rank owns any data")
	}
	if err := grid.VerifyTilingOwned(domain, flat, owner); err != nil {
		if ce, ok := err.(*grid.CoverageError); ok && len(ce.Overlaps) > 0 {
			return fmt.Errorf("core: owned data is not mutually exclusive: %w", ce)
		}
		return fmt.Errorf("core: owned data does not tile the domain %v: %w", domain, err)
	}
	return nil
}

// NewPlanFromGeometry compiles a communication plan directly from a full
// global geometry description without any communication: allChunks[r]
// lists the chunks rank r owns and allNeeds[r] the box it needs. This is
// the offline twin of SetupDataMapping, used for schedule analysis (the
// paper's Table III) and capacity planning at scales larger than the
// running world.
func NewPlanFromGeometry(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	if len(allChunks) != len(allNeeds) {
		return nil, fmt.Errorf("core: %d chunk lists for %d need boxes", len(allChunks), len(allNeeds))
	}
	if rank < 0 || rank >= len(allNeeds) {
		return nil, fmt.Errorf("core: rank %d out of range [0,%d)", rank, len(allNeeds))
	}
	return compilePlan(rank, elemSize, allChunks, allNeeds, 0)
}

// typeJob is one subarray-type construction the compiler fans across the
// worker pool: a (round, peer, direction) slot plus the geometry the type
// is built from. Slots are unique per job, so the batch runs at any
// parallelism with no synchronization beyond the join.
type typeJob struct {
	r, peer int
	base    grid.Box // the array the type addresses (chunk or need box)
	region  grid.Box // the overlap packed/scattered
	recv    bool
	pos     int // the entry slot in the plan's sparse table
}

// scheduleCompiler holds the geometry-wide state of plan compilation: the
// spatial index over the need boxes (driving send discovery), the
// flattened chunk list with its index (driving receive discovery), and
// the round count. Building it costs O(C log C) in the total chunk count;
// compiling one rank against it costs only that rank's overlaps. The
// separation is what makes whole-schedule analysis (CompileSchedule, the
// ddrplan sweeps) scale: the indexes are built once and shared across all
// P rank compiles instead of being rebuilt — or worse, replaced by P
// brute-force scans of all P peers — per rank.
type scheduleCompiler struct {
	elemSize  int
	allChunks [][]grid.Box
	allNeeds  []grid.Box
	rounds    int

	needIx    *grid.Index
	chunkIx   *grid.Index
	flat      []grid.Box // all chunks, peer-major, round ascending
	flatPeer  []int
	flatRound []int
}

func newScheduleCompiler(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) *scheduleCompiler {
	sc := &scheduleCompiler{elemSize: elemSize, allChunks: allChunks, allNeeds: allNeeds}
	totalChunks := 0
	for _, chunks := range allChunks {
		sc.rounds = max(sc.rounds, len(chunks))
		totalChunks += len(chunks)
	}
	sc.flat = make([]grid.Box, 0, totalChunks)
	sc.flatPeer = make([]int, 0, totalChunks)
	sc.flatRound = make([]int, 0, totalChunks)
	for peer, chunks := range allChunks {
		for r, b := range chunks {
			sc.flat = append(sc.flat, b)
			sc.flatPeer = append(sc.flatPeer, peer)
			sc.flatRound = append(sc.flatRound, r)
		}
	}
	sc.needIx = grid.NewIndex(allNeeds)
	sc.chunkIx = grid.NewIndex(sc.flat)
	return sc
}

// fillEmpty stamps the Empty sentinel into every slot by doubling copy —
// memmove speed instead of an interface store per element.
func fillEmpty(ts []datatype.Type) {
	if len(ts) == 0 {
		return
	}
	ts[0] = datatype.Empty{}
	for n := 1; n < len(ts); n *= 2 {
		copy(ts[n:], ts[:n])
	}
}

// compile builds rank's plan against the shared indexes. Subarray
// construction and contiguity analysis fan out across par workers
// (datatype.ForkJoin); the result is byte-identical to the brute-force
// reference at any parallelism.
func (sc *scheduleCompiler) compile(rank, par int) (*Plan, error) {
	nProcs := len(sc.allNeeds)
	rounds := sc.rounds
	p := &Plan{
		elemSize:  sc.elemSize,
		rank:      rank,
		nProcs:    nProcs,
		rounds:    rounds,
		myChunks:  sc.allChunks[rank],
		need:      sc.allNeeds[rank],
		allChunks: sc.allChunks,
		allNeeds:  sc.allNeeds,
	}

	// Discovery: collect the (round, peer) pairs that actually overlap.
	// Candidate sets come back from the indexes ascending, preserving the
	// peer ordering the brute-force compiler produced.
	var jobs []typeJob
	var hits []int

	// Sends: my round-r chunk against the indexed need boxes. Jobs arrive
	// round-major with peers ascending inside each round â already the
	// entry order of the sparse table.
	for r, chunk := range p.myChunks {
		hits = sc.needIx.QueryAppend(hits[:0], chunk)
		for _, peer := range hits {
			ov, ok := chunk.Intersect(sc.allNeeds[peer])
			if !ok {
				continue
			}
			jobs = append(jobs, typeJob{r: r, peer: peer, base: chunk, region: ov})
		}
	}
	nSend := len(jobs)

	// Receives: my need box against the indexed flattened chunk list.
	// Flat order is peer-major, so hits arrive with ascending peers; the
	// sparse table is round-major, so these jobs are bucketed by round
	// below.
	hits = sc.chunkIx.QueryAppend(hits[:0], p.need)
	for _, id := range hits {
		peer, r := sc.flatPeer[id], sc.flatRound[id]
		ov, ok := sc.flat[id].Intersect(p.need)
		if !ok {
			continue
		}
		jobs = append(jobs, typeJob{r: r, peer: peer, base: p.need, region: ov, recv: true})
	}

	// Lay out the sparse tables: prefix-sum the per-round entry counts
	// into offsets and assign each job its slot. Send jobs are already
	// round-major; receive jobs land at their round's next free slot,
	// which keeps peers ascending because they arrived peer-major.
	p.sendE = newPlanEntries(rounds, jobs[:nSend])
	p.recvE = newPlanEntries(rounds, jobs[nSend:])
	for i := range jobs {
		j := &jobs[i]
		e := &p.sendE
		if j.recv {
			e = &p.recvE
		}
		j.pos = e.off[j.r+1] - e.left[j.r]
		e.left[j.r]--
		e.peers[j.pos] = j.peer
	}
	p.sendE.left, p.recvE.left = nil, nil

	// Construction: build the subarray types and their contiguity spans
	// across the pool. Each job owns its slot, and errors are reported by
	// the lowest failing job for determinism.
	errs := make([]error, len(jobs))
	datatype.ForkJoin(len(jobs), par, func(i int) {
		j := &jobs[i]
		t, err := datatype.NewSubarray(sc.elemSize, j.base, j.region)
		if err != nil {
			dir := "send type to"
			if j.recv {
				dir = "recv type from"
			}
			errs[i] = fmt.Errorf("core: %s rank %d: %w", dir, j.peer, err)
			return
		}
		off, n, ok := t.ContiguousSpan()
		e := &p.sendE
		if j.recv {
			e = &p.recvE
		}
		e.types[j.pos] = t
		e.spans[j.pos] = contigSpan{off: off, n: n, ok: ok}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// newPlanEntries sizes one direction's sparse table for a job batch:
// counts per round become the off prefix sums, and left temporarily
// tracks each round's unassigned slots while jobs claim positions.
func newPlanEntries(rounds int, jobs []typeJob) planEntries {
	e := planEntries{off: make([]int, rounds+1), left: make([]int, rounds)}
	for i := range jobs {
		e.left[jobs[i].r]++
	}
	for r := 0; r < rounds; r++ {
		e.off[r+1] = e.off[r] + e.left[r]
	}
	n := len(jobs)
	e.peers = make([]int, n)
	e.types = make([]datatype.Type, n)
	e.spans = make([]contigSpan, n)
	return e
}

// compilePlan builds one rank's plan from the gathered global geometry —
// the path SetupDataMapping takes after its allgather. Overlap discovery
// runs through the spatial indexes of a fresh scheduleCompiler.
func compilePlan(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) (*Plan, error) {
	return newScheduleCompiler(elemSize, allChunks, allNeeds).compile(rank, par)
}

// CompileSchedule compiles every rank's plan from a full global geometry
// with one shared set of spatial indexes — the whole-schedule analogue of
// NewPlanFromGeometry for offline analysis (ddrplan sweeps, capacity
// planning, the paper's Table II at arbitrary scale). Sharing the indexes
// is what removes the O(P²) cost of constructing all P schedules by
// brute-force peer scans. par bounds the construction parallelism per
// rank compile; <= 0 means GOMAXPROCS.
func CompileSchedule(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) ([]*Plan, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	if len(allChunks) != len(allNeeds) {
		return nil, fmt.Errorf("core: %d chunk lists for %d need boxes", len(allChunks), len(allNeeds))
	}
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds)
	plans := make([]*Plan, len(allNeeds))
	errs := make([]error, len(allNeeds))
	// Ranks compile independently against the shared read-only indexes, so
	// the schedule fans out rank-per-worker; each rank's own construction
	// then runs serially (par 1) to avoid nested pools. Errors surface from
	// the lowest failing rank for determinism.
	datatype.ForkJoin(len(plans), par, func(rank int) {
		plans[rank], errs[rank] = sc.compile(rank, 1)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}
