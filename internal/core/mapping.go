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
// ranks first agree on a fingerprint of the global geometry and on
// whether every rank holds a cached plan for it, in one small allgather
// (plancache.go); if so the geometry allgather, validation, and
// compilation are all skipped and the cached plan is replayed — that one
// allgather is the steady-state cost of re-establishing a mapping whose
// layout did not change (the in-transit reconnect cycle). A miss adds the
// geometry allgather and this rank's own compile.
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
	var key cacheKey
	if d.cache != nil {
		cached, k, ok, err := d.cache.lookup(c, enc, d.fpSalt(), func(p *Plan) bool {
			return planMatchesLocal(p, c.Rank(), own, need)
		})
		key = k
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
	allNeeds, allChunks, err := decodeGeometries(packed)
	if err != nil {
		return err
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
		plan.fp = key.fp
		d.cache.put(key, plan)
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
// worker pool: a (round, peer, direction) slot plus the overlap the type
// packs or scatters — inside the rank's round-r chunk for a send, inside
// its need box for a receive. Slots are unique per job, so the batch runs
// at any parallelism with no synchronization beyond the join.
type typeJob struct {
	r, peer int
	region  grid.Box
	recv    bool
	pos     int // the entry slot in the plan's sparse table
}

// scheduleCompiler holds the geometry-wide state of plan compilation: the
// gathered geometry, the round count and, for whole-schedule compiles
// only, spatial indexes over the need boxes (send discovery) and the
// flattened chunk list (receive discovery). One rank's compile asks a
// query per own chunk and one for its need box, which an O(C log C) bulk
// load never repays, so compilePlan scans instead; CompileSchedule builds
// the indexes once, where they replace P scans of all P peers.
type scheduleCompiler struct {
	elemSize  int
	allChunks [][]grid.Box
	allNeeds  []grid.Box
	rounds    int

	needIx    *grid.Index // nil: discover by linear scan
	chunkIx   *grid.Index
	flat      []grid.Box // all chunks, peer-major, round ascending
	flatPeer  []int
	flatRound []int
}

func newScheduleCompiler(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, indexed bool) *scheduleCompiler {
	sc := &scheduleCompiler{elemSize: elemSize, allChunks: allChunks, allNeeds: allNeeds}
	total := 0
	for _, chunks := range allChunks {
		sc.rounds = max(sc.rounds, len(chunks))
		total += len(chunks)
	}
	if !indexed {
		return sc
	}
	sc.flat = make([]grid.Box, 0, total)
	sc.flatPeer = make([]int, 0, total)
	sc.flatRound = make([]int, 0, total)
	for peer, chunks := range sc.allChunks {
		for r, b := range chunks {
			sc.flat = append(sc.flat, b)
			sc.flatPeer = append(sc.flatPeer, peer)
			sc.flatRound = append(sc.flatRound, r)
		}
	}
	sc.needIx = grid.NewIndex(sc.allNeeds)
	sc.chunkIx = grid.NewIndex(sc.flat)
	return sc
}

// discover collects the (round, peer) pairs of p's rank that overlap:
// first the sends, round-major with peers ascending inside each round —
// the entry order of the sparse table — then the receives, peer-major
// (compile buckets those by round). The indexes return candidates
// ascending, so both strategies emit the same jobs in the same order;
// empty boxes intersect nothing and drop out of either.
func (sc *scheduleCompiler) discover(p *Plan) (jobs []typeJob, nSend int) {
	if sc.needIx != nil {
		var hits []int
		for r, chunk := range p.myChunks {
			hits = sc.needIx.QueryAppend(hits[:0], chunk)
			for _, peer := range hits {
				if ov, ok := chunk.Intersect(sc.allNeeds[peer]); ok {
					jobs = append(jobs, typeJob{r: r, peer: peer, region: ov})
				}
			}
		}
		nSend = len(jobs)
		hits = sc.chunkIx.QueryAppend(hits[:0], p.need)
		for _, id := range hits {
			if ov, ok := sc.flat[id].Intersect(p.need); ok {
				jobs = append(jobs, typeJob{r: sc.flatRound[id], peer: sc.flatPeer[id], region: ov, recv: true})
			}
		}
		return jobs, nSend
	}
	for r, chunk := range p.myChunks {
		for peer, need := range sc.allNeeds {
			if ov, ok := chunk.Intersect(need); ok {
				jobs = append(jobs, typeJob{r: r, peer: peer, region: ov})
			}
		}
	}
	nSend = len(jobs)
	for peer, chunks := range sc.allChunks {
		for r, chunk := range chunks {
			if ov, ok := chunk.Intersect(p.need); ok {
				jobs = append(jobs, typeJob{r: r, peer: peer, region: ov, recv: true})
			}
		}
	}
	return jobs, nSend
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

// compile builds rank's plan. Subarray construction and contiguity
// analysis fan out across par workers (datatype.ForkJoin); the result is
// byte-identical to the brute-force reference at any parallelism and
// under either discovery strategy.
func (sc *scheduleCompiler) compile(rank, par int) (*Plan, error) {
	rounds := sc.rounds
	p := &Plan{
		elemSize:  sc.elemSize,
		rank:      rank,
		nProcs:    len(sc.allNeeds),
		rounds:    rounds,
		myChunks:  sc.allChunks[rank],
		need:      sc.allNeeds[rank],
		allChunks: sc.allChunks,
		allNeeds:  sc.allNeeds,
	}
	jobs, nSend := sc.discover(p)

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
		e, base, dir := &p.recvE, p.need, "recv type from"
		if !j.recv {
			e, base, dir = &p.sendE, p.myChunks[j.r], "send type to"
		}
		t, err := datatype.NewSubarray(sc.elemSize, base, j.region)
		if err != nil {
			errs[i] = fmt.Errorf("core: %s rank %d: %w", dir, j.peer, err)
			return
		}
		off, n, ok := t.ContiguousSpan()
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
// the path SetupDataMapping and NewPlanFromGeometry take. It is per-rank
// work, as in the paper's DDR_SetupDataMapping: O(C_r·P + C) overlap
// tests and no index.
func compilePlan(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) (*Plan, error) {
	return newScheduleCompiler(elemSize, allChunks, allNeeds, false).compile(rank, par)
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
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds, true)
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
