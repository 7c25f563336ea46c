package core

import (
	"fmt"
	"runtime"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// Plan is the compiled communication schedule produced by
// SetupDataMapping: a step list (exec.go), the one form every exchange
// path, summary and test hook reads. Outside the planted-bug hooks
// (testhook.go) nothing rewrites it once compiled — what it moves, between
// whom, in which round, through which datatype — so ReorganizeData may replay it any number of times while the data
// layout stays the same (only the data values need to be fresh: the
// paper's "dynamic data" property), and the plan cache may hand the same
// *Plan back to repeated setups of one geometry.
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

	// sched is the schedule itself, one step per round (round r moves every
	// rank's r-th chunk): the round's local move, if this rank's chunk
	// overlaps its own need, then one single-seg message per peer in
	// ascending peer order on the round's own tag, each seg carrying its
	// packing type and contiguity span (a contiguous send needs no pack, a
	// contiguous receive no scatter — detected at compile time so the
	// exchange fast paths pay no per-call analysis). It holds one seg per
	// actual overlap, O(overlaps) rather than O(rounds·procs) state. Every
	// reader of the plan reads this list: the step executor replays it, the
	// alltoallw oracle scatters a round's segs into its dense rows, and the
	// summary and the test hooks walk it.
	sched []step

	// bounded is this rank's schedule under the descriptor's memory budget,
	// attached by ensureBounded when a WithMemoryBudget descriptor maps the
	// geometry, nil otherwise (see bounded.go).
	bounded *boundedPlan
}

// contigSpan records whether a seg's region is contiguous in its local
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
	par := runtime.GOMAXPROCS(0)
	plan, err := compilePlan(c.Rank(), d.elemSize, allChunks, allNeeds, par)
	if err != nil {
		return err
	}
	if o.on() {
		now := time.Now()
		o.rec.AddSpan(o.rank, "compile", compileStart, now, 0)
		o.planCompile.Observe(now.Sub(mapStart).Seconds())
		o.compilePar.Observe(float64(par))
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
		plan.fp = saltHash(geometryFingerprint(packed), d.fpSalt())
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

// typeJob is one overlap of the rank being compiled — the unit discovery
// emits, layout assigns a slot and construction fans across the worker
// pool: the round, the peer, and the region the seg packs (inside the
// rank's round-r chunk, a send) or scatters (inside its need box, a
// receive). Slots are unique per job, so the batch runs at any parallelism
// with no synchronization beyond the join.
type typeJob struct {
	r, peer int
	region  grid.Box
	pos     int // the job's message slot, or its self-move slot when peer is the rank itself
}

// scheduleCompiler holds the geometry-wide state of plan compilation.
// Overlap discovery has two forms feeding the one compile: a rank's own
// compile scans (discover) — it asks a query per own chunk and one for its
// need box, which an O(C log C) index bulk load never repays — and
// CompileSchedule buckets one pass of the global, index-backed enumerator
// (forEachOverlap), where the index replaces P scans of all P peers.
type scheduleCompiler struct {
	elemSize  int
	allChunks [][]grid.Box
	allNeeds  []grid.Box
	rounds    int
}

func newScheduleCompiler(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) *scheduleCompiler {
	sc := &scheduleCompiler{elemSize: elemSize, allChunks: allChunks, allNeeds: allNeeds}
	for _, chunks := range allChunks {
		sc.rounds = max(sc.rounds, len(chunks))
	}
	return sc
}

// discover collects rank's overlaps by linear scan: the sends round-major
// with peers ascending inside each round, then the receives peer-major,
// rounds ascending inside each peer — the two orders compile lays out
// from. Empty boxes intersect nothing and drop out.
func (sc *scheduleCompiler) discover(rank int) (sends, recvs []typeJob) {
	var jobs []typeJob
	for r, chunk := range sc.allChunks[rank] {
		for peer, need := range sc.allNeeds {
			if ov, ok := chunk.Intersect(need); ok {
				jobs = append(jobs, typeJob{r: r, peer: peer, region: ov})
			}
		}
	}
	nSend := len(jobs)
	need := sc.allNeeds[rank]
	for peer, chunks := range sc.allChunks {
		for r, chunk := range chunks {
			if ov, ok := chunk.Intersect(need); ok {
				jobs = append(jobs, typeJob{r: r, peer: peer, region: ov})
			}
		}
	}
	return jobs[:nSend:nSend], jobs[nSend:]
}

// compile lays rank's overlaps straight into its step list. sends must
// arrive round-major with peers ascending, recvs with rounds ascending
// inside each peer; the rank's own chunk overlapping its own need appears
// once in each. Subarray construction and contiguity analysis fan out
// across par workers (datatype.ForkJoin); the result is byte-identical to
// the brute-force reference at any parallelism and from either discovery.
func (sc *scheduleCompiler) compile(rank int, sends, recvs []typeJob, par int) (*Plan, error) {
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
		sched:     make([]step, rounds),
	}

	// Layout: one message array for the whole plan, each round's sends then
	// its receives, one seg per message. Counting the rounds' messages and
	// prefix-summing gives every job its slot; send jobs are already in slot
	// order, receive jobs land at their round's next free slot, which keeps
	// peers ascending because each peer's rounds arrived together. A rank's
	// overlap with itself is not a message: its two jobs fill the two sides
	// of one self move, paired by arrival order (both lists meet the rank's
	// own rounds ascending).
	next := make([]int, 2*rounds) // per round: next free send slot, next free recv slot
	nSelf := 0
	for i := range sends {
		if sends[i].peer == rank {
			nSelf++
		} else {
			next[2*sends[i].r]++
		}
	}
	for i := range recvs {
		if recvs[i].peer != rank {
			next[2*recvs[i].r+1]++
		}
	}
	nMsg := len(sends) + len(recvs) - 2*nSelf
	msgs := make([]message, nMsg)
	segs := make([]seg, nMsg)
	selfs := make([]selfMove, nSelf)
	off := 0
	for r := range p.sched {
		ns, nr := next[2*r], next[2*r+1]
		next[2*r], next[2*r+1] = off, off+ns
		p.sched[r].sends = msgs[off : off+ns : off+ns]
		p.sched[r].recvs = msgs[off+ns : off+ns+nr : off+ns+nr]
		off += ns + nr
	}
	for d, jobs := range [2][]typeJob{sends, recvs} {
		k := 0
		for i := range jobs {
			j := &jobs[i]
			if j.peer != rank {
				j.pos = next[2*j.r+d]
				next[2*j.r+d]++
				continue
			}
			j.pos = k
			p.sched[j.r].selfs = selfs[k : k+1 : k+1]
			k++
		}
	}

	// Construction: build each job's seg — subarray type plus contiguity
	// span — across the pool. Each job owns its slot, and errors are
	// reported by the lowest failing job for determinism.
	errs := make([]error, len(sends)+len(recvs))
	datatype.ForkJoin(len(errs), par, func(i int) {
		recv := i >= len(sends)
		var j *typeJob
		base, buf, dir := p.need, 0, "recv type from"
		if recv {
			j = &recvs[i-len(sends)]
		} else {
			j = &sends[i]
			base, buf, dir = p.myChunks[j.r], j.r, "send type to"
		}
		sg, err := newSeg(sc.elemSize, base, buf, j.region)
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("core: %s rank %d: %w", dir, j.peer, err)
		case j.peer != rank:
			segs[j.pos] = sg
			msgs[j.pos] = message{peer: j.peer, tag: ddrTagBase + j.r, bytes: sg.t.PackedSize(), segs: segs[j.pos : j.pos+1 : j.pos+1]}
		case recv:
			selfs[j.pos].dst = sg
		default:
			selfs[j.pos].src = sg
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// compilePlan builds one rank's plan from the gathered global geometry —
// the path SetupDataMapping and NewPlanFromGeometry take. It is per-rank
// work, as in the paper's DDR_SetupDataMapping: O(C_r·P + C) overlap
// tests and no index.
func compilePlan(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) (*Plan, error) {
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds)
	sends, recvs := sc.discover(rank)
	return sc.compile(rank, sends, recvs, par)
}

// forEachOverlap visits every (source chunk × destination need) overlap
// of the global geometry in the canonical order — source rank, then that
// rank's chunk index, then destination rank ascending — through one
// index over the need boxes. It serves CompileSchedule, the one compile
// that wants every rank's overlaps.
func forEachOverlap(allChunks [][]grid.Box, allNeeds []grid.Box, f func(src, chunk, dst int, ov grid.Box)) {
	ix := grid.NewIndex(allNeeds)
	var hits []int
	for src, chunks := range allChunks {
		for ci, chunk := range chunks {
			hits = ix.QueryAppend(hits[:0], chunk)
			for _, dst := range hits {
				if ov, ok := chunk.Intersect(allNeeds[dst]); ok && !ov.Empty() {
					f(src, ci, dst, ov)
				}
			}
		}
	}
}

// CompileSchedule compiles every rank's plan from a full global geometry
// — the whole-schedule analogue of NewPlanFromGeometry for offline
// analysis (ddrplan sweeps, capacity planning, the paper's Table II at
// arbitrary scale). One pass of the index-backed global enumerator finds
// every overlap once, which is what removes the O(P²) cost of P peer
// scans; bucketed per rank, the overlaps feed the same compile the
// per-rank path runs. par bounds the construction parallelism; <= 0 means
// GOMAXPROCS.
func CompileSchedule(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) ([]*Plan, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	if len(allChunks) != len(allNeeds) {
		return nil, fmt.Errorf("core: %d chunk lists for %d need boxes", len(allChunks), len(allNeeds))
	}
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds)
	n := len(allNeeds)

	// The enumerator visits source rank, then chunk, then destination
	// ascending, so the overlaps arrive as every rank's send jobs back to
	// back, already in compile's order. A counting sort by destination turns
	// the same list into the receive jobs, each rank's peer-major because
	// the pass keeps the source order. The two offset tables delimit a
	// rank's jobs in each list.
	var sends []typeJob
	sendOff := make([]int, n+1)
	recvOff := make([]int, n+1)
	forEachOverlap(allChunks, allNeeds, func(src, chunk, dst int, ov grid.Box) {
		sends = append(sends, typeJob{r: chunk, peer: dst, region: ov})
		sendOff[src+1]++
		recvOff[dst+1]++
	})
	for r := 0; r < n; r++ {
		sendOff[r+1] += sendOff[r]
		recvOff[r+1] += recvOff[r]
	}
	recvs := make([]typeJob, len(sends))
	fill := append([]int(nil), recvOff[:n]...)
	for src := 0; src < n; src++ {
		for _, j := range sends[sendOff[src]:sendOff[src+1]] {
			recvs[fill[j.peer]] = typeJob{r: j.r, peer: src, region: j.region}
			fill[j.peer]++
		}
	}

	plans := make([]*Plan, n)
	errs := make([]error, n)
	// Ranks compile independently from disjoint job ranges, so the schedule
	// fans out rank-per-worker; each rank's own construction then runs
	// serially (par 1) to avoid nested pools. Errors surface from the lowest
	// failing rank for determinism.
	datatype.ForkJoin(n, par, func(rank int) {
		plans[rank], errs[rank] = sc.compile(rank,
			sends[sendOff[rank]:sendOff[rank+1]], recvs[recvOff[rank]:recvOff[rank+1]], 1)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}
