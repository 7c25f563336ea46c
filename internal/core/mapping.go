package core

import (
	"fmt"
	"slices"
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

	// myChunks and need are this rank's own boxes, copied out of the
	// world the plan was compiled from: the exchange checks its buffers
	// against them and the cache's collision defence reads them.
	// needRanks counts the world's non-empty need boxes (NeedRanks).
	myChunks  []grid.Box
	need      grid.Box
	needRanks int

	// world is the global geometry in its one stored form: every rank's
	// canonical encoding (encode.go), in rank order. A live plan keeps the
	// gathered bytes themselves; Stats and Geometry decode them on demand.
	world [][]byte

	// sched is the schedule itself, one step per round (round r moves every
	// rank's r-th chunk): the round's local move, if this rank's chunk
	// overlaps its own need, then one single-seg message per peer in
	// ascending peer order on the round's own tag, each seg carrying its
	// packing type and contiguity span (a contiguous send needs no pack, a
	// contiguous receive no scatter — detected at compile time so the
	// exchange fast paths pay no per-call analysis). It holds one seg per
	// actual overlap, O(overlaps) rather than O(rounds·procs) state. Every
	// reader of the plan reads this list: the step executor replays it,
	// and the summary and the test hooks walk it.
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

// SetupDataMapping computes the data mapping between all ranks. It is a
// collective call: every rank passes the chunks it currently owns (any
// number, including zero) and the single contiguous box it needs after
// redistribution. It corresponds to DDR_SetupDataMapping(rank, nProcs,
// nChunks, ownDims, ownOffsets, needDims, needOffsets, desc) — rank and
// nProcs come from the communicator and each (dims, offset) pair is a
// grid.Box.
//
// The paper's precondition is that owned chunks are mutually exclusive
// across ranks and collectively complete over the domain; need boxes may
// overlap and need not cover the domain (paper §III-B). WithValidation
// checks the precondition collectively and reports violations. Without
// it, overlapping owned chunks have a defined answer: every need cell
// arrives once — a cell the receiving rank owns is copied locally, any
// other comes from its lowest-ranked owner (within a rank, its
// lowest-indexed chunk) — which is how an elastic resize maps its old
// need boxes onto the new ones.
//
// When the plan cache is enabled (the default, see WithPlanCache), the
// ranks first agree on a fingerprint of the global geometry and on
// whether every rank holds a cached plan for it, in one small allgather
// (plancache.go); if so the geometry allgather, validation, and
// compilation are all skipped and the cached plan is replayed — that one
// allgather is the steady-state cost of re-establishing a mapping whose
// layout did not change (the in-transit reconnect cycle). A rank's
// geometry rides in its vote when it is small (a resize's is) or when the
// rank's cache offers no plan for it, so a miss where every rank's rode —
// every cold set-up — compiles from the gathered votes: one collective.
// Only a miss where some rank offered a plan for a large contribution
// adds the geometry allgather. Either way a miss ends in this rank's own
// compile, into scratch the descriptor reuses.
func (d *Descriptor) SetupDataMapping(c *mpi.Comm, own []grid.Box, need grid.Box) error {
	if c.Size() != d.nProcs {
		return fmt.Errorf("core: descriptor is for %d processes but communicator has %d: %w",
			d.nProcs, c.Size(), ErrCommMismatch)
	}
	if err := d.checkBoxDims(need, "need", -1); err != nil {
		return err
	}
	for i, b := range own {
		if err := d.checkBoxDims(b, "owned chunk", i); err != nil {
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
	var packed [][]byte
	if d.cache != nil {
		cached, k, geoms, err := d.cache.lookup(c, enc, d.fpSalt(), func(p *Plan) bool {
			return planMatchesLocal(p, c.Rank(), own, need)
		})
		key, packed = k, geoms
		if err != nil {
			return fmt.Errorf("core: plan cache agreement: %w", err)
		}
		if cached != nil {
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

	if packed == nil {
		var err error
		if packed, err = c.Allgather(enc); err != nil {
			return fmt.Errorf("core: geometry exchange: %w", err)
		}
	}

	var compileStart time.Time
	if o.on() {
		compileStart = time.Now()
	}
	plan, err := d.scratch.compile(c.Rank(), d.elemSize, packed, d.validate)
	if err != nil {
		return err
	}
	if o.on() {
		now := time.Now()
		o.rec.AddSpan(o.rank, "compile", compileStart, now, 0)
		o.planCompile.Observe(now.Sub(mapStart).Seconds())
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
	return compilePlan(rank, elemSize, allChunks, allNeeds)
}

// mapScratch is what a live miss reuses from one SetupDataMapping to the
// next: the decoded world table and discovery's job list. No plan aliases
// it — a plan copies the few boxes it reads and keeps the gathered
// encodings as its world — so a later miss may overwrite it while earlier
// plans wait in the cache. It is the Descriptor's, never the compiler's:
// CompileSchedule shares one compiler across workers.
type mapScratch struct {
	geomTable
	jobs []typeJob
}

// compile decodes the gathered encodings packed into the scratch table,
// validates ownership when asked, and compiles rank's plan, which keeps
// packed as its world. Holding on to packed is safe because the gathered
// bytes are this rank's alone: Recv payloads belong to the receiver (see
// mpi/bufpool.go) and Allgather never hands them back to the arena.
func (s *mapScratch) compile(rank, elemSize int, packed [][]byte, validate bool) (*Plan, error) {
	if err := s.decode(packed); err != nil {
		return nil, err
	}
	if validate {
		if err := validateOwnership(s.chunks); err != nil {
			return nil, err
		}
	}
	sc := newScheduleCompiler(elemSize, s.chunks, s.needs, packed)
	p, jobs, err := sc.plan(rank, s.jobs)
	s.jobs = jobs
	return p, err
}

// typeJob is one overlap of the rank being compiled — the unit discovery
// emits, layout assigns a slot and construction builds: the round, the
// peer, and the region the seg packs (inside the rank's round-r chunk, a
// send) or scatters (inside its need box, a receive). A job the ownership
// rule cuts compiles to its nFrag pieces, held from index frag of the
// compile's piece list; nFrag 0 means the whole region.
type typeJob struct {
	r, peer     int
	region      grid.Box
	frag, nFrag int32 // pointer-free: a job list is allocated unscanned
	pos         int32 // the job's message slot, or its first self-move slot when peer is the rank itself
	seg         int32 // the job's first seg slot (messages only)
}

// nSegs is the number of segs (or self moves) the job compiles to.
func (j *typeJob) nSegs() int { return max(int(j.nFrag), 1) }

// scheduleCompiler holds the geometry-wide state of plan compilation,
// read-only once built: the decoded world, its encodings (which every
// compiled plan keeps; nil when nothing is compiled) and what is derived
// from the whole world.
type scheduleCompiler struct {
	elemSize  int
	allChunks [][]grid.Box
	allNeeds  []grid.Box
	world     [][]byte
	rounds    int
	needRanks int
}

func newScheduleCompiler(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, world [][]byte) scheduleCompiler {
	sc := scheduleCompiler{elemSize: elemSize, allChunks: allChunks, allNeeds: allNeeds, world: world}
	for _, chunks := range allChunks {
		sc.rounds = max(sc.rounds, len(chunks))
	}
	for _, b := range allNeeds {
		if b.NDims > 0 && !b.Empty() {
			sc.needRanks++
		}
	}
	return sc
}

// plan compiles rank's plan, discovering into jobs, which it returns
// grown for the caller's next compile (nil allocates a fresh list).
func (sc *scheduleCompiler) plan(rank int, jobs []typeJob) (*Plan, []typeJob, error) {
	jobs, nSend, contested := sc.discover(rank, jobs)
	p, err := sc.compile(rank, jobs[:nSend:nSend], jobs[nSend:], contested)
	return p, jobs, err
}

// discover collects rank's overlaps by linear scan into jobs[:0] — the
// one overlap discovery, which every compile and Plan.Stats read: its
// first nSend are the sends, round-major with peers ascending inside each
// round, then the receives peer-major, rounds ascending inside each peer
// — the two orders compile lays out from. Empty boxes intersect nothing
// and drop out. The scan of the world's chunks also finds which of the
// rank's own chunks another one overlaps (ownTree).
func (sc *scheduleCompiler) discover(rank int, jobs []typeJob) (all []typeJob, nSend int, contested []bool) {
	jobs = jobs[:0]
	for r := range sc.allChunks[rank] {
		chunk := &sc.allChunks[rank][r]
		e := extentOf(chunk)
		for peer := range sc.allNeeds {
			if need := &sc.allNeeds[peer]; e.meets(spans(need)) {
				if ov, ok := chunk.Intersect(*need); ok {
					jobs = append(jobs, typeJob{r: r, peer: peer, region: ov})
				}
			}
		}
	}
	nSend = len(jobs)
	need := &sc.allNeeds[rank]
	ne := extentOf(need)
	var buf [64]extent
	t := newOwnTree(sc.allChunks[rank], buf[:])
	for peer, chunks := range sc.allChunks {
		for r := range chunks {
			x0, x1, y0, y1, z0, z1 := spans(&chunks[r])
			if ne.meets(x0, x1, y0, y1, z0, z1) {
				if ov, ok := chunks[r].Intersect(*need); ok {
					jobs = append(jobs, typeJob{r: r, peer: peer, region: ov})
				}
			}
			if t.nodes[1].meets(x0, x1, y0, y1, z0, z1) {
				t.visit(&contested, peer == rank, r, &chunks[r])
			}
		}
	}
	return jobs, nSend, contested
}

// The ownership rule. Owned chunks may overlap — within a rank or across
// ranks, as a resize's old need boxes do — and every cell a rank needs
// still arrives exactly once: a cell the receiving rank owns itself is a
// self move, any other comes from its lowest-ranked owner, and within one
// rank from the lowest-indexed chunk. Every rank holds the gathered
// geometry, so both ends of a pair derive the same answer without
// communicating. On disjoint chunks (the paper's precondition) the rule
// changes nothing and costs only the checks that find no job contested:
// the world's chunks against a tree over the rank's own (ownTree), which
// discovery's scan of the world runs, and the rank's receive regions
// against each other (contestedRecvs).

// fragments returns the pieces of ov — the overlap of src's chunk r with
// dst's need — that src sends dst under the ownership rule: ov minus
// every chunk that outranks it for dst, which are dst's own chunks
// (unless src is dst), every chunk of a lower rank, and src's
// lower-indexed chunks. Sender and receiver call it with the same
// arguments, so the pieces of one (round, peer) overlap come out in the
// same order on both ends and form one multi-seg message.
func (sc *scheduleCompiler) fragments(src, r, dst int, ov grid.Box) []grid.Box {
	work, rest := []grid.Box{ov}, []grid.Box(nil)
	cut := func(chunks []grid.Box) {
		for i := range chunks {
			if len(work) > 0 && chunks[i].Overlaps(ov) {
				rest = rest[:0]
				for _, w := range work {
					rest = grid.SubtractAppend(rest, w, chunks[i])
				}
				work, rest = rest, work
			}
		}
	}
	if src != dst {
		cut(sc.allChunks[dst])
		for s := 0; s < src; s++ {
			if s != dst {
				cut(sc.allChunks[s])
			}
		}
	}
	cut(sc.allChunks[src][:r])
	return work
}

// extent is a box as its [lo, hi) span along each axis, an unused axis as
// [0, 1): the form the contest checks test overlaps in, with no loop and
// no branch that depends on where the boxes lie — on a tiling, whether
// two cross along an axis is a coin toss the branch predictor loses.
type extent [2 * grid.MaxDims]int

// spans returns b's extent as scalars, which a scan keeps in registers.
func spans(b *grid.Box) (x0, x1, y0, y1, z0, z1 int) {
	x0, x1, y0, y1, z0, z1 = b.Offset[0], b.Offset[0]+b.Dims[0], 0, 1, 0, 1
	if b.NDims > 1 {
		y0, y1 = b.Offset[1], b.Offset[1]+b.Dims[1]
	}
	if b.NDims > 2 {
		z0, z1 = b.Offset[2], b.Offset[2]+b.Dims[2]
	}
	return
}

func extentOf(b *grid.Box) extent {
	x0, x1, y0, y1, z0, z1 := spans(b)
	return extent{x0, x1, y0, y1, z0, z1}
}

// meets reports whether e overlaps the extent given as scalars.
func (e *extent) meets(x0, x1, y0, y1, z0, z1 int) bool {
	return min(min(e[1], x1)-max(e[0], x0), min(e[3], y1)-max(e[2], y0), min(e[5], z1)-max(e[4], z0)) > 0
}

// ownTree finds which of a rank's chunks another owned chunk overlaps:
// only their send jobs can be cut. The chunks sit at the leaves of an
// implicit binary tree of bounding extents, in their given order, and a
// chunk of the world descends only into the subtrees it meets — one far
// from the rank's chunks costs the test against the root, one near them a
// few more.
type ownTree struct {
	nodes []extent // node k has children 2k and 2k+1, leaves from m
	m     int
}

// newOwnTree builds the tree over own, in buf when it fits.
func newOwnTree(own []grid.Box, buf []extent) ownTree {
	m := 1
	for m < len(own) {
		m <<= 1
	}
	if 2*m > len(buf) {
		buf = make([]extent, 2*m)
	}
	t := ownTree{buf[:2*m], m}
	for k := range m {
		t.nodes[m+k] = extent{1 << 62, -1 << 62, 1 << 62, -1 << 62, 1 << 62, -1 << 62} // meets nothing
		if k < len(own) {
			t.nodes[m+k] = extentOf(&own[k])
		}
	}
	for k := m - 1; k > 0; k-- {
		a, b := &t.nodes[2*k], &t.nodes[2*k+1]
		t.nodes[k] = extent{min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]), min(a[4], b[4]), max(a[5], b[5])}
	}
	return t
}

// visit marks in contested (allocated at the first mark) the own chunks
// c overlaps, except own chunk i when mine says c is that chunk.
func (t *ownTree) visit(contested *[]bool, mine bool, i int, c *grid.Box) {
	x0, x1, y0, y1, z0, z1 := spans(c)
	var path [64]int
	path[0] = 1
	for top := 1; top > 0; {
		top--
		switch k := path[top]; {
		case !t.nodes[k].meets(x0, x1, y0, y1, z0, z1):
		case k < t.m:
			path[top], path[top+1] = 2*k, 2*k+1
			top += 2
		case !mine || k-t.m != i:
			if *contested == nil {
				*contested = make([]bool, t.m)
			}
			(*contested)[k-t.m] = true
		}
	}
}

// contestedRecvs reports which receives' regions overlap another's, nil
// when none does: every chunk that could outrank a receive's overlaps the
// need, so it is among the receives too. The regions lie in need; it
// sweeps them in order of their low corner along need's longest axis,
// testing each only against the ones still open there.
func contestedRecvs(recvs []typeJob, need grid.Box) (contested []bool) {
	ax := 0
	for a := 1; a < need.NDims; a++ {
		if need.Dims[a] > need.Dims[ax] {
			ax = a
		}
	}
	// The sort keys — a region's low corner above need's in the high half,
	// its index in the low — then the open list, in one buffer. A need too
	// wide for the high half leaves the regions unsorted and closes none,
	// which tests every pair.
	var stack [256]uint64
	buf := stack[:]
	if 2*len(recvs) > len(buf) {
		buf = make([]uint64, 2*len(recvs))
	}
	keys, open := buf[:len(recvs)], buf[len(recvs):len(recvs)]
	sorted := need.Dims[ax] < 1<<31
	for i := range recvs {
		keys[i] = uint64(i)
		if sorted {
			keys[i] |= uint64(recvs[i].region.Offset[ax]-need.Offset[ax]) << 32
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		i := uint32(key)
		e, n := extentOf(&recvs[i].region), 0
		for _, k := range open {
			if b := &recvs[k].region; !sorted || b.Offset[ax]+b.Dims[ax] > e[2*ax] {
				open[n], n = k, n+1
				if e.meets(spans(b)) {
					if contested == nil {
						contested = make([]bool, len(recvs))
					}
					contested[i], contested[k] = true, true
				}
			}
		}
		open = append(open[:n], uint64(i))
	}
	return contested
}

// cut applies the ownership rule to rank's sends or receives: a job
// marked contested — sends by their chunk, receives by their index — is
// cut into its fragments, appended to pieces, or dropped when none is
// left; the others keep their order.
func (sc *scheduleCompiler) cut(rank int, jobs []typeJob, recv bool, contested []bool, pieces []grid.Box) ([]typeJob, []grid.Box) {
	kept := jobs[:0]
	for i, j := range jobs {
		src, dst, mark := rank, j.peer, j.r
		if recv {
			src, dst, mark = j.peer, rank, i
		}
		if contested[mark] {
			f := sc.fragments(src, j.r, dst, j.region)
			if len(f) == 0 {
				continue
			}
			j.frag, j.nFrag = int32(len(pieces)), int32(len(f))
			pieces = append(pieces, f...)
		}
		kept = append(kept, j)
	}
	return kept, pieces
}

// compile lays rank's overlaps straight into its step list. sends must
// arrive round-major with peers ascending, recvs with rounds ascending
// inside each peer; the rank's own chunk overlapping its own need appears
// once in each. It runs on the caller's goroutine; wherever owned chunks
// are disjoint the result is byte-identical to the brute-force reference.
func (sc *scheduleCompiler) compile(rank int, sends, recvs []typeJob, contested []bool) (*Plan, error) {
	rounds := sc.rounds
	p := &Plan{
		elemSize:  sc.elemSize,
		rank:      rank,
		nProcs:    len(sc.allNeeds),
		rounds:    rounds,
		myChunks:  slices.Clone(sc.allChunks[rank]),
		need:      sc.allNeeds[rank],
		needRanks: sc.needRanks,
		world:     sc.world,
		sched:     make([]step, rounds),
	}

	var pieces []grid.Box
	if contested != nil {
		sends, pieces = sc.cut(rank, sends, false, contested, pieces)
	}
	if hit := contestedRecvs(recvs, p.need); hit != nil {
		recvs, pieces = sc.cut(rank, recvs, true, hit, pieces)
	}

	// Layout: one message array for the whole plan, each round's sends then
	// its receives, one message per job. Counting the rounds' messages and
	// prefix-summing gives every job its slot; send jobs are already in slot
	// order, receive jobs land at their round's next free slot, which keeps
	// peers ascending because each peer's rounds arrived together. Each
	// message's segs take the next run of one seg array. A rank's overlap
	// with itself is not a message: its two jobs fill the two sides of its
	// round's self moves, paired by arrival order (both lists meet the
	// rank's own rounds ascending, and both ends of a self move cut it into
	// the same fragments).
	var nextBuf [64]int
	next := nextBuf[:] // per round: next free send slot, next free recv slot
	if 2*rounds > len(nextBuf) {
		next = make([]int, 2*rounds)
	}
	nMsg, nSeg, nSelf := 0, 0, 0
	for d, jobs := range [2][]typeJob{sends, recvs} {
		for i := range jobs {
			j := &jobs[i]
			switch {
			case j.peer != rank:
				next[2*j.r+d]++
				j.seg = int32(nSeg)
				nMsg++
				nSeg += j.nSegs()
			case d == 0:
				nSelf += j.nSegs()
			}
		}
	}
	msgs := make([]message, nMsg)
	segs := make([]seg, nSeg)
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
				j.pos = int32(next[2*j.r+d])
				next[2*j.r+d]++
				continue
			}
			n := j.nSegs()
			j.pos = int32(k)
			p.sched[j.r].selfs = selfs[k : k+n : k+n]
			k += n
		}
	}

	// Construction: build each job's segs — subarray type plus contiguity
	// span — into its slots; the first failing job reports.
	for i := range len(sends) + len(recvs) {
		recv := i >= len(sends)
		var j *typeJob
		base, buf, dir := p.need, 0, "recv type from"
		if recv {
			j = &recvs[i-len(sends)]
		} else {
			j = &sends[i]
			base, buf, dir = p.myChunks[j.r], j.r, "send type to"
		}
		n, pos, sn, bytes := j.nSegs(), int(j.pos), int(j.seg), 0
		for f := range n {
			region := j.region
			if j.nFrag > 0 {
				region = pieces[int(j.frag)+f]
			}
			var sg *seg
			switch {
			case j.peer != rank:
				sg = &segs[sn+f]
			case recv:
				sg = &selfs[pos+f].dst
			default:
				sg = &selfs[pos+f].src
			}
			if err := sg.init(sc.elemSize, base, buf, region); err != nil {
				return nil, fmt.Errorf("core: %s rank %d: %w", dir, j.peer, err)
			}
			if j.peer != rank {
				bytes += sg.t.PackedSize()
			}
		}
		if j.peer != rank {
			msgs[pos] = message{peer: j.peer, tag: ddrTagBase + j.r, bytes: bytes, segs: segs[sn : sn+n : sn+n]}
		}
	}
	return p, nil
}

// compilePlan builds one rank's plan from the global geometry, which it
// encodes for the plan to keep — the path NewPlanFromGeometry takes, and
// SetupDataMapping's (mapScratch.compile) from already gathered
// encodings. It is per-rank work, as in the paper's
// DDR_SetupDataMapping: O(C_r·P + C) overlap tests and no index.
func compilePlan(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds, encodeWorld(allNeeds, allChunks))
	p, _, err := sc.plan(rank, nil)
	return p, err
}

// CompileSchedule compiles every rank's plan from a full global geometry
// — the whole-schedule analogue of NewPlanFromGeometry for offline
// analysis (ddrplan sweeps, capacity planning, the paper's Table II at
// arbitrary scale). It is P per-rank compiles, fanned out rank-per-worker
// over par workers; <= 0 means GOMAXPROCS, and the plans share one
// encoding of the geometry as their world. Errors surface from the lowest
// failing rank.
func CompileSchedule(elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) ([]*Plan, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	if len(allChunks) != len(allNeeds) {
		return nil, fmt.Errorf("core: %d chunk lists for %d need boxes", len(allChunks), len(allNeeds))
	}
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds, encodeWorld(allNeeds, allChunks))
	plans := make([]*Plan, len(allNeeds))
	errs := make([]error, len(allNeeds))
	datatype.ForkJoin(len(plans), par, func(rank int) {
		plans[rank], _, errs[rank] = sc.plan(rank, nil)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// CompileDelta compiles every rank's plan for an elastic resize offline,
// from the global geometry alone: oldNeeds[r] is the box rank r holds
// before the resize and newNeeds[r] the box it needs after (zero-extent
// boxes mark joiners and leavers; both are indexed by the resize
// collective's ranks). It is CompileSchedule, serially, over the geometry
// in which every rank owns its old need box as its one chunk — what each
// rank of a collective resize maps with SetupDataMapping(c,
// []grid.Box{oldNeed}, newNeed) — so the ownership rule keeps every cell
// a rank already holds and takes each other one from its lowest-ranked
// old holder.
func CompileDelta(elemSize int, oldNeeds, newNeeds []grid.Box) ([]*Plan, error) {
	chunks := make([][]grid.Box, len(oldNeeds))
	for r := range oldNeeds {
		chunks[r] = oldNeeds[r : r+1 : r+1]
	}
	return CompileSchedule(elemSize, chunks, newNeeds, 1)
}
