// Elastic repartitioning: the incremental (delta) plan compiler.
//
// A consumer group that resizes from N to N′ ranks does not need a full
// re-exchange of its data: most of each surviving rank's new need box is
// usually already resident locally (its old need box), and only the cells
// whose ownership changed have to cross the wire. CompileDelta diffs the
// old and new need geometries — grid.Subtract for the local retention,
// overlap queries against the old holders for the remote part — and emits
// one DeltaPlan per rank that moves exactly the changed bytes. The result of
// executing a delta plan is byte-identical to a full re-exchange that
// treats the old need boxes as owned chunks (the differential-testing
// oracle in delta_test.go).
//
// Ownership of a cell that several old ranks hold is assigned to the
// lowest-ranked holder, so every rank derives the same assignment from
// the same global geometry without communicating.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// DeltaRegion is one unit of changed ownership: a box (global
// coordinates) this rank exchanges with Peer during the resize.
type DeltaRegion struct {
	Peer   int
	Region grid.Box
}

// DeltaPlan is one rank's compiled schedule for an elastic resize. Like
// *Plan it is immutable after compilation, replayable, and cacheable.
// A rank leaving the group has an empty new need (it only sends); a rank
// joining has an empty old need (it only receives).
type DeltaPlan struct {
	elemSize int
	rank     int
	nRanks   int // size of the resize collective (old ∪ new participants)
	newSize  int // ranks with a non-empty new need
	fp       uint64

	oldNeed grid.Box
	newNeed grid.Box

	// keeps are the locally retained regions (newNeed ∩ oldNeed), copied
	// from the old buffer into the new one without touching the wire.
	keeps []grid.Box
	uncov []grid.Box // new-need regions no old rank held; left untouched

	// sends/recvs hold the changed-ownership regions, sorted by peer with
	// the deterministic discovery order preserved within each peer.
	sends []DeltaRegion
	recvs []DeltaRegion

	// sched is the move as the executor runs it: one step from the old
	// buffer to the new, the keeps as its self moves and one message per
	// peer carrying that peer's regions. The region order within a peer is
	// identical on both sides of every pair, so the receiver unpacks
	// segments in the order the sender packed them.
	sched []step
}

// Rank returns the rank the plan was compiled for.
func (p *DeltaPlan) Rank() int { return p.rank }

// NewGroupSize returns the number of ranks with a non-empty need after
// the resize — the N′ the surviving consumer communicator must have.
func (p *DeltaPlan) NewGroupSize() int { return p.newSize }

// Fingerprint returns the collectively agreed fingerprint of the
// (old geometry, new geometry) pair (0 for offline-compiled plans).
func (p *DeltaPlan) Fingerprint() uint64 { return p.fp }

// MovedBytes returns the bytes this rank puts on the wire during the
// resize — the cost an incremental plan is minimizing.
func (p *DeltaPlan) MovedBytes() int64 {
	var n int64
	for _, s := range p.sends {
		n += int64(s.Region.Volume()) * int64(p.elemSize)
	}
	return n
}

// ReceivedBytes returns the bytes this rank receives over the wire.
func (p *DeltaPlan) ReceivedBytes() int64 {
	var n int64
	for _, r := range p.recvs {
		n += int64(r.Region.Volume()) * int64(p.elemSize)
	}
	return n
}

// RetainedBytes returns the bytes satisfied by the local old→new copy.
func (p *DeltaPlan) RetainedBytes() int64 {
	var n int64
	for _, k := range p.keeps {
		n += int64(k.Volume()) * int64(p.elemSize)
	}
	return n
}

// NeedBytes returns the total byte size of the new need box — what a
// cold full re-fetch of this rank's data would have to move.
func (p *DeltaPlan) NeedBytes() int64 {
	if boxEmpty(p.newNeed) {
		return 0
	}
	return int64(p.newNeed.Volume()) * int64(p.elemSize)
}

// Uncovered returns the new-need regions no old rank held; the exchange
// leaves their cells untouched (the paper's incomplete-receive contract).
func (p *DeltaPlan) Uncovered() []grid.Box { return p.uncov }

// boxEmpty treats the zero Box (NDims 0) and zero-extent boxes alike —
// both mean "this rank holds / wants nothing".
func boxEmpty(b grid.Box) bool { return b.NDims == 0 || b.Empty() }

// CompileDelta compiles the full set of per-rank delta plans for a
// resize, offline from the global geometry alone: oldNeeds[r] is the box
// rank r held before the resize and newNeeds[r] the box it needs after
// (empty boxes mark joiners and leavers; the slices share one indexing,
// the resize collective's ranks). It is the all-ranks twin of
// CompileDeltaRank, used by the property harness and for capacity
// analysis.
func CompileDelta(elemSize int, oldNeeds, newNeeds []grid.Box) ([]*DeltaPlan, error) {
	return compileDelta(elemSize, -1, oldNeeds, newNeeds)
}

// CompileDeltaRank compiles one rank's delta plan from the global
// geometry, as each rank of a collective resize does after
// DeltaCompiler.Compile's allgather. Only the receivers that involve the
// rank are assigned (itself, and those whose new need touches its old
// box), by CompileDelta's loop, so the plan equals CompileDelta(...)[rank].
func CompileDeltaRank(elemSize, rank int, oldNeeds, newNeeds []grid.Box) (*DeltaPlan, error) {
	if rank < 0 || rank >= len(oldNeeds) {
		return nil, fmt.Errorf("core: rank %d out of range [0,%d)", rank, len(oldNeeds))
	}
	plans, err := compileDelta(elemSize, rank, oldNeeds, newNeeds)
	if err != nil {
		return nil, err
	}
	return plans[rank], nil
}

// compileDelta is the assignment loop behind both: it fills plans[only],
// or every rank's plan when only < 0.
func compileDelta(elemSize, only int, oldNeeds, newNeeds []grid.Box) ([]*DeltaPlan, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	if len(oldNeeds) != len(newNeeds) {
		return nil, fmt.Errorf("core: %d old need boxes for %d new need boxes", len(oldNeeds), len(newNeeds))
	}
	n := len(oldNeeds)
	newSize := 0
	for _, b := range newNeeds {
		if !boxEmpty(b) {
			newSize++
		}
	}
	plans := make([]*DeltaPlan, n)
	for r := range plans {
		if only < 0 || r == only {
			plans[r] = &DeltaPlan{
				elemSize: elemSize, rank: r, nRanks: n, newSize: newSize,
				oldNeed: oldNeeds[r], newNeed: newNeeds[r],
			}
		}
	}

	// Old holders are tried in ascending rank order, which is the
	// deterministic assignment priority.
	var work, rest []grid.Box
	for r, nn := range newNeeds {
		if boxEmpty(nn) || only >= 0 && r != only && !nn.Overlaps(oldNeeds[only]) {
			continue
		}
		recv := plans[r] // nil: only what this assignment takes from plans[only] matters
		work = work[:0]
		if keep, ok := nn.Intersect(oldNeeds[r]); ok {
			if recv != nil {
				recv.keeps = append(recv.keeps, keep)
			}
			work = grid.SubtractAppend(work, nn, keep)
		} else {
			work = append(work, nn)
		}
		for s, holder := range oldNeeds {
			if len(work) == 0 {
				break
			}
			if s == r || !nn.Overlaps(holder) {
				continue
			}
			rest = rest[:0]
			for _, u := range work {
				iv, ok := u.Intersect(holder)
				if !ok {
					rest = append(rest, u)
					continue
				}
				if recv != nil {
					recv.recvs = append(recv.recvs, DeltaRegion{Peer: s, Region: iv})
				}
				if send := plans[s]; send != nil {
					send.sends = append(send.sends, DeltaRegion{Peer: r, Region: iv})
				}
				rest = grid.SubtractAppend(rest, u, iv)
			}
			work, rest = rest, work
		}
		if recv != nil {
			recv.uncov = append(recv.uncov, work...)
		}
	}

	for _, p := range plans {
		if p == nil {
			continue
		}
		if err := p.finalize(); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// finalize sorts a plan's regions by peer and compiles them into the
// step the exchange replays, so execution pays no per-call geometry
// analysis.
func (p *DeltaPlan) finalize() error {
	st := step{selfs: make([]selfMove, len(p.keeps))}
	for i, k := range p.keeps {
		src, err := newSeg(p.elemSize, p.oldNeed, 0, k)
		if err != nil {
			return fmt.Errorf("core: delta keep source %v: %w", k, err)
		}
		dst, err := newSeg(p.elemSize, p.newNeed, 0, k)
		if err != nil {
			return fmt.Errorf("core: delta keep destination %v: %w", k, err)
		}
		st.selfs[i] = selfMove{src: src, dst: dst}
	}
	var err error
	if st.sends, err = deltaMessages(p.elemSize, p.oldNeed, p.sends, "send"); err != nil {
		return err
	}
	if st.recvs, err = deltaMessages(p.elemSize, p.newNeed, p.recvs, "recv"); err != nil {
		return err
	}
	p.sched = []step{st}
	return nil
}

// deltaMessages stably sorts regions by peer (preserving the
// deterministic discovery order within each peer — the wire segment order
// both sides agree on) and folds each peer's run into one message on the
// resize tag.
func deltaMessages(elemSize int, base grid.Box, regions []DeltaRegion, dir string) ([]message, error) {
	sort.SliceStable(regions, func(a, b int) bool { return regions[a].Peer < regions[b].Peer })
	var msgs []message
	for _, reg := range regions {
		sg, err := newSeg(elemSize, base, 0, reg.Region)
		if err != nil {
			return nil, fmt.Errorf("core: delta %s type for rank %d region %v: %w", dir, reg.Peer, reg.Region, err)
		}
		msgs = appendSeg(msgs, reg.Peer, deltaTag, sg)
	}
	return msgs, nil
}

// DeltaCompiler is the collective front end of CompileDeltaRank: one
// allgather hands every rank the whole (old geometry, new geometry) pair
// and, in the same bytes, whether every rank still holds the plan it
// compiled for that pair before — then all replay (consumer groups that
// oscillate between two scales resize at one-small-allgather cost) —
// or else each compiles its own. Like Descriptor it is not safe for
// concurrent use; construct one per Regridder/session.
type DeltaCompiler struct {
	elemSize int
	cache    *planCache[*DeltaPlan]

	hits, misses atomic.Int64
}

// NewDeltaCompiler creates a delta compiler for elements of the given
// byte size with a delta-plan cache of cacheCap entries (cacheCap <= 0
// holds none: every compile is a miss).
func NewDeltaCompiler(elemSize, cacheCap int) (*DeltaCompiler, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	return &DeltaCompiler{elemSize: elemSize, cache: newPlanCache[*DeltaPlan](max(cacheCap, 0))}, nil
}

// CacheStats reports delta-plan cache hits and misses.
func (dc *DeltaCompiler) CacheStats() (hits, misses int64) {
	return dc.hits.Load(), dc.misses.Load()
}

// Compile is the collective compile: every rank of c passes the need box
// it held before the resize and the one it wants after (zero-extent for
// leavers/joiners; both boxes must share the data's dimensionality so the
// geometry encoding stays canonical). All ranks receive their own plan
// for the same globally agreed assignment.
//
// Its one collective is an allgather of every rank's two-box pair, no
// larger than a hash vote would be, each followed by the fingerprints of
// the cached plans that rank compiled from the same pair. All ranks
// fingerprint the same pairs and read the same offers, so all reach one
// verdict with nothing further on the wire: a replay when every rank
// offers the fingerprint, otherwise (a joiner's session is fresh) a miss
// on every rank, each compiling only its own plan.
func (dc *DeltaCompiler) Compile(c *mpi.Comm, oldNeed, newNeed grid.Box) (*DeltaPlan, error) {
	if oldNeed.NDims == 0 || newNeed.NDims == 0 {
		return nil, fmt.Errorf("core: delta compile needs explicit box dimensionality (use a zero-extent box for an empty side)")
	}
	// The pair encodes as one canonical geometry stream: the old box in
	// the need slot, the new box as the single chunk. Its length precedes
	// it; the offers follow.
	enc := encodeGeometry(oldNeed, []grid.Box{newNeed})
	vote := append(appendUvarint(make([]byte, 0, 1+len(enc)), uint64(len(enc))), enc...)
	// The box comparison is the collision defence: see planCache.lookup.
	packed, err := c.Allgather(dc.cache.offers(vote, c.Rank(), func(p *DeltaPlan) bool {
		return p.nRanks == c.Size() && p.oldNeed.Equal(oldNeed) && p.newNeed.Equal(newNeed)
	}))
	if err != nil {
		return nil, fmt.Errorf("core: delta geometry exchange: %w", err)
	}
	offers := make([][]byte, len(packed))
	for r, v := range packed {
		n, rest, err := readUvarint(v)
		if err != nil || n > uint64(len(rest)) || (uint64(len(rest))-n)%8 != 0 {
			return nil, fmt.Errorf("core: malformed %d-byte delta contribution from rank %d", len(v), r)
		}
		packed[r], offers[r] = rest[:n], rest[n:]
	}
	key := cacheKey{fp: geometryFingerprint(packed), rank: c.Rank()}
	hit := true
	for _, o := range offers {
		hit = hit && offered(o, key.fp)
	}
	if hit {
		// This rank's own offers are among the gathered, so the entry exists.
		plan, _ := dc.cache.get(key)
		dc.hits.Add(1)
		return plan, nil
	}
	dc.misses.Add(1)
	oldNeeds, chunks, err := decodeGeometries(packed)
	if err != nil {
		return nil, fmt.Errorf("core: delta compile: %w", err)
	}
	// Every rank reads the same bytes, so these fail on every rank
	// together; left to the compile, a dimensionality mismatch would fail
	// only the sender and strand its peers in the exchange.
	newNeeds := make([]grid.Box, len(chunks))
	for r, ch := range chunks {
		if len(ch) != 1 {
			return nil, fmt.Errorf("core: delta geometry from rank %d carries %d boxes after the old need, want exactly 1", r, len(ch))
		}
		if nd := oldNeeds[0].NDims; oldNeeds[r].NDims != nd || ch[0].NDims != nd {
			return nil, fmt.Errorf("core: delta geometry from rank %d is %dD -> %dD, rank 0's is %dD", r, oldNeeds[r].NDims, ch[0].NDims, nd)
		}
		newNeeds[r] = ch[0]
	}
	plan, err := CompileDeltaRank(dc.elemSize, c.Rank(), oldNeeds, newNeeds)
	if err != nil {
		return nil, err
	}
	plan.fp = key.fp
	dc.cache.put(key, plan)
	return plan, nil
}
