package core

import (
	"container/list"
	"encoding/binary"
	"fmt"

	"ddr/internal/mpi"
)

// Plan caching. SetupDataMapping is a collective whose cost — a geometry
// allgather plus a compile — is pure waste when the layout it describes
// was already mapped: in-transit couplings reconnect with the producer
// and consumer grids unchanged, and simulations cycle through a small set
// of decompositions (compute layout ↔ I/O layout). The cache keys
// compiled plans by a fingerprint of the canonical geometry encoding, so
// re-establishing a known mapping costs one small allgather.
//
// Correctness hinges on the decision being collectively consistent: a
// rank that replays a cached plan while another compiles would leave the
// compiler's allgather short one participant and deadlock the world. The
// lookup therefore settles in one allgather that every rank reads the
// same way: each contributes the hash of its own geometry followed by the
// fingerprints of the cached plans it could replay; the global
// fingerprint is the fold of the gathered hashes, and the verdict is a
// hit exactly when every rank lists it. Any dissent — a rank that never
// saw the geometry, or evicted it — is visible to all in the same
// gathered bytes and routes all ranks through the compile path together.
//
// A fingerprint collision (two geometries, one hash) is defended locally:
// a rank lists a cached plan only when the match callback confirms it was
// compiled from the rank's current contribution.
//
// A rank's geometry rides in the vote itself, ahead of its hash, when it
// is small — at most inlineGeometry bytes, a resize's one old and one new
// box — or when the rank's cache offers no plan for it: such a rank
// cannot hit, so its vote already settles a miss and might as well carry
// what the compile needs. When every rank's geometry rode, the miss
// compiles from the gathered votes and the agreement is the mapping's only
// collective. That is every cold set-up, where no rank can hit, and every
// set-up of small geometries, hit or miss. Only a rank that offers a plan
// for a large contribution leaves its geometry out, so a warm vote stays
// small, and a miss then gathers the geometry in a second allgather.

// inlineGeometry is the largest encoding a rank that offers a plan sends
// in its vote.
const inlineGeometry = 64

// FNV-1a, the 64-bit variant — stable across processes and runs, unlike
// maphash, so fingerprints can be compared between ranks.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// hash64 folds b into the running FNV-1a state h.
func hash64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// geometryFingerprint derives the global-geometry fingerprint from the
// allgathered per-rank canonical encodings — the same fold the cache
// lookup performs over gathered per-rank hashes, for callers with the full
// encodings in hand (cache-disabled set-ups). Every
// rank holds the same gathered set, so every rank derives the same value.
func geometryFingerprint(packed [][]byte) uint64 {
	fp := uint64(fnvOffset64)
	var h [8]byte
	for _, enc := range packed {
		binary.LittleEndian.PutUint64(h[:], hash64(fnvOffset64, enc))
		fp = hash64(fp, h[:])
	}
	return fp
}

// saltHash folds a descriptor-level salt into the running hash state h.
// The bounded backend salts fingerprints with its memory budget so plans
// compiled for different budgets — whose step schedules and exchange
// identities differ — never replay for each
// other. Salt 0 (no budget) contributes nothing, keeping unbudgeted
// fingerprints byte-identical to the historical format.
func saltHash(h, salt uint64) uint64 {
	if salt == 0 {
		return h
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], salt)
	return hash64(h, b[:])
}

// mixExchangeID mints an exchange ID from the plan fingerprint and the
// descriptor's lockstep exchange counter. The splitmix64 finalizer
// scatters consecutive counters across the keyspace so IDs from
// different plans or runs do not collide on low bits; zero is reserved
// for "no trace context" and remapped.
func mixExchangeID(fp, seq uint64) uint64 {
	z := (fp ^ seq) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// cacheKey identifies a cached plan: the global-geometry fingerprint plus
// the rank the plan was compiled for (plans are rank-specific — each holds
// only its own rank's schedule).
type cacheKey struct {
	fp   uint64
	rank int
}

// planCache is a small LRU of compiled plans. Like the Descriptor that
// owns it, it is not safe for concurrent use.
type planCache struct {
	limit int
	ll    *list.List // front = most recently used
	byKey map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	val *Plan
}

func newPlanCache(limit int) *planCache {
	return &planCache{limit: limit, ll: list.New(), byKey: make(map[cacheKey]*list.Element)}
}

// lookup fingerprints the global geometry from this rank's canonical
// encoding enc and collectively decides, in one allgather, whether every
// rank can replay a cached plan. salt is folded into every rank's local
// hash (see saltHash); it must be uniform across ranks, like the geometry
// itself — a disagreement changes the global fingerprint, which no rank
// then lists, so all ranks compile together. match confirms a candidate
// was compiled from exactly this rank's current geometry (the collision
// defense). Returns the plan only on a unanimous hit; otherwise the
// caller must compile and then put the plan under the returned key, on
// every rank — from geoms, every rank's encoding, when all of them rode
// in the votes, or else after gathering them itself.
func (pc *planCache) lookup(c *mpi.Comm, enc []byte, salt uint64, match func(*Plan) bool) (hit *Plan, key cacheKey, geoms [][]byte, err error) {
	key = cacheKey{fp: fnvOffset64, rank: c.Rank()}
	gathered, err := c.Allgather(pc.vote(enc, salt, key.rank, match))
	if err != nil {
		return nil, key, nil, err
	}
	all := true
	for r, v := range gathered {
		g, v, err := splitVote(v)
		if err != nil {
			return nil, key, nil, fmt.Errorf("core: malformed cache vote from rank %d: %w", r, err)
		}
		all = all && len(g) > 0
		key.fp = hash64(key.fp, v[:8])
	}
	miss := false
	for _, v := range gathered {
		_, v, _ := splitVote(v)
		miss = miss || !offered(v[8:], key.fp)
	}
	if !miss {
		// This rank's own vote is among the gathered, so the entry exists.
		hit, _ = pc.get(key)
		return hit, key, nil, nil
	}
	if all {
		geoms = make([][]byte, len(gathered))
		for r, v := range gathered {
			geoms[r], _, _ = splitVote(v)
		}
	}
	return nil, key, geoms, nil
}

// vote builds rank's contribution to the agreement: the geometry it
// carries (enc, or nothing when enc is large and a cached plan is
// offered for it), the salted hash of enc, then the fingerprints of the
// cached plans match confirms.
func (pc *planCache) vote(enc []byte, salt uint64, rank int, match func(*Plan) bool) []byte {
	var buf [64]byte
	offers := pc.offers(buf[:0], rank, match)
	carried := enc
	if len(offers) > 0 && len(enc) > inlineGeometry {
		carried = nil
	}
	vote := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(carried)+8+len(offers)), uint64(len(carried)))
	vote = append(vote, carried...)
	vote = binary.LittleEndian.AppendUint64(vote, saltHash(hash64(fnvOffset64, enc), salt))
	return append(vote, offers...)
}

// splitVote splits a gathered vote into the geometry it carries (empty
// when the rank left it out) and the hash followed by whole fingerprints.
func splitVote(v []byte) (geom, rest []byte, err error) {
	n, rest, err := readUvarint(v)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) || len(rest)-int(n) < 8 || (len(rest)-int(n))%8 != 0 {
		return nil, nil, fmt.Errorf("%d bytes are no %d-byte geometry, hash and fingerprints", len(v), n)
	}
	return rest[:n], rest[n:], nil
}

// offers appends to buf the fingerprints of rank's cached plans that
// match confirms. The global fingerprint is not known before the gather,
// so a rank offers every plan it could replay for its contribution.
func (pc *planCache) offers(buf []byte, rank int, match func(*Plan) bool) []byte {
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); ent.key.rank == rank && match(ent.val) {
			buf = binary.LittleEndian.AppendUint64(buf, ent.key.fp)
		}
	}
	return buf
}

// offered reports whether a rank's offers (whole 8-byte fingerprints)
// include fp.
func offered(offers []byte, fp uint64) bool {
	for ; len(offers) > 0; offers = offers[8:] {
		if binary.LittleEndian.Uint64(offers) == fp {
			return true
		}
	}
	return false
}

// get returns the plan stored under key, marked most recently used.
func (pc *planCache) get(key cacheKey) (*Plan, bool) {
	el, ok := pc.byKey[key]
	if !ok {
		return nil, false
	}
	pc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put records val under key, evicting the least recently used entry
// beyond the cache's capacity.
func (pc *planCache) put(key cacheKey, val *Plan) {
	if el, ok := pc.byKey[key]; ok {
		el.Value.(*cacheEntry).val = val
		pc.ll.MoveToFront(el)
		return
	}
	pc.byKey[key] = pc.ll.PushFront(&cacheEntry{key: key, val: val})
	for pc.ll.Len() > pc.limit {
		back := pc.ll.Back()
		pc.ll.Remove(back)
		delete(pc.byKey, back.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached plans.
func (pc *planCache) len() int { return pc.ll.Len() }
