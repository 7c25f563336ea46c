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
// encodings in hand (cache-disabled set-ups, the delta compiler). Every
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

// planCache is a small LRU of compiled plans, generic over the plan type
// so the Descriptor (*Plan) and the DeltaCompiler (*DeltaPlan) share one
// implementation. Like the owners that embed it, it is not safe for
// concurrent use.
type planCache[T any] struct {
	limit int
	ll    *list.List // front = most recently used
	byKey map[cacheKey]*list.Element
}

type cacheEntry[T any] struct {
	key cacheKey
	val T
}

func newPlanCache[T any](limit int) *planCache[T] {
	return &planCache[T]{limit: limit, ll: list.New(), byKey: make(map[cacheKey]*list.Element)}
}

// lookup fingerprints the global geometry from this rank's canonical
// encoding enc and collectively decides, in one allgather, whether every
// rank can replay a cached plan. salt is folded into every rank's local
// hash (see saltHash); it must be uniform across ranks, like the geometry
// itself — a disagreement changes the global fingerprint, which no rank
// then lists, so all ranks compile together. match confirms a candidate
// was compiled from exactly this rank's current geometry (the collision
// defense). Returns the plan and true only on a unanimous hit; otherwise
// the caller must compile and then put the plan under the returned key,
// on every rank.
func (pc *planCache[T]) lookup(c *mpi.Comm, enc []byte, salt uint64, match func(T) bool) (hit T, key cacheKey, ok bool, err error) {
	key = cacheKey{fp: fnvOffset64, rank: c.Rank()}
	vote := binary.LittleEndian.AppendUint64(make([]byte, 0, 16),
		saltHash(hash64(fnvOffset64, enc), salt))
	gathered, err := c.Allgather(pc.offers(vote, key.rank, match))
	if err != nil {
		return hit, key, false, err
	}
	for r, v := range gathered {
		if len(v) < 8 || len(v)%8 != 0 {
			return hit, key, false, fmt.Errorf("core: malformed %d-byte cache vote from rank %d", len(v), r)
		}
		key.fp = hash64(key.fp, v[:8])
	}
	for _, v := range gathered {
		if !offered(v[8:], key.fp) {
			return hit, key, false, nil
		}
	}
	// This rank's own vote is among the gathered, so the entry exists.
	hit, _ = pc.get(key)
	return hit, key, true, nil
}

// offers appends to vote the fingerprints of rank's cached plans that
// match confirms. The global fingerprint is not known before the gather,
// so a rank offers every plan it could replay for its contribution.
func (pc *planCache[T]) offers(vote []byte, rank int, match func(T) bool) []byte {
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry[T]); ent.key.rank == rank && match(ent.val) {
			vote = binary.LittleEndian.AppendUint64(vote, ent.key.fp)
		}
	}
	return vote
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
func (pc *planCache[T]) get(key cacheKey) (T, bool) {
	el, ok := pc.byKey[key]
	if !ok {
		var zero T
		return zero, false
	}
	pc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[T]).val, true
}

// put records val under key, evicting the least recently used entry
// beyond the cache's capacity.
func (pc *planCache[T]) put(key cacheKey, val T) {
	if el, ok := pc.byKey[key]; ok {
		el.Value.(*cacheEntry[T]).val = val
		pc.ll.MoveToFront(el)
		return
	}
	pc.byKey[key] = pc.ll.PushFront(&cacheEntry[T]{key: key, val: val})
	for pc.ll.Len() > pc.limit {
		back := pc.ll.Back()
		pc.ll.Remove(back)
		delete(pc.byKey, back.Value.(*cacheEntry[T]).key)
	}
}

// len reports the number of cached plans.
func (pc *planCache[T]) len() int { return pc.ll.Len() }
