package core

import (
	"time"

	"ddr/internal/grid"
)

// MappingProfile is the per-phase cost breakdown of one offline plan
// compilation, the measurement behind cmd/ddrplan -sweep. It separates
// what a live SetupDataMapping would spend on the wire (the geometry
// allgather payload), on the cache key (canonical encoding + fingerprint),
// and on the rank's compile, so compile-time scaling can be reproduced at
// process counts far beyond the running world.
type MappingProfile struct {
	Procs       int
	TotalChunks int

	// MaxEncodedBytes is the largest single rank's canonical geometry
	// encoding; AllgatherBytes is the sum over ranks — the payload each
	// rank holds after the geometry allgather completes.
	MaxEncodedBytes int
	AllgatherBytes  int64

	// Fingerprint is the plan-cache key for this global geometry.
	Fingerprint uint64

	EncodeTime      time.Duration // canonical encoding of every rank's geometry
	FingerprintTime time.Duration // folding the per-rank hashes into the cache key
	CompileTime     time.Duration // this rank's plan compilation (linear discovery, no index)
}

// ProfileMapping compiles rank's plan offline from a full global geometry
// (as NewPlanFromGeometry does) and returns it together with the
// per-phase timing breakdown.
func ProfileMapping(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, MappingProfile, error) {
	prof := MappingProfile{Procs: len(allNeeds)}
	for _, chunks := range allChunks {
		prof.TotalChunks += len(chunks)
	}

	// Phase 1: the canonical encoding every rank would contribute to the
	// geometry allgather — its total size bounds the setup's wire cost.
	start := time.Now()
	encodings := make([][]byte, len(allNeeds))
	for r := range allNeeds {
		enc := encodeGeometry(allNeeds[r], allChunks[r])
		encodings[r] = enc
		prof.AllgatherBytes += int64(len(enc))
		prof.MaxEncodedBytes = max(prof.MaxEncodedBytes, len(enc))
	}
	prof.EncodeTime = time.Since(start)

	// Phase 2: the cache key, as planCache.lookup derives it on a flat,
	// unsalted world — per-rank FNV-1a hashes folded in rank order.
	start = time.Now()
	prof.Fingerprint = geometryFingerprint(encodings)
	prof.FingerprintTime = time.Since(start)

	// Phase 3: the compile proper.
	start = time.Now()
	sc := newScheduleCompiler(elemSize, allChunks, allNeeds, encodings)
	plan, _, err := sc.plan(rank, nil)
	if err != nil {
		return nil, prof, err
	}
	prof.CompileTime = time.Since(start)
	return plan, prof, nil
}
