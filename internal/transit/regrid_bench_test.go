package transit

import (
	"testing"
	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// reconnectGeometry is the producers' chunk layout for the reconnect
// benchmark: a 3-D brick stack along z, each consumer rank owning
// chunksPer z-slabs of its brick and needing the brick shifted by half —
// the same halo-style regrid the mapping benchmarks use, sized so a cold
// Connect does a realistic amount of compilation work per rank.
func reconnectGeometry(procs, chunksPer int) ([][]grid.Box, []grid.Box) {
	const w, h, slab = 64, 64, 8
	bd := slab * chunksPer
	chunks := make([][]grid.Box, procs)
	needs := make([]grid.Box, procs)
	for r := 0; r < procs; r++ {
		z0 := r * bd
		for c := 0; c < chunksPer; c++ {
			chunks[r] = append(chunks[r], grid.Box3(0, 0, z0+c*slab, w, h, slab))
		}
		needs[r] = grid.Box3(0, 0, z0+bd/2, w, h, bd)
	}
	return chunks, needs
}

// benchReconnect times one full Connect epoch across the consumer group,
// with Regridders (and their descriptors' plan caches) persisting across
// epochs exactly as a long-lived coupling would hold them. cacheCap 0
// disables the plan cache, so every epoch is a cold compile; a positive
// cap makes every epoch after the priming one a warm cache hit.
func benchReconnect(b *testing.B, procs, chunksPer, cacheCap int) {
	chunks, needs := reconnectGeometry(procs, chunksPer)
	rgs := make([]*Regridder, procs)
	for r := 0; r < procs; r++ {
		desc, err := core.NewDescriptor(procs, core.Layout3D, core.Uint8,
			core.WithElemSize(4), core.WithPlanCache(cacheCap))
		if err != nil {
			b.Fatal(err)
		}
		rgs[r] = NewRegridder(desc, needs[r])
	}
	epoch := func() error {
		return mpi.Launch(procs, func(c *mpi.Comm) error {
			return rgs[c.Rank()].Connect(c, chunks[c.Rank()])
		})
	}
	// Priming epoch: populates the cache in the warm configuration and
	// puts both configurations in the same steady state before timing.
	if err := epoch(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegridderReconnect measures use case B's steady-state
// reconnect: the producers return with a geometry the consumers have seen
// before. cold disables the plan cache so the epoch pays the full
// geometry exchange, validation, and compile; warm is the same epoch
// satisfied from the cache — one small allgather and a fingerprint.
func BenchmarkRegridderReconnect(b *testing.B) {
	const procs, chunksPer = 64, 16
	b.Run("cold", func(b *testing.B) { benchReconnect(b, procs, chunksPer, 0) })
	b.Run("warm", func(b *testing.B) { benchReconnect(b, procs, chunksPer, 8) })
}

// resizeGeometry is the elastic grow the resize benchmark measures: 64
// consumer ranks hold vertical slabs of a 2-D field, and the group grows
// to 65 by splitting the last slab between the old rank 63 and the
// joining rank 64. Ranks 0..62 keep their needs bit-identical, so the
// ownership delta is half of one slab — the geometry regime a resize
// that keeps what each rank holds exists for.
func resizeGeometry() (oldNeeds, newNeeds []grid.Box) {
	const oldProcs, w, h = 64, 8, 256
	oldNeeds = make([]grid.Box, oldProcs)
	for r := 0; r < oldProcs; r++ {
		oldNeeds[r] = grid.Box2(r*w, 0, w, h)
	}
	newNeeds = make([]grid.Box, oldProcs+1)
	copy(newNeeds, oldNeeds[:oldProcs-1])
	last := oldNeeds[oldProcs-1]
	newNeeds[oldProcs-1] = grid.Box2(last.Offset[0], 0, w/2, h)
	newNeeds[oldProcs] = grid.Box2(last.Offset[0]+w/2, 0, w/2, h)
	// The joiner holds nothing before the resize: a zero-extent old need.
	oldNeeds = append(oldNeeds, grid.Box2(0, 0, 0, 0))
	return oldNeeds, newNeeds
}

// BenchmarkRegridderResize quantifies what mapping a resize as a
// redistribution of the old need boxes buys over recompiling and
// re-exchanging from the producers' chunks on a 64→65 grow:
//
//	delta-compile   the plan compiler over the old need boxes as owned
//	                chunks: all-ranks is CompileDelta, every rank's plan,
//	                and reports moved_frac, the share of the new need that
//	                crosses the wire (a cold full re-exchange ships every
//	                byte, so moved_frac is also the moved-bytes ratio
//	                against that baseline); one-rank is NewPlanFromGeometry
//	                for the rank that splits its slab — what each rank of a
//	                collective Resize compiles.
//	full-compile    from-scratch CompileSchedule of the chunked geometry.
//	compile-speedup one rank's NewPlanFromGeometry of each geometry back
//	                to back; reports the ratio.
//	exchange        the complete collective Resize through Regridder
//	                sessions: mapping + wire + local copies.
func BenchmarkRegridderResize(b *testing.B) {
	const elemSize = 4
	oldNeeds, newNeeds := resizeGeometry()
	nOld, nNew := len(oldNeeds)-1, len(newNeeds)

	// allChunks is what a teardown would hand the from-scratch compiler:
	// the data as the old group actually holds it, chunked — each old
	// rank's slab arrives as 16 producer chunks, exactly as the reconnect
	// path sees it (the joiner contributes no chunk). The resize compile
	// instead owns each old need box as one chunk (oldChunks).
	const chunksPer = 16
	allChunks := make([][]grid.Box, nNew)
	oldChunks := make([][]grid.Box, nNew)
	for r := 0; r < nNew; r++ {
		if r < nOld {
			allChunks[r] = grid.Slabs(oldNeeds[r], 1, chunksPer)
		}
		oldChunks[r] = oldNeeds[r : r+1]
	}

	b.Run("delta-compile", func(b *testing.B) {
		b.Run("all-ranks", func(b *testing.B) {
			b.ReportAllocs()
			var plans []*core.Plan
			for i := 0; i < b.N; i++ {
				var err error
				plans, err = core.CompileDelta(elemSize, oldNeeds, newNeeds)
				if err != nil {
					b.Fatal(err)
				}
			}
			var moved, need int64
			for r, p := range plans {
				moved += p.ReceivedBytes()
				need += int64(newNeeds[r].Volume()) * elemSize
			}
			b.ReportMetric(float64(moved)/float64(need), "moved_frac")
		})
		b.Run("one-rank", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPlanFromGeometry(nOld-1, elemSize, oldChunks, newNeeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("full-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CompileSchedule(elemSize, allChunks, newNeeds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("compile-speedup", func(b *testing.B) {
		var dFull, dDelta time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := core.NewPlanFromGeometry(nOld-1, elemSize, allChunks, newNeeds); err != nil {
				b.Fatal(err)
			}
			dFull += time.Since(t0)
			t1 := time.Now()
			if _, err := core.NewPlanFromGeometry(nOld-1, elemSize, oldChunks, newNeeds); err != nil {
				b.Fatal(err)
			}
			dDelta += time.Since(t1)
		}
		b.ReportMetric(float64(dFull)/float64(dDelta), "compile_speedup")
	})

	b.Run("exchange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rgs := make([]*Regridder, nNew)
			for r := range rgs {
				desc, err := core.NewDescriptor(nOld, core.Layout2D, core.Uint8,
					core.WithElemSize(elemSize))
				if err != nil {
					b.Fatal(err)
				}
				need := grid.Box{}
				if r < nOld {
					need = oldNeeds[r]
				}
				rgs[r] = NewRegridder(desc, need)
			}
			err := mpi.Launch(nNew, func(c *mpi.Comm) error {
				r := c.Rank()
				var oldData []byte
				if r < nOld {
					oldData = make([]byte, oldNeeds[r].Volume()*elemSize)
				}
				newData := make([]byte, newNeeds[r].Volume()*elemSize)
				_, err := rgs[r].Resize(c, newNeeds[r], oldData, newData)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
