package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"ddr/internal/grid"
)

// benchMappingGeometry builds the mapping benchmark's geometry: a 3-D
// stack of procs bricks along z, each rank's brick split into chunksPer
// z-slabs, with every rank needing its brick shifted by half a brick —
// the halo-style regrid where each rank exchanges with a handful of
// neighbours regardless of scale, so discovery cost is what separates
// the compilers.
func benchMappingGeometry(procs, chunksPer int) ([][]grid.Box, []grid.Box) {
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

// gcQuiesce disables the collector for a benchmark that retains a whole
// schedule per iteration; the caller forces a collection between
// iterations with the timer stopped, so both compilers are measured on
// raw compile cost rather than GC pacing noise.
func gcQuiesce() func() {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// BenchmarkSetupMapping sweeps offline plan compilation across process
// counts. One rank's plan:
//
//	plan/*:           NewPlanFromGeometry — linear scan into the step list,
//	                  the path SetupDataMapping takes
//	plan-brute/*:     the dense-table reference compiler (mapping_brute.go)
//	bounded/*:        NewPlanFromGeometry plus the budgeted compile at a
//	                  quarter of that rank's footprint — the path
//	                  SetupDataMapping takes under WithMemoryBudget; it
//	                  reads only the rank's own rounds, so its allocations
//	                  follow the rank's slices, not P
//
// and all P plans:
//
//	schedule/*:       CompileSchedule (P per-rank compiles, fanned out
//	                  rank-per-worker)
//	schedule-brute/*: looping the brute-force compiler
//
// The schedule pair is the paper's offline-analysis scenario (ddrplan,
// capacity planning): the acceptance target is the schedule ratio at
// P=1024 with 4 chunks per rank.
//
// churn is one rank's miss on elastic_churn's Connect geometry (17 ranks
// × 16 RandomTiling chunks of a 2048×256 domain, slab needs), cycling
// through the ranks: what SetupDataMapping runs after the gather every
// epoch on every rank — the gathered encodings decoded into the
// descriptor's reused table, then the compile.
func BenchmarkSetupMapping(b *testing.B) {
	b.Run("churn", func(b *testing.B) {
		const ranks, per = 17, 16
		domain := grid.Box2(0, 0, 2048, 256)
		tiles := grid.RandomTiling(rand.New(rand.NewSource(1)), domain, ranks*per)
		chunks := make([][]grid.Box, ranks)
		for r := range chunks {
			chunks[r] = tiles[r*per : (r+1)*per]
		}
		packed := encodeWorld(grid.Slabs(domain, 0, ranks), chunks)
		var s mapScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.compile(i%ranks, 4, packed, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	const chunksPer = 4
	for _, procs := range []int{64, 256, 1024} {
		chunks, needs := benchMappingGeometry(procs, chunksPer)
		rank := procs / 2

		b.Run(fmt.Sprintf("plan/P=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPlanFromGeometry(rank, 4, chunks, needs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("plan-brute/P=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compilePlanBrute(rank, 4, chunks, needs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bounded/P=%d", procs), func(b *testing.B) {
			probe, err := NewPlanFromGeometry(rank, 4, chunks, needs)
			if err != nil {
				b.Fatal(err)
			}
			budget := probe.SingleShotFootprint() / 4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := NewPlanFromGeometry(rank, 4, chunks, needs)
				if err != nil {
					b.Fatal(err)
				}
				bp, err := compileBounded(p, budget)
				if err != nil {
					b.Fatal(err)
				}
				if bp.sched == nil {
					b.Fatalf("budget %d re-packs nothing", budget)
				}
			}
		})
		b.Run(fmt.Sprintf("schedule/P=%d", procs), func(b *testing.B) {
			defer gcQuiesce()()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if _, err := CompileSchedule(4, chunks, needs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("schedule-brute/P=%d", procs), func(b *testing.B) {
			defer gcQuiesce()()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				plans := make([]*Plan, procs)
				for r := range plans {
					p, err := compilePlanBrute(r, 4, chunks, needs)
					if err != nil {
						b.Fatal(err)
					}
					plans[r] = p
				}
				runtime.KeepAlive(plans)
			}
		})
	}
}
