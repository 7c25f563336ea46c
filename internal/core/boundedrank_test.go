package core

import (
	"errors"
	"fmt"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Tests of the per-rank bounded compile: each rank re-packs only its own
// rounds, so ranks of one world run different step lists under one
// budget, and the schedule must stay compatible, bounded and complete
// wherever those decisions split.

// skewedWorld is four ranks of very different weight: 64×64 float32 row
// strips of heights 40, 10, 8 and 6, each split into two chunks (two
// rounds), regridded onto column strips of the same widths. Rank 0's
// rounds stage several times what rank 3's do.
func skewedWorld() boundedCase {
	bc := boundedCase{nProcs: 4, layout: Layout2D, elemSize: 4}
	at := 0
	for _, w := range []int{40, 10, 8, 6} {
		bc.chunks = append(bc.chunks, []grid.Box{grid.Box2(0, at, 64, w/2), grid.Box2(0, at+w/2, 64, w-w/2)})
		bc.needs = append(bc.needs, grid.Box2(at, 0, w, 64))
		at += w
	}
	return bc
}

// TestBoundedMixedRankDecisions runs the skewed world under a budget that
// its lightest rank's rounds fit and the others' do not, for the
// point-to-point and the staged "alltoallw" sweep rows, at depths 1/2/4,
// on inproc, tcp and shm. Every result must match
// the fill oracle, every rank's measured peak must stay under the budget,
// every fitting rank must run exactly its compiled rounds and every other
// rank its re-packed steps.
func TestBoundedMixedRankDecisions(t *testing.T) {
	bc := skewedWorld()
	fps := bc.footprints(t)
	budget := fps[0]
	for _, fp := range fps {
		budget = min(budget, fp)
	}
	fit := 0
	for _, fp := range fps {
		if fp <= budget {
			fit++
		}
	}
	if fit == 0 || fit == bc.nProcs || budget < 1<<minStagingShift {
		t.Fatalf("footprints %v under budget %d do not split the world", fps, budget)
	}
	transports := []struct {
		name string
		opts []mpi.LaunchOption
	}{
		{"inproc", nil},
		{"tcp", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportTCP)}},
		{"shm", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}},
	}
	for _, tr := range transports {
		for _, row := range sweepRows[:2] {
			for _, depth := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/depth%d", tr.name, row.name, depth), func(t *testing.T) {
					err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
						rank := c.Rank()
						d, err := NewDescriptor(bc.nProcs, bc.layout, Float32,
							append(row.opts(), WithPipelineDepth(depth), WithMemoryBudget(budget))...)
						if err != nil {
							return err
						}
						if err := d.SetupDataMapping(c, bc.chunks[rank], bc.needs[rank]); err != nil {
							return err
						}
						steps, _ := d.schedule(d.plan)
						switch fits := fps[rank] <= budget; {
						case fits && (d.BoundedSteps() != 0 || len(steps) != len(d.plan.sched) || &steps[0] != &d.plan.sched[0]):
							return fmt.Errorf("rank %d: footprint %d fits budget %d, but it does not replay its rounds", rank, fps[rank], budget)
						case !fits && d.BoundedSteps() == 0:
							return fmt.Errorf("rank %d: footprint %d exceeds budget %d, but it did not re-pack", rank, fps[rank], budget)
						}
						bufs := make([][]byte, len(bc.chunks[rank]))
						for i, box := range bc.chunks[rank] {
							bufs[i] = fillBox(box, 4)
						}
						dst := make([]byte, bc.needs[rank].Volume()*4)
						for iter := 0; iter < 2; iter++ {
							clear(dst)
							if err := d.ReorganizeData(c, bufs, dst); err != nil {
								return err
							}
							if peak := d.LastPeakStaging(); peak > int64(budget) {
								return fmt.Errorf("rank %d: peak staging %d exceeds budget %d", rank, peak, budget)
							}
							if err := checkBox(dst, bc.needs[rank], 4, nil, 0); err != nil {
								return fmt.Errorf("rank %d iter %d: %w", rank, iter, err)
							}
						}
						return nil
					}, tr.opts...)
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestBoundedTagRange pins the bounded tag range: a pair's slice tags run
// from boundedTagBase to the last tag of DDR's reserved range, and a pair
// that needs one slice more fails the compile with ErrBudgetTooSmall
// rather than mint a tag outside it.
func TestBoundedTagRange(t *testing.T) {
	const limit = ddrTagLimit - boundedTagBase
	if tag, err := sliceTag(limit - 1); err != nil || tag != ddrTagLimit-1 {
		t.Fatalf("sliceTag(%d) = %d, %v; want %d", limit-1, tag, err, ddrTagLimit-1)
	}
	if _, err := sliceTag(limit); !errors.Is(err, ErrBudgetTooSmall) {
		t.Fatalf("sliceTag(%d): %v, want ErrBudgetTooSmall", limit, err)
	}
	// End to end: rank 0 sends rank 1 one message of limit+1 256-byte
	// elements, one slice each under the minimum budget.
	chunks := [][]grid.Box{{grid.Box1(0, limit+1)}, {grid.Box1(limit+1, 1)}}
	needs := []grid.Box{grid.Box1(limit+1, 1), grid.Box1(0, limit+1)}
	p, err := NewPlanFromGeometry(0, 256, chunks, needs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compileBounded(p, 256); !errors.Is(err, ErrBudgetTooSmall) {
		t.Fatalf("a pair of %d slices compiled: %v, want ErrBudgetTooSmall", limit+1, err)
	}
}

// regionKey groups a step list's regions: by peer, local buffer and
// direction. A self move's source side counts as a send to the rank
// itself, its destination side as a receive from it.
type regionKey struct {
	peer, buf int
	recv      bool
}

// regionsOf lists the regions of rank's step list per regionKey.
func regionsOf(rank int, sched []step) map[regionKey][]grid.Box {
	out := map[regionKey][]grid.Box{}
	add := func(peer int, recv bool, sg seg) {
		k := regionKey{peer, sg.buf, recv}
		out[k] = append(out[k], sg.t.Sub)
	}
	for i := range sched {
		st := &sched[i]
		for _, sf := range st.selfs {
			add(rank, false, sf.src)
			add(rank, true, sf.dst)
		}
		for _, m := range st.sends {
			for _, sg := range m.segs {
				add(m.peer, false, sg)
			}
		}
		for _, m := range st.recvs {
			for _, sg := range m.segs {
				add(m.peer, true, sg)
			}
		}
	}
	return out
}

// tiles reports whether pieces tile the disjoint regions want exactly:
// every piece inside one of them, no two pieces overlapping, and equal
// total volume.
func tiles(pieces, want []grid.Box) bool {
	vol := 0
	for _, w := range want {
		vol -= w.Volume()
	}
	for i, pc := range pieces {
		vol += pc.Volume()
		inside := false
		for _, w := range want {
			inside = inside || w.Contains(pc)
		}
		if !inside {
			return false
		}
		for _, other := range pieces[:i] {
			if ov, ok := pc.Intersect(other); ok && !ov.Empty() {
				return false
			}
		}
	}
	return vol == 0
}

// FuzzCompileBounded compiles every rank's budgeted schedule for a small
// geometry — a golden one (pick < 3) or genBoundedCase(seed) — under a
// budget from 256 B up. Each rank's outcome must be a typed error or a
// step list that tiles exactly the rank's one-shot send and receive
// regions; across the world the lists must model no step above the
// budget, keep tags unique per peer, pair every send with one receive,
// move every overlap cell once and run to completion (checkSchedules).
func FuzzCompileBounded(f *testing.F) {
	golden := goldenCases()
	for i, gc := range golden {
		f.Add(int64(i), uint8(i), uint32(goldenBoundedBudgets[gc.name]-256))
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(len(golden)), uint32(seed*509))
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, extra uint32) {
		bc := genBoundedCase(seed)
		if int(pick) < len(golden) {
			gc := golden[pick]
			bc = boundedCase{nProcs: len(gc.needs), layout: gc.layout, elemSize: gc.elemSize, chunks: gc.chunks, needs: gc.needs}
		}
		budget := 1<<minStagingShift + int(extra%(1<<20))
		var scheds [][]step
		for _, p := range bc.plans(t) {
			b, err := compileBounded(p, budget)
			if err != nil {
				if !errors.Is(err, ErrBudgetTooSmall) {
					t.Fatalf("rank %d, budget %d: untyped error %v", p.rank, budget, err)
				}
				return
			}
			sched := b.steps(p)
			want := regionsOf(p.rank, p.sched)
			got := regionsOf(p.rank, sched)
			if len(got) != len(want) {
				t.Fatalf("rank %d, budget %d: %d region groups, one-shot has %d", p.rank, budget, len(got), len(want))
			}
			for k, w := range want {
				if !tiles(got[k], w) {
					t.Fatalf("rank %d, budget %d: regions %+v do not tile the one-shot %v: %v", p.rank, budget, k, w, got[k])
				}
			}
			scheds = append(scheds, sched)
		}
		checkSchedules(t, scheds, bc.overlapCells(), budget)
	})
}
