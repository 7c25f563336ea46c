package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Owned chunks that overlap — within a rank or across ranks — have a
// defined answer (the ownership rule, mapping.go): every need cell
// arrives exactly once, from the receiver itself when it owns the cell,
// else from its lowest-ranked owner. These tests hold the compilers, the
// executor and every reader of a multi-seg message to it.

// overlapSentinel fills need buffers before an exchange; cells no rank
// owns must still hold it.
const overlapSentinel = 0x5A

// genOverlapGeometry draws a seeded 2-D geometry whose owned chunks
// overlap freely: 3–6 ranks, each owning 1–3 random boxes of a 40×24
// domain, each needing another random box. Some cells nobody owns.
func genOverlapGeometry(seed int64) (chunks [][]grid.Box, needs []grid.Box) {
	rng := rand.New(rand.NewSource(seed))
	domain := grid.Box2(0, 0, 40, 24)
	n := 3 + rng.Intn(4)
	chunks = make([][]grid.Box, n)
	needs = make([]grid.Box, n)
	for r := range chunks {
		for c := 1 + rng.Intn(3); c > 0; c-- {
			chunks[r] = append(chunks[r], grid.RandomBoxIn(rng, domain))
		}
		needs[r] = grid.RandomBoxIn(rng, domain)
	}
	return chunks, needs
}

// ruleCells applies the ownership rule cell by cell, independently of the
// compiler: the obligations checkSchedules holds a world's step lists to,
// and the bytes each rank must put on the wire.
func ruleCells(chunks [][]grid.Box, needs []grid.Box, elemSize int) (map[cellKey]int, []int64) {
	owns := func(r int, pt [grid.MaxDims]int) bool {
		for _, b := range chunks[r] {
			if b.ContainsPoint(pt) {
				return true
			}
		}
		return false
	}
	cells := map[cellKey]int{}
	sent := make([]int64, len(needs))
	for d, need := range needs {
		forCells(need, func(pt [grid.MaxDims]int) {
			src := -1
			if owns(d, pt) {
				src = d
			}
			for s := 0; src < 0 && s < len(chunks); s++ {
				if owns(s, pt) {
					src = s
				}
			}
			if src < 0 {
				return
			}
			cells[cellKey{src, d, 0, pt[0], pt[1], pt[2]}] = 1
			if src != d {
				sent[src] += int64(elemSize)
			}
		})
	}
	return cells, sent
}

// forCells visits every cell of box.
func forCells(box grid.Box, f func(pt [grid.MaxDims]int)) {
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			for x := 0; x < box.Dims[0]; x++ {
				f([grid.MaxDims]int{box.Offset[0] + x, box.Offset[1] + y, box.Offset[2] + z})
			}
		}
	}
}

// ownedBy reports whether any rank owns the cell, the need cells an
// exchange must fill.
func ownedBy(chunks [][]grid.Box) func(x, y, z int) bool {
	return func(x, y, z int) bool {
		for _, cs := range chunks {
			for _, b := range cs {
				if b.ContainsPoint([grid.MaxDims]int{x, y, z}) {
					return true
				}
			}
		}
		return false
	}
}

// TestOverlapScheduleRule holds the compiler to the rule: the per-rank
// compile and CompileSchedule — the same compile, fanned out across ranks
// — produce the same plans, their step lists move exactly the rule's
// cells, and the sweep includes multi-seg messages and fragmented self
// moves.
func TestOverlapScheduleRule(t *testing.T) {
	const elemSize = 4
	multiSeg, selfCut := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		chunks, needs := genOverlapGeometry(seed)
		all, err := CompileSchedule(elemSize, chunks, needs, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scheds := make([][]step, len(all))
		for r, p := range all {
			one, err := compilePlan(r, elemSize, chunks, needs)
			if err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, r, err)
			}
			if !reflect.DeepEqual(one.sched, p.sched) {
				t.Fatalf("seed %d rank %d: per-rank compile differs from CompileSchedule", seed, r)
			}
			scheds[r] = p.sched
			for _, st := range p.sched {
				if len(st.selfs) > 1 {
					selfCut++
				}
				for _, m := range st.sends {
					if len(m.segs) > 1 {
						multiSeg++
					}
				}
			}
		}
		want, _ := ruleCells(chunks, needs, elemSize)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkSchedules(t, scheds, want, 0) })
	}
	if multiSeg == 0 || selfCut == 0 {
		t.Errorf("sweep compiled %d multi-seg messages and %d rounds of several self moves; both must occur", multiSeg, selfCut)
	}
}

// TestOverlappingOwnersCrossOnce runs plain SetupDataMapping and
// ReorganizeData on the step executor with overlapping owners, on inproc
// and shm: every owned need cell holds its value, every other the
// sentinel, and each rank's sent bytes are exactly the rule's — a cell
// two ranks own crosses the wire once. Run under -race, it also proves
// the landings of one exchange write disjoint regions.
func TestOverlappingOwnersCrossOnce(t *testing.T) {
	const elemSize = 4
	for _, tr := range []struct {
		name string
		opts []mpi.LaunchOption
	}{
		{"inproc", nil},
		{"shm", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				chunks, needs := genOverlapGeometry(seed)
				_, wantSent := ruleCells(chunks, needs, elemSize)
				covered := ownedBy(chunks)
				err := mpi.Launch(len(needs), func(c *mpi.Comm) error {
					r := c.Rank()
					desc, err := NewDescriptor(len(needs), Layout2D, Uint8, WithElemSize(elemSize))
					if err != nil {
						return err
					}
					if err := desc.SetupDataMapping(c, chunks[r], needs[r]); err != nil {
						return err
					}
					own := make([][]byte, len(chunks[r]))
					for i, b := range chunks[r] {
						own[i] = fillBox(b, elemSize)
					}
					need := make([]byte, needs[r].Volume()*elemSize)
					for i := range need {
						need[i] = overlapSentinel
					}
					before := c.Traffic().BytesSent
					if err := desc.ReorganizeData(c, own, need); err != nil {
						return err
					}
					if sent := c.Traffic().BytesSent - before; sent != wantSent[r] {
						return fmt.Errorf("rank %d sent %d bytes, the ownership rule moves %d", r, sent, wantSent[r])
					}
					if err := checkBox(need, needs[r], elemSize, covered, overlapSentinel); err != nil {
						return fmt.Errorf("rank %d: %w", r, err)
					}
					return nil
				}, tr.opts...)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// overlapPair is a two-rank 1-D world in which each rank sends the other
// one overlap cut in two by a chunk the receiver owns: rank 0 sends rank
// 1 [0,6) and [10,16) in round 0, rank 1 sends rank 0 [16,20) and
// [24,32) in round 1, and each keeps its own small chunk as a self move.
func overlapPair() (chunks [][]grid.Box, needs []grid.Box) {
	chunks = [][]grid.Box{
		{grid.Box1(0, 16), grid.Box1(20, 4)},
		{grid.Box1(6, 4), grid.Box1(16, 16)},
	}
	return chunks, []grid.Box{grid.Box1(16, 16), grid.Box1(0, 16)}
}

// TestOverlapReaders drives a multi-seg message through the three
// readers that once assumed one seg per message: the bounded compiler
// must cut every seg (checkSchedules would miss the cells of an uncut
// one, and the exchange would leave them unfilled), the summary must list
// every seg's span, and the paper's round — one step at depth 1, where
// the MPI_Alltoallw it stands for takes one datatype per peer — must move
// every fragment.
func TestOverlapReaders(t *testing.T) {
	const elemSize, budget = 64, 256 // four cells a slice
	chunks, needs := overlapPair()
	want, _ := ruleCells(chunks, needs, elemSize)
	plans, err := CompileSchedule(elemSize, chunks, needs, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bounded", func(t *testing.T) {
		var scheds [][]step
		for r, p := range plans {
			b, err := compileBounded(p, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.sched) < 4 {
				t.Fatalf("rank %d: %d bounded steps, want every seg of its 12-cell message sliced", r, len(b.sched))
			}
			scheds = append(scheds, b.steps(p))
		}
		checkSchedules(t, scheds, want, budget)
		err := mpi.Launch(2, func(c *mpi.Comm) error {
			r := c.Rank()
			desc, err := NewDescriptor(2, Layout1D, Uint8, WithElemSize(elemSize), WithMemoryBudget(budget))
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, chunks[r], needs[r]); err != nil {
				return err
			}
			need := make([]byte, needs[r].Volume()*elemSize)
			if err := desc.ReorganizeData(c, [][]byte{fillBox(chunks[r][0], elemSize), fillBox(chunks[r][1], elemSize)}, need); err != nil {
				return err
			}
			return checkBox(need, needs[r], elemSize, nil, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("summary", func(t *testing.T) {
		for r, p := range plans {
			m := p.sched[r].sends[0] // rank r's cut overlap goes out in round r
			e := p.Summary().RoundPlans[r].Sends[0]
			if len(m.segs) != 2 || len(e.Segs) != 2 || e.Span != (SpanSummary{}) {
				t.Fatalf("rank %d: %d-seg message summarized as span %+v segs %+v", r, len(m.segs), e.Span, e.Segs)
			}
			for k, sg := range m.segs {
				if got := e.Segs[k]; got != (SpanSummary{Off: sg.span.off, N: sg.span.n, OK: sg.span.ok}) {
					t.Fatalf("rank %d seg %d summarized as %+v", r, k, got)
				}
			}
		}
	})

	t.Run("alltoallw", func(t *testing.T) {
		err := mpi.Launch(2, func(c *mpi.Comm) error {
			r := c.Rank()
			desc, err := NewDescriptor(2, Layout1D, Uint8, WithElemSize(elemSize), WithPipelineDepth(1))
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, chunks[r], needs[r]); err != nil {
				return err
			}
			need := make([]byte, needs[r].Volume()*elemSize)
			if err := desc.ReorganizeData(c, [][]byte{fillBox(chunks[r][0], elemSize), fillBox(chunks[r][1], elemSize)}, need); err != nil {
				return err
			}
			return checkBox(need, needs[r], elemSize, nil, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
