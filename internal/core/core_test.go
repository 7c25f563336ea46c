package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// valueAt returns the canonical byte pattern for the element at global
// coordinates (x,y,z) with the given element size; every rank can compute
// the expected content of any region with it.
func valueAt(x, y, z, elemSize int) []byte {
	v := uint64(x) + 1009*uint64(y) + 1000003*uint64(z) + 7
	out := make([]byte, elemSize)
	for b := range out {
		out[b] = byte(v >> (8 * (b % 8)))
	}
	return out
}

// fillBox writes the canonical pattern into a buffer holding box.
func fillBox(box grid.Box, elemSize int) []byte {
	buf := make([]byte, box.Volume()*elemSize)
	i := 0
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			for x := 0; x < box.Dims[0]; x++ {
				copy(buf[i:], valueAt(box.Offset[0]+x, box.Offset[1]+y, box.Offset[2]+z, elemSize))
				i += elemSize
			}
		}
	}
	return buf
}

// checkBox verifies that buf holds the canonical pattern for box wherever
// covered reports true, and holds fill bytes elsewhere.
func checkBox(buf []byte, box grid.Box, elemSize int, covered func(x, y, z int) bool, fill byte) error {
	i := 0
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			for x := 0; x < box.Dims[0]; x++ {
				gx, gy, gz := box.Offset[0]+x, box.Offset[1]+y, box.Offset[2]+z
				cell := buf[i : i+elemSize]
				if covered == nil || covered(gx, gy, gz) {
					want := valueAt(gx, gy, gz, elemSize)
					for b := range cell {
						if cell[b] != want[b] {
							return fmt.Errorf("element (%d,%d,%d) byte %d = %d, want %d", gx, gy, gz, b, cell[b], want[b])
						}
					}
				} else {
					for b := range cell {
						if cell[b] != fill {
							return fmt.Errorf("uncovered element (%d,%d,%d) was overwritten", gx, gy, gz)
						}
					}
				}
				i += elemSize
			}
		}
	}
	return nil
}

func TestNewDescriptorValidation(t *testing.T) {
	if _, err := NewDescriptor(0, Layout2D, Float32); err == nil {
		t.Error("zero process count accepted")
	}
	if _, err := NewDescriptor(4, Layout(9), Float32); err == nil {
		t.Error("bad layout accepted")
	}
	if _, err := NewDescriptor(4, Layout2D, Float32, WithElemSize(0)); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := NewDescriptor(4, Layout2D, Float32, WithExchangeDeadline(time.Second), WithPipelineDepth(1)); err != nil {
		t.Errorf("a serial exchange with a deadline rejected: %v", err)
	}
	d, err := NewDescriptor(4, Layout2D, Float32)
	if err != nil {
		t.Fatal(err)
	}
	if d.Layout() != Layout2D || d.ElemSize() != 4 {
		t.Errorf("descriptor fields: %v %d", d.Layout(), d.ElemSize())
	}
	if d.Plan() != nil {
		t.Error("plan non-nil before SetupDataMapping")
	}
}

func TestElemTypeSizes(t *testing.T) {
	want := map[ElemType]int{Uint8: 1, Int16: 2, Int32: 4, Float32: 4, Float64: 8}
	for e, n := range want {
		if e.Size() != n {
			t.Errorf("%v.Size() = %d, want %d", e, e.Size(), n)
		}
	}
	if ElemType(99).Size() != 0 {
		t.Error("unknown element type has a size")
	}
	if _, err := NewDescriptor(2, Layout1D, ElemType(99)); err == nil {
		t.Error("unknown element type accepted")
	}
}

// e1Geometry returns the paper's E1 layout for the given rank: two 8x1
// rows owned (y = rank and y = rank+4) and one 4x4 quadrant needed.
func e1Geometry(rank int) (own []grid.Box, need grid.Box) {
	own = []grid.Box{
		grid.Box2(0, rank, 8, 1),
		grid.Box2(0, rank+4, 8, 1),
	}
	right := rank % 2
	bottom := rank / 2
	need = grid.Box2(4*right, 4*bottom, 4, 4)
	return own, need
}

// depthRow is one of the two exchange configurations the tests once split
// by exchange mode, kept under the subtest names they had then.
type depthRow struct {
	name  string
	depth int
}

// depthRows: "alltoallw" is the paper's round — one MPI_Alltoallw there,
// one step run at depth 1 here — and "point-to-point" the default depth,
// which overlaps a round's pack with the previous round's wire time.
var depthRows = []depthRow{
	{"alltoallw", 1},
	{"point-to-point", DefaultPipelineDepth},
}

// TestE1Redistribution runs the paper's running example end to end on
// every transport, serial and pipelined, checking every received element.
func TestE1Redistribution(t *testing.T) {
	for _, row := range depthRows {
		for _, tr := range []struct {
			name string
			run  func(int, func(*mpi.Comm) error) error
		}{
			{"inproc", func(n int, body func(*mpi.Comm) error) error {
				return mpi.Launch(n, body)
			}},
			{"tcp", func(n int, body func(*mpi.Comm) error) error {
				return mpi.Launch(n, body, mpi.WithTransport(mpi.TransportTCP))
			}},
		} {
			t.Run(fmt.Sprintf("%s/%s", row.name, tr.name), func(t *testing.T) {
				err := tr.run(4, func(c *mpi.Comm) error {
					own, need := e1Geometry(c.Rank())
					desc, err := NewDescriptor(4, Layout2D, Float32,
						WithPipelineDepth(row.depth), WithValidation())
					if err != nil {
						return err
					}
					if err := desc.SetupDataMapping(c, own, need); err != nil {
						return err
					}
					ownBufs := [][]byte{fillBox(own[0], 4), fillBox(own[1], 4)}
					needBuf := make([]byte, need.Volume()*4)
					if err := desc.ReorganizeData(c, ownBufs, needBuf); err != nil {
						return err
					}
					return checkBox(needBuf, need, 4, nil, 0)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPaperRoundIsDepthOneStep holds the executor to Table III's
// schedule: at WithPipelineDepth(1), on E1 (two rounds) and on a stack
// dealt round-robin as unit slices (sixteen rounds), every rank runs one
// step per round of its plan, serially and in round order, each sending
// exactly the bytes Plan.RoundSendBytes reports for its round, and the
// need buffer ends holding the closed-form fill.
func TestPaperRoundIsDepthOneStep(t *testing.T) {
	_, stackOwn, stackNeed := stackWorld(8, 128)
	e1Own, e1Need := make([][]grid.Box, 4), make([]grid.Box, 4)
	for r := range e1Own {
		e1Own[r], e1Need[r] = e1Geometry(r)
	}
	for _, g := range []struct {
		name    string
		layout  Layout
		rounds  int
		ownAll  [][]grid.Box
		needAll []grid.Box
	}{
		{"e1", Layout2D, 2, e1Own, e1Need},
		{"stack", Layout3D, 16, stackOwn, stackNeed},
	} {
		t.Run(g.name, func(t *testing.T) {
			n := len(g.needAll)
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				rank := c.Rank()
				desc, err := NewDescriptor(n, g.layout, Float32, WithPipelineDepth(1))
				if err != nil {
					return err
				}
				if err := desc.SetupDataMapping(c, g.ownAll[rank], g.needAll[rank]); err != nil {
					return err
				}
				p := desc.Plan()
				if p.Rounds() != g.rounds {
					return fmt.Errorf("rank %d: %d rounds, want %d", rank, p.Rounds(), g.rounds)
				}
				bufs := make([][]byte, len(g.ownAll[rank]))
				for i, b := range g.ownAll[rank] {
					bufs[i] = fillBox(b, 4)
				}
				need := make([]byte, g.needAll[rank].Volume()*4)
				if err := desc.ReorganizeData(c, bufs, need); err != nil {
					return err
				}
				if k := desc.LastPipelineDepth(); k != 1 {
					return fmt.Errorf("rank %d ran at depth %d, want 1", rank, k)
				}
				ts := desc.LastTimings()
				if len(ts) != p.Rounds() {
					return fmt.Errorf("rank %d: %d timings for %d rounds", rank, len(ts), p.Rounds())
				}
				for r, tm := range ts {
					if tm.Round != r {
						return fmt.Errorf("rank %d: timing %d is round %d", rank, r, tm.Round)
					}
					if want := p.RoundSendBytes(r); tm.WireBytes != want {
						return fmt.Errorf("rank %d round %d moved %d wire bytes, the plan says %d", rank, r, tm.WireBytes, want)
					}
				}
				return checkBox(need, g.needAll[rank], 4, nil, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestE1PlanShape checks the structural facts the paper states for E1:
// two rounds (max chunks per rank) and the Figure 1B mapping for rank 0.
func TestE1PlanShape(t *testing.T) {
	err := mpi.Launch(4, func(c *mpi.Comm) error {
		own, need := e1Geometry(c.Rank())
		desc, err := NewDescriptor(4, Layout2D, Float32)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		p := desc.Plan()
		if p.Rounds() != 2 {
			return fmt.Errorf("rounds = %d, want 2", p.Rounds())
		}
		if c.Rank() != 0 {
			return nil
		}
		// Rank 0 owns rows y=0 and y=4. Row 0 feeds needs of ranks 0 and 1;
		// row 4 feeds needs of ranks 2 and 3 (Figure 1B).
		// Each overlap is a 4x1 sub-row of float32s: 16 bytes.
		wantSend := map[int][2]int{ // peer -> bytes in rounds 0,1
			0: {16, 0},
			1: {16, 0},
			2: {0, 16},
			3: {0, 16},
		}
		// Rank 0 needs quadrant (0,0)+(4,4): rows y=0..3, owned as chunk 0
		// of ranks 0..3 respectively.
		wantRecv := [2]int{16, 0}
		for r := 0; r < 2; r++ {
			rowSend, rowRecv := alltoallwRows(p, r)
			for peer := 0; peer < 4; peer++ {
				if got, want := rowSend[peer].PackedSize(), wantSend[peer][r]; got != want {
					return fmt.Errorf("send round %d to rank %d: %d bytes, want %d", r, peer, got, want)
				}
				if got := rowRecv[peer].PackedSize(); got != wantRecv[r] {
					return fmt.Errorf("recv round %d from rank %d: %d bytes, want %d", r, peer, got, wantRecv[r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestE1Stats(t *testing.T) {
	err := mpi.Launch(4, func(c *mpi.Comm) error {
		own, need := e1Geometry(c.Rank())
		desc, err := NewDescriptor(4, Layout2D, Float32)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		s := desc.Plan().Stats()
		// 64 elements total; each rank keeps one 4-element sub-row locally.
		if s.Rounds != 2 || s.Ranks != 4 {
			return fmt.Errorf("rounds/ranks = %d/%d", s.Rounds, s.Ranks)
		}
		if s.SelfBytes != 4*4*4 {
			return fmt.Errorf("self bytes = %d, want 64", s.SelfBytes)
		}
		if s.TotalWireBytes != 64*4-64 {
			return fmt.Errorf("wire bytes = %d, want 192", s.TotalWireBytes)
		}
		if s.PerRankRoundAvg != 192.0/8 {
			return fmt.Errorf("avg = %f, want 24", s.PerRankRoundAvg)
		}
		if s.PerRankRoundMax != 32 {
			return fmt.Errorf("max = %d, want 32", s.PerRankRoundMax)
		}
		if s.MaxPeersPerRound != 2 {
			return fmt.Errorf("max peers = %d, want 2", s.MaxPeersPerRound)
		}
		if !strings.Contains(s.String(), "rounds=2") {
			return fmt.Errorf("stats string %q", s.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomRedistribution is the library's central property test: for
// random domains, random disjoint-complete ownerships, and random need
// boxes, every rank must receive exactly the canonical data for its need
// box, serially (depth 1) and pipelined on alternate trials.
func TestRandomRedistribution(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(8)
		layout := Layout(1 + rng.Intn(3))
		elemSizes := []int{1, 2, 4, 8}
		elemSize := elemSizes[rng.Intn(len(elemSizes))]
		dims := make([]int, layout.NDims())
		offset := make([]int, layout.NDims())
		for i := range dims {
			dims[i] = 2 + rng.Intn(10)
			offset[i] = rng.Intn(4)
		}
		domain := grid.MustBox(offset, dims)
		tiles := grid.RandomTiling(rng, domain, 1+rng.Intn(3*n))
		// Distribute tiles to ranks round-robin; some ranks may get none.
		ownAll := make([][]grid.Box, n)
		for i, b := range tiles {
			r := i % n
			ownAll[r] = append(ownAll[r], b)
		}
		needAll := make([]grid.Box, n)
		for r := range needAll {
			needAll[r] = grid.RandomBoxIn(rng, domain)
		}
		depth := depthRows[trial%2].depth
		err := mpi.Launch(n, func(c *mpi.Comm) error {
			rank := c.Rank()
			desc, err := NewDescriptor(n, layout, Uint8, WithElemSize(elemSize),
				WithPipelineDepth(depth), WithValidation())
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
				return err
			}
			bufs := make([][]byte, len(ownAll[rank]))
			for i, b := range ownAll[rank] {
				bufs[i] = fillBox(b, elemSize)
			}
			needBuf := make([]byte, needAll[rank].Volume()*elemSize)
			if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
				return err
			}
			// Ownership is complete over the domain and needs are within the
			// domain, so every element must be covered.
			if err := checkBox(needBuf, needAll[rank], elemSize, nil, 0); err != nil {
				return fmt.Errorf("trial %d rank %d: %w", trial, rank, err)
			}
			// Dynamic-data property: reorganize again with refreshed buffers
			// without re-running SetupDataMapping.
			for i := range needBuf {
				needBuf[i] = 0
			}
			if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
				return err
			}
			return checkBox(needBuf, needAll[rank], elemSize, nil, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncompleteReceive verifies the paper's receiving-side semantics:
// regions of the need box owned by nobody stay untouched, and overlapping
// needs are delivered to every requester.
func TestIncompleteReceive(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		// Ownership covers only x in [0,6) of a 10-wide 1D domain.
		ownAll := [][]grid.Box{{grid.Box1(0, 3)}, {grid.Box1(3, 3)}}
		// Both ranks want the whole [0,10) — overlapping and extending past
		// the owned region.
		need := grid.Box1(0, 10)
		desc, err := NewDescriptor(2, Layout1D, Uint8)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, ownAll[c.Rank()], need); err != nil {
			return err
		}
		bufs := [][]byte{fillBox(ownAll[c.Rank()][0], 1)}
		needBuf := make([]byte, 10)
		for i := range needBuf {
			needBuf[i] = 0xEE
		}
		if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
			return err
		}
		return checkBox(needBuf, need, 1, func(x, y, z int) bool { return x < 6 }, 0xEE)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidationRejectsOverlap(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		own := []grid.Box{grid.Box1(0, 6)} // both ranks claim overlapping data
		if c.Rank() == 1 {
			own = []grid.Box{grid.Box1(4, 6)}
		}
		desc, err := NewDescriptor(2, Layout1D, Uint8, WithValidation())
		if err != nil {
			return err
		}
		err = desc.SetupDataMapping(c, own, grid.Box1(0, 10))
		if err == nil {
			return errors.New("overlapping ownership accepted")
		}
		if !strings.Contains(err.Error(), "mutually exclusive") {
			return fmt.Errorf("unexpected error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidationRejectsGaps(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		own := []grid.Box{grid.Box1(0, 3)}
		if c.Rank() == 1 {
			own = []grid.Box{grid.Box1(5, 3)} // gap at [3,5)
		}
		desc, err := NewDescriptor(2, Layout1D, Uint8, WithValidation())
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, own, grid.Box1(0, 8)); err == nil {
			return errors.New("gapped ownership accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReorganizeValidation(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		desc, err := NewDescriptor(2, Layout1D, Uint8)
		if err != nil {
			return err
		}
		if err := desc.ReorganizeData(c, nil, nil); err == nil {
			return errors.New("reorganize before mapping accepted")
		}
		own := []grid.Box{grid.Box1(5*c.Rank(), 5)}
		need := grid.Box1(0, 10)
		if err := desc.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		needBuf := make([]byte, 10)
		if err := desc.ReorganizeData(c, nil, needBuf); err == nil {
			return errors.New("missing owned buffers accepted")
		}
		if err := desc.ReorganizeData(c, [][]byte{make([]byte, 3)}, needBuf); err == nil {
			return errors.New("short owned buffer accepted")
		}
		if err := desc.ReorganizeData(c, [][]byte{make([]byte, 5)}, make([]byte, 7)); err == nil {
			return errors.New("short need buffer accepted")
		}
		return desc.ReorganizeData(c, [][]byte{make([]byte, 5)}, needBuf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorCommSizeMismatch(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		desc, err := NewDescriptor(3, Layout1D, Uint8)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, nil, grid.Box1(0, 4)); err == nil {
			return errors.New("size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDimensionalityMismatch(t *testing.T) {
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		desc, err := NewDescriptor(1, Layout2D, Uint8)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, []grid.Box{grid.Box1(0, 4)}, grid.Box2(0, 0, 2, 2)); err == nil {
			return errors.New("1D chunk accepted by 2D descriptor")
		}
		if err := desc.SetupDataMapping(c, []grid.Box{grid.Box2(0, 0, 2, 2)}, grid.Box1(0, 4)); err == nil {
			return errors.New("1D need accepted by 2D descriptor")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRedistributeHelper exercises the one-shot wrapper on the paper's
// Figure 5 scenario: slab-decomposed data regridded into near-square
// rectangles.
func TestRedistributeHelper(t *testing.T) {
	const n = 4
	domain := grid.Box2(0, 0, 20, 12)
	slabs := grid.Slabs(domain, 1, n)
	rows, cols := grid.Factor2(n)
	squares := grid.Grid2D(domain, rows, cols)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		own := []Chunk{{Box: slabs[c.Rank()], Data: fillBox(slabs[c.Rank()], 4)}}
		out, err := Redistribute(c, Layout2D, Float32, own, squares[c.Rank()])
		if err != nil {
			return err
		}
		return checkBox(out, squares[c.Rank()], 4, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPaperScale216Ranks runs the paper's largest configuration for real:
// 216 in-process ranks load a (miniature) stack domain with the
// consecutive technique and redistribute into 6x6x6 bricks. This
// validates the library at the paper's actual rank counts, not just toy
// worlds.
func TestPaperScale216Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("216-rank world skipped in -short mode")
	}
	const n = 216
	domain := grid.Box3(0, 0, 0, 24, 12, 432) // 432 slices over 216 ranks
	chunksAll := make([][]grid.Box, n)
	for i, slab := range grid.Slabs(domain, 2, n) {
		chunksAll[i] = []grid.Box{slab}
	}
	needs := grid.Bricks3D(domain, 6, 6, 6)
	for _, row := range depthRows {
		t.Run(row.name, func(t *testing.T) {
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				desc, err := NewDescriptor(n, Layout3D, Uint8, WithElemSize(1),
					WithPipelineDepth(row.depth), WithValidation())
				if err != nil {
					return err
				}
				mine := chunksAll[c.Rank()]
				if err := desc.SetupDataMapping(c, mine, needs[c.Rank()]); err != nil {
					return err
				}
				needBuf := make([]byte, needs[c.Rank()].Volume())
				if err := desc.ReorganizeData(c, [][]byte{fillBox(mine[0], 1)}, needBuf); err != nil {
					return err
				}
				return checkBox(needBuf, needs[c.Rank()], 1, nil, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRankWithNoChunks covers producers that exist only as consumers.
func TestRankWithNoChunks(t *testing.T) {
	err := mpi.Launch(3, func(c *mpi.Comm) error {
		var own []grid.Box
		if c.Rank() == 0 {
			own = []grid.Box{grid.Box1(0, 9)} // rank 0 owns everything
		}
		need := grid.Box1(3*c.Rank(), 3)
		desc, err := NewDescriptor(3, Layout1D, Uint8, WithValidation())
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		if got := desc.Plan().Rounds(); got != 1 {
			return fmt.Errorf("rounds = %d, want 1", got)
		}
		var bufs [][]byte
		if c.Rank() == 0 {
			bufs = [][]byte{fillBox(own[0], 1)}
		}
		needBuf := make([]byte, 3)
		if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
			return err
		}
		return checkBox(needBuf, need, 1, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}
