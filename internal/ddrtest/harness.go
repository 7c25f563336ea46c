// Package ddrtest is a property-based correctness harness for the DDR
// stack. It generates random redistribution cases — layout, domain,
// producer tiling, per-rank need boxes, element size — from a single
// seed, runs them through the full SetupDataMapping/ReorganizeData path
// on a chosen transport, pipeline depth and memory budget, optionally
// under a
// deterministic chaos schedule, and checks the ground-truth invariant:
// every need-box cell covered by the domain holds the closed-form fill
// value of its global coordinates, and every uncovered cell still holds
// the sentinel. Cases reproduce exactly from their seed.
package ddrtest

import (
	"errors"
	"fmt"
	"math/rand"

	"time"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Sentinel is the byte the harness pre-fills need buffers with; cells no
// producer covers must still hold it after the exchange.
const Sentinel byte = 0xA5

// Case is one fully specified redistribution scenario. All fields derive
// deterministically from Seed via GenCase.
type Case struct {
	Seed     uint64
	NProcs   int
	Layout   core.Layout
	ElemSize int
	Domain   grid.Box
	Chunks   [][]grid.Box // per rank; collectively tile Domain
	Needs    []grid.Box   // per rank; may extend past Domain
}

func (tc *Case) String() string {
	return fmt.Sprintf("seed=%d nprocs=%d layout=%v elem=%d domain=%v",
		tc.Seed, tc.NProcs, tc.Layout, tc.ElemSize, tc.Domain)
}

// mix is the splitmix64 finalizer, the same permutation the chaos
// injector uses; here it derives cell values from coordinates.
func mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

var elemSizes = []int{1, 2, 3, 4, 8}

// GenCase derives a random case from seed, bounded by maxProcs ranks and
// maxExtent cells per axis. Equal arguments produce equal cases.
func GenCase(seed uint64, maxProcs, maxExtent int) Case {
	if maxProcs < 2 {
		maxProcs = 2
	}
	if maxExtent < 4 {
		maxExtent = 4
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	tc := Case{
		Seed:     seed,
		NProcs:   2 + rng.Intn(maxProcs-1),
		Layout:   core.Layout(1 + rng.Intn(3)),
		ElemSize: elemSizes[rng.Intn(len(elemSizes))],
	}
	nd := tc.Layout.NDims()
	offs := make([]int, nd)
	dims := make([]int, nd)
	for i := 0; i < nd; i++ {
		dims[i] = 4 + rng.Intn(maxExtent-3)
	}
	tc.Domain = grid.MustBox(offs, dims)

	// Tile the domain into up to 2*nprocs chunks and deal them to random
	// ranks; some ranks may own nothing, some several (uneven rounds).
	parts := tc.NProcs + rng.Intn(tc.NProcs+1)
	tiles := grid.RandomTiling(rng, tc.Domain, parts)
	tc.Chunks = make([][]grid.Box, tc.NProcs)
	for i, tile := range tiles {
		r := i % tc.NProcs // everyone owns at least one of the first nprocs
		if i >= tc.NProcs {
			r = rng.Intn(tc.NProcs)
		}
		tc.Chunks[r] = append(tc.Chunks[r], tile)
	}

	// Independent random need per rank; one in four pokes past the domain
	// so the sentinel-preservation half of the invariant gets exercised.
	tc.Needs = make([]grid.Box, tc.NProcs)
	for r := range tc.Needs {
		need := grid.RandomBoxIn(rng, tc.Domain)
		if rng.Intn(4) == 0 {
			axis := rng.Intn(nd)
			need.Dims[axis] += 1 + rng.Intn(3)
		}
		tc.Needs[r] = need
	}
	return tc
}

// valueAt is the closed-form fill: byte b of the element at global
// coordinates (x,y,z) under this case's seed.
func (tc *Case) valueAt(x, y, z, b int) byte {
	v := mix(tc.Seed ^ uint64(uint32(x)) ^ uint64(uint32(y))<<20 ^ uint64(uint32(z))<<40)
	return byte(v >> (8 * (b % 8)))
}

// FillBox renders the closed-form pattern for box into a fresh buffer,
// row-major with x fastest — the layout the core package exchanges.
func (tc *Case) FillBox(box grid.Box) []byte {
	buf := make([]byte, box.Volume()*tc.ElemSize)
	i := 0
	forEachCell(box, func(x, y, z int) {
		for b := 0; b < tc.ElemSize; b++ {
			buf[i] = tc.valueAt(x, y, z, b)
			i++
		}
	})
	return buf
}

// forEachCell visits box's cells in buffer order (x fastest). Unused
// trailing dims of a Box are 1, so the triple loop covers 1D/2D/3D.
func forEachCell(box grid.Box, f func(x, y, z int)) {
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			for x := 0; x < box.Dims[0]; x++ {
				f(box.Offset[0]+x, box.Offset[1]+y, box.Offset[2]+z)
			}
		}
	}
}

// CheckNeed verifies the invariant over a rank's post-exchange need
// buffer. missing lists regions a partial completion reported lost:
// cells inside them may hold either the sentinel (data never arrived) or
// the expected value (it arrived before the loss), but never anything
// else. Cells no rank owns — outside the domain, for a tiling — must hold
// the sentinel; all remaining cells must hold the closed-form value.
func (tc *Case) CheckNeed(need grid.Box, buf []byte, missing []grid.Box) error {
	if len(buf) != need.Volume()*tc.ElemSize {
		return fmt.Errorf("need buffer holds %d bytes, want %d", len(buf), need.Volume()*tc.ElemSize)
	}
	var firstErr error
	i := 0
	forEachCell(need, func(x, y, z int) {
		cell := buf[i : i+tc.ElemSize]
		i += tc.ElemSize
		if firstErr != nil {
			return
		}
		pt := [grid.MaxDims]int{x, y, z}
		owned := false
		for _, chunks := range tc.Chunks {
			owned = owned || inBoxes(chunks, pt)
		}
		sentinel := true
		expected := true
		for b := 0; b < tc.ElemSize; b++ {
			if cell[b] != Sentinel {
				sentinel = false
			}
			if cell[b] != tc.valueAt(x, y, z, b) {
				expected = false
			}
		}
		switch {
		case !owned:
			if !sentinel {
				firstErr = fmt.Errorf("cell (%d,%d,%d) no rank owns was overwritten", x, y, z)
			}
		case inBoxes(missing, pt):
			if !sentinel && !expected {
				firstErr = fmt.Errorf("cell (%d,%d,%d) in a reported-missing region holds corrupt data", x, y, z)
			}
		default:
			if !expected {
				firstErr = fmt.Errorf("cell (%d,%d,%d) byte mismatch: got %v", x, y, z, cell)
			}
		}
	})
	return firstErr
}

func inBoxes(boxes []grid.Box, pt [grid.MaxDims]int) bool {
	for _, b := range boxes {
		if b.ContainsPoint(pt) {
			return true
		}
	}
	return false
}

// RankResult is the per-rank outcome of one case run.
type RankResult struct {
	// Partial is non-nil when the exchange degraded gracefully.
	Partial *core.PartialError
	// Err is a non-degradation exchange failure.
	Err error
	// CheckErr is an invariant violation found in the need buffer.
	CheckErr error
	// BoundedSteps is the number of bounded steps this rank's exchange
	// executed (0 when it replayed its rounds unchanged).
	BoundedSteps int
	// PeakStaging is the rank's measured peak staging footprint in bytes
	// during a budgeted exchange; 0 otherwise.
	PeakStaging int64
}

// Transport names accepted by RunOptions.Transport.
const (
	TransportInproc = ""    // in-process channels (the default)
	TransportTCP    = "tcp" // loopback sockets
	TransportShm    = "shm" // shared-memory rings
)

// RunOptions selects how a case executes.
type RunOptions struct {
	// Transport picks the wire: "" (in-process), "tcp" or "shm".
	Transport string
	Injector  mpi.FaultInjector // nil runs fault-free
	Deadline  time.Duration     // per-exchange bound; required for sever schedules
	Mutate    func(*core.Plan)  // test hook: corrupt the compiled plan on rank 0
	// MutateDescriptor is the descriptor-level sibling of Mutate, also
	// applied on rank 0 after mapping setup. It exists for planted bugs
	// that live in exchange execution state rather than the compiled plan
	// (e.g. core.(*Descriptor).PerturbPipelineForTest).
	MutateDescriptor func(*core.Descriptor)
	// Budget, when positive, arms core.WithMemoryBudget: every rank runs
	// the step executor, and a rank whose own single-shot footprint
	// exceeds the budget re-packs its rounds into bounded steps.
	Budget int
	// PipelineDepth, when positive, arms core.WithPipelineDepth; 0 keeps
	// the descriptor's default depth.
	PipelineDepth int
}

// launchOptions maps a transport name and fault injector onto launcher
// options.
func launchOptions(transport string, inj mpi.FaultInjector) ([]mpi.LaunchOption, error) {
	lo := []mpi.LaunchOption{mpi.WithFaultInjector(inj)}
	switch transport {
	case TransportInproc:
	case TransportTCP:
		lo = append(lo, mpi.WithTransport(mpi.TransportTCP))
	case TransportShm:
		lo = append(lo, mpi.WithTransport(mpi.TransportShm))
	default:
		return nil, fmt.Errorf("ddrtest: unknown transport %q", transport)
	}
	return lo, nil
}

// Run executes the case and returns the per-rank results. The returned
// error reports infrastructure failures (descriptor construction, mapping
// setup, transport bring-up) and leaks: staging a rank's meter still
// holds once its exchange returned, or a message still lent to a mailbox
// once every rank returned (mpi.Launch reports those). Exchange and
// invariant outcomes land in the results so one rank's degradation does
// not tear down its peers.
func (tc *Case) Run(opt RunOptions) ([]RankResult, error) {
	results := make([]RankResult, tc.NProcs)
	body := func(c *mpi.Comm) error {
		rank := c.Rank()
		res := &results[rank]
		dopts := []core.Option{core.WithElemSize(tc.ElemSize)}
		if opt.Deadline > 0 {
			dopts = append(dopts, core.WithExchangeDeadline(opt.Deadline))
		}
		if opt.Budget > 0 {
			dopts = append(dopts, core.WithMemoryBudget(opt.Budget))
		}
		if opt.PipelineDepth > 0 {
			dopts = append(dopts, core.WithPipelineDepth(opt.PipelineDepth))
		}
		d, err := core.NewDescriptor(tc.NProcs, tc.Layout, core.Uint8, dopts...)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, tc.Chunks[rank], tc.Needs[rank]); err != nil {
			return err
		}
		if opt.Mutate != nil && rank == 0 {
			opt.Mutate(d.Plan())
		}
		if opt.MutateDescriptor != nil && rank == 0 {
			opt.MutateDescriptor(d)
		}
		own := make([][]byte, len(tc.Chunks[rank]))
		for i, b := range tc.Chunks[rank] {
			own[i] = tc.FillBox(b)
		}
		needBuf := make([]byte, tc.Needs[rank].Volume()*tc.ElemSize)
		for i := range needBuf {
			needBuf[i] = Sentinel
		}
		err = d.ReorganizeData(c, own, needBuf)
		if err := stagingReleased(d); err != nil {
			return err
		}
		res.BoundedSteps = d.BoundedSteps()
		res.PeakStaging = d.LastPeakStaging()
		var pe *core.PartialError
		if errors.As(err, &pe) {
			res.Partial = pe
			err = nil
		}
		if err != nil {
			res.Err = err
			return nil
		}
		var missing []grid.Box
		if res.Partial != nil {
			missing = res.Partial.Missing
		}
		res.CheckErr = tc.CheckNeed(tc.Needs[rank], needBuf, missing)
		return nil
	}
	launchOpts, err := launchOptions(opt.Transport, opt.Injector)
	if err != nil {
		return results, err
	}
	err = mpi.Launch(tc.NProcs, body, launchOpts...)
	return results, err
}

// stagingReleased is the leak postcondition every runner checks after
// every exchange, whatever its outcome: the rank's staging meter holds
// nothing.
func stagingReleased(d *core.Descriptor) error {
	if held := d.StagingHeld(); held != 0 {
		return fmt.Errorf("%d staging bytes still held after the exchange returned", held)
	}
	return nil
}
