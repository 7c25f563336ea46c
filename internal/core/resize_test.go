package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// A resize is a redistribution in which every rank owns its old need box
// and needs its new one; CompileDelta compiles it offline, and a
// collective resize maps it with SetupDataMapping. These tests hold that
// mapping to a resize's guarantees: a cell the rank held stays a local
// copy, any other comes from its lowest-ranked old holder, and a cell
// nobody held stays untouched.

const resizeSentinel = 0xA5

// genResizeNeeds draws a seeded resize geometry for a world of n ranks
// in a 64×64 2D domain: most ranks survive with a new need box perturbed
// from (and usually overlapping) their old one, some leave (zero-extent
// new need) and some join (zero-extent old need). Old needs may overlap
// across ranks, as consumer needs do.
func genResizeNeeds(rng *rand.Rand, n int) (oldNeeds, newNeeds []grid.Box) {
	empty := grid.Box2(0, 0, 0, 0)
	randBox := func() grid.Box {
		w := 4 + rng.Intn(24)
		h := 4 + rng.Intn(24)
		return grid.Box2(rng.Intn(64-w), rng.Intn(64-h), w, h)
	}
	oldNeeds = make([]grid.Box, n)
	newNeeds = make([]grid.Box, n)
	for r := 0; r < n; r++ {
		switch role := rng.Intn(8); {
		case role == 0: // joiner
			oldNeeds[r] = empty
			newNeeds[r] = randBox()
		case role == 1: // leaver
			oldNeeds[r] = randBox()
			newNeeds[r] = empty
		case role == 2: // survivor with an unrelated new need
			oldNeeds[r] = randBox()
			newNeeds[r] = randBox()
		default: // survivor whose need shifted and resized a little
			oldNeeds[r] = randBox()
			nb := oldNeeds[r]
			for a := 0; a < 2; a++ {
				nb.Offset[a] += rng.Intn(9) - 4
				nb.Dims[a] += rng.Intn(7) - 3
				if nb.Dims[a] < 1 {
					nb.Dims[a] = 1
				}
				if nb.Offset[a] < 0 {
					nb.Offset[a] = 0
				}
				if nb.Offset[a]+nb.Dims[a] > 64 {
					nb.Offset[a] = 64 - nb.Dims[a]
				}
			}
			newNeeds[r] = nb
		}
	}
	return oldNeeds, newNeeds
}

// resizeDescriptor maps the resize on c: the rank owns its old need box
// and needs its new one.
func resizeDescriptor(c *mpi.Comm, elemSize int, oldNeed, newNeed grid.Box) (*Descriptor, error) {
	d, err := NewDescriptor(c.Size(), Layout(oldNeed.NDims), Uint8, WithElemSize(elemSize))
	if err != nil {
		return nil, err
	}
	return d, d.SetupDataMapping(c, []grid.Box{oldNeed}, newNeed)
}

// runResizeExchange maps and executes the resize on an in-process world:
// every rank fills its old need with the canonical pattern and a
// sentinel-filled new buffer, exchanges, and returns the gathered new
// buffers. perturbRank, when not negative, plants PerturbPlanForTest's
// bug in that rank's plan first.
func runResizeExchange(t *testing.T, oldNeeds, newNeeds []grid.Box, elemSize int, perturbRank int) [][]byte {
	t.Helper()
	n := len(oldNeeds)
	out := make([][]byte, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		d, err := resizeDescriptor(c, elemSize, oldNeeds[r], newNeeds[r])
		if err != nil {
			return err
		}
		if r == perturbRank && !d.Plan().PerturbPlanForTest() {
			return fmt.Errorf("rank %d: no perturbable recv region", r)
		}
		newBuf := bytes.Repeat([]byte{resizeSentinel}, newNeeds[r].Volume()*elemSize)
		if err := d.ReorganizeData(c, [][]byte{fillBox(oldNeeds[r], elemSize)}, newBuf); err != nil {
			return err
		}
		out[r] = newBuf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompileDeltaDifferential sweeps seeded resize geometries, whose old
// needs overlap as consumer needs do. Each rank's SetupDataMapping plan
// must equal CompileDelta's for that rank; the plans must move exactly
// the cells the lowest-holder rule assigns (a cell the receiver held is
// kept, any other comes from its lowest-ranked old holder); and the
// executed resize must match the closed-form prediction — the canonical
// value where any old rank held the cell, the sentinel elsewhere — with
// retained + received + unheld bytes adding up to the new need. The sweep
// must include a multi-seg message, the executor's multi-seg gather and
// scatter.
func TestCompileDeltaDifferential(t *testing.T) {
	const elemSize = 4
	multiSeg := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		oldNeeds, newNeeds := genResizeNeeds(rng, n)
		plans, err := CompileDelta(elemSize, oldNeeds, newNeeds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		owners := make([][]grid.Box, n)
		scheds := make([][]step, n)
		for r, p := range plans {
			owners[r] = oldNeeds[r : r+1]
			scheds[r] = p.sched
			for _, m := range p.sched[0].sends {
				if len(m.segs) > 1 {
					multiSeg++
				}
			}
		}
		want, _ := ruleCells(owners, newNeeds, elemSize)
		checkSchedules(t, scheds, want, 0)
		err = mpi.Launch(n, func(c *mpi.Comm) error {
			r := c.Rank()
			d, err := resizeDescriptor(c, elemSize, oldNeeds[r], newNeeds[r])
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(d.Plan().sched, plans[r].sched) {
				return fmt.Errorf("rank %d: SetupDataMapping's plan differs from CompileDelta's", r)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := runResizeExchange(t, oldNeeds, newNeeds, elemSize, -1)
		held := ownedBy(owners)
		for r := 0; r < n; r++ {
			if err := checkBox(got[r], newNeeds[r], elemSize, held, resizeSentinel); err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, r, err)
			}
			var unheld int64
			forCells(newNeeds[r], func(pt [grid.MaxDims]int) {
				if !held(pt[0], pt[1], pt[2]) {
					unheld += elemSize
				}
			})
			p := plans[r]
			if needBytes := int64(newNeeds[r].Volume()) * elemSize; p.RetainedBytes()+p.ReceivedBytes()+unheld != needBytes {
				t.Fatalf("seed %d rank %d: retained %d + received %d + unheld %d != need %d",
					seed, r, p.RetainedBytes(), p.ReceivedBytes(), unheld, needBytes)
			}
		}
	}
	if multiSeg == 0 {
		t.Error("no resize message carried more than one seg: the multi-seg gather and scatter went unexercised")
	}
}

// TestCompileDeltaPlantedBug proves the resize checks detect a compile
// bug: shifting one receive region off by one cell must surface as a
// fill-invariant violation on the perturbed rank.
func TestCompileDeltaPlantedBug(t *testing.T) {
	const elemSize = 4
	// Four slabs shifting right by 8: every rank receives something.
	oldNeeds := []grid.Box{
		grid.Box2(0, 0, 16, 16), grid.Box2(16, 0, 16, 16),
		grid.Box2(32, 0, 16, 16), grid.Box2(48, 0, 16, 16),
	}
	newNeeds := []grid.Box{
		grid.Box2(8, 0, 16, 16), grid.Box2(24, 0, 16, 16),
		grid.Box2(40, 0, 16, 16), grid.Box2(48, 0, 16, 16),
	}
	got := runResizeExchange(t, oldNeeds, newNeeds, elemSize, 0)
	covered := func(x, y, z int) bool { return x < 64 && y < 16 }
	if err := checkBox(got[0], newNeeds[0], elemSize, covered, resizeSentinel); err == nil {
		t.Fatal("planted off-by-one in the resize plan went undetected")
	}
	// The unperturbed ranks must still verify.
	for r := 1; r < 4; r++ {
		if err := checkBox(got[r], newNeeds[r], elemSize, covered, resizeSentinel); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestResizeMappingReplays runs the collective resize mapping through the
// plan cache: the first mapping of an (old, new) geometry compiles, a
// repeat replays the cached plan, and every one exchanges identically
// and accounts as the offline compile does.
func TestResizeMappingReplays(t *testing.T) {
	const elemSize = 4
	rng := rand.New(rand.NewSource(99))
	n := 6
	oldNeeds, newNeeds := genResizeNeeds(rng, n)
	offline, err := CompileDelta(elemSize, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		d, err := NewDescriptor(n, Layout2D, Uint8, WithElemSize(elemSize), WithPlanCache(4))
		if err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			if err := d.SetupDataMapping(c, oldNeeds[r:r+1], newNeeds[r]); err != nil {
				return fmt.Errorf("rank %d round %d: %w", r, round, err)
			}
			p := d.Plan()
			if p.ReceivedBytes() != offline[r].ReceivedBytes() || p.RetainedBytes() != offline[r].RetainedBytes() {
				return fmt.Errorf("rank %d: collective plan accounting diverges from offline compile", r)
			}
			if p.fp == 0 {
				return fmt.Errorf("rank %d: cached plan has no fingerprint", r)
			}
			newBuf := bytes.Repeat([]byte{resizeSentinel}, newNeeds[r].Volume()*elemSize)
			if err := d.ReorganizeData(c, [][]byte{fillBox(oldNeeds[r], elemSize)}, newBuf); err != nil {
				return err
			}
		}
		if hits, misses := d.PlanCacheStats(); hits != 2 || misses != 1 {
			return fmt.Errorf("rank %d: cache stats hits=%d misses=%d, want 2/1", r, hits, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileDeltaValidation pins the compile-time error surface.
func TestCompileDeltaValidation(t *testing.T) {
	if _, err := CompileDelta(0, nil, nil); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := CompileDelta(4, make([]grid.Box, 2), make([]grid.Box, 3)); err == nil {
		t.Error("mismatched geometry lengths accepted")
	}
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		if _, err := resizeDescriptor(c, 4, grid.Box1(0, 4), grid.Box{}); err == nil {
			return fmt.Errorf("zero-value box accepted (dimensionality is required)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaExchangeBufferValidation pins the resize exchange's buffer
// checks: a joiner's old side and a leaver's new side are empty, and any
// other size than the box's is refused.
func TestDeltaExchangeBufferValidation(t *testing.T) {
	oldNeeds := []grid.Box{grid.Box1(0, 8), grid.Box1(8, 8), grid.Box1(0, 0)}
	newNeeds := []grid.Box{grid.Box1(0, 12), grid.Box1(0, 0), grid.Box1(12, 4)}
	err := mpi.Launch(3, func(c *mpi.Comm) error {
		r := c.Rank()
		d, err := resizeDescriptor(c, 1, oldNeeds[r], newNeeds[r])
		if err != nil {
			return err
		}
		short := make([]byte, 1)
		if err := d.ReorganizeData(c, [][]byte{short}, nil); !errors.Is(err, ErrBufferSize) {
			return fmt.Errorf("rank %d: bad old buffer size: %v, want ErrBufferSize", r, err)
		}
		oldBuf := make([]byte, oldNeeds[r].Volume())
		if err := d.ReorganizeData(c, [][]byte{oldBuf}, short); !errors.Is(err, ErrBufferSize) {
			return fmt.Errorf("rank %d: bad new buffer size: %v, want ErrBufferSize", r, err)
		}
		// Empty sides take nil buffers.
		var newBuf []byte
		if !newNeeds[r].Empty() {
			newBuf = make([]byte, newNeeds[r].Volume())
		}
		if oldNeeds[r].Empty() {
			oldBuf = nil
		}
		return d.ReorganizeData(c, [][]byte{oldBuf}, newBuf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResizeExchangeRecyclesPayloads pins the resize exchange's buffer
// lifecycle: received payloads go back to the staging arena, so a
// replayed resize allocates a small constant, not the bytes it moves.
// Two ranks swap 1 MiB halves 20 times behind a no-op fault injector,
// which keeps every payload an arena one (nothing lands); with a payload
// dropped for the GC per receive, TotalAlloc grows by the moved bytes
// every exchange.
func TestResizeExchangeRecyclesPayloads(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of its Puts, so the arena cannot reach a steady state")
	}
	const elemSize, iters = 4, 20
	halves := []grid.Box{grid.Box2(0, 0, 512, 512), grid.Box2(512, 0, 512, 512)}
	oldNeeds := halves
	newNeeds := []grid.Box{halves[1], halves[0]}
	plans, err := CompileDelta(elemSize, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	moved := plans[0].ReceivedBytes() + plans[1].ReceivedBytes()
	if moved < 2<<20 {
		t.Fatalf("geometry moves %d bytes, want at least 1 MiB each way", moved)
	}
	// The arena is a sync.Pool; a collection mid-test would empty it and
	// charge the refill to the exchange.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var perExchange uint64
	err = mpi.Launch(2, func(c *mpi.Comm) error {
		r := c.Rank()
		d, err := resizeDescriptor(c, elemSize, oldNeeds[r], newNeeds[r])
		if err != nil {
			return err
		}
		oldBuf := [][]byte{fillBox(oldNeeds[r], elemSize)}
		newBuf := make([]byte, newNeeds[r].Volume()*elemSize)
		for i := 0; i < 2; i++ { // fill the arena
			if err := d.ReorganizeData(c, oldBuf, newBuf); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var before, after runtime.MemStats
		if r == 0 {
			runtime.ReadMemStats(&before)
		}
		for i := 0; i < iters; i++ {
			if err := d.ReorganizeData(c, oldBuf, newBuf); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if r == 0 {
			runtime.ReadMemStats(&after)
			perExchange = (after.TotalAlloc - before.TotalAlloc) / iters
		}
		return checkBox(newBuf, newNeeds[r], elemSize, nil, 0)
	}, mpi.WithFaultInjector(noFaults{}))
	if err != nil {
		t.Fatal(err)
	}
	if perExchange > uint64(moved)/4 {
		t.Errorf("resize exchange allocates %d bytes per call while moving %d — payloads are not recycled", perExchange, moved)
	}
}
