package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

const deltaSentinel = 0xA5

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

// runDeltaExchange executes the compiled delta plans on an in-process
// world: every rank fills its old need with the canonical pattern and a
// sentinel-filled new buffer, exchanges, and returns the gathered new
// buffers.
func runDeltaExchange(t *testing.T, plans []*DeltaPlan, oldNeeds, newNeeds []grid.Box, elemSize int, perturbRank int) [][]byte {
	t.Helper()
	n := len(plans)
	out := make([][]byte, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		p := plans[r]
		if r == perturbRank && !p.PerturbDeltaForTest() {
			return fmt.Errorf("rank %d: no perturbable recv region", r)
		}
		var oldBuf, newBuf []byte
		if !oldNeeds[r].Empty() {
			oldBuf = fillBox(oldNeeds[r], elemSize)
		}
		if !newNeeds[r].Empty() {
			newBuf = bytes.Repeat([]byte{deltaSentinel}, newNeeds[r].Volume()*elemSize)
		}
		if err := p.Exchange(c, oldBuf, newBuf); err != nil {
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

// runFullOracle redistributes the same data through the production full
// compiler and exchange — each rank owns exactly its old need box as one
// chunk — returning the gathered need buffers. Old needs may overlap, so
// validation stays off; overlapping owners carry identical canonical
// bytes, making the result well defined.
func runFullOracle(t *testing.T, oldNeeds, newNeeds []grid.Box, elemSize int) [][]byte {
	t.Helper()
	n := len(oldNeeds)
	out := make([][]byte, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		// The serial reference collective: overlapping owners break the
		// exclusive-ownership precondition that makes the step executor's
		// parallel scatters disjoint, and two workers writing the same
		// (identical) bytes is still a race.
		desc, err := NewDescriptor(n, Layout2D, Uint8, WithElemSize(elemSize), WithExchangeMode(ModeAlltoallw))
		if err != nil {
			return err
		}
		var own []grid.Box
		var ownBufs [][]byte
		if !oldNeeds[r].Empty() {
			own = []grid.Box{oldNeeds[r]}
			ownBufs = [][]byte{fillBox(oldNeeds[r], elemSize)}
		}
		if err := desc.SetupDataMapping(c, own, newNeeds[r]); err != nil {
			return err
		}
		var needBuf []byte
		if !newNeeds[r].Empty() {
			needBuf = bytes.Repeat([]byte{deltaSentinel}, newNeeds[r].Volume()*elemSize)
		}
		if err := desc.ReorganizeData(c, ownBufs, needBuf); err != nil {
			return err
		}
		out[r] = needBuf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompileDeltaDifferential sweeps seeded resize geometries and
// checks the tentpole's oracle property: executing the incremental delta
// plans yields buffers byte-identical to a full re-exchange that treats
// the old needs as owned chunks, and both match the closed-form
// prediction (canonical value where any old rank held the cell, sentinel
// elsewhere). Delta is the one backend whose messages carry several segs,
// so this is also the test that drives the executor's multi-seg gather
// and scatter; the sweep must include at least one such message.
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
		// The per-rank compile a collective resize runs must be the
		// all-ranks compile's plan for that rank, field for field.
		for r, all := range plans {
			one, err := CompileDeltaRank(elemSize, r, oldNeeds, newNeeds)
			if err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, r, err)
			}
			for _, f := range []struct {
				name      string
				one, want any
			}{
				{"keeps", one.keeps, all.keeps}, {"uncov", one.uncov, all.uncov},
				{"sends", one.sends, all.sends}, {"recvs", one.recvs, all.recvs},
				{"sched", one.sched, all.sched}, {"newSize", one.newSize, all.newSize},
			} {
				if !reflect.DeepEqual(f.one, f.want) {
					t.Fatalf("seed %d rank %d: per-rank %s diverge from CompileDelta\nper-rank: %+v\nall:      %+v",
						seed, r, f.name, f.one, f.want)
				}
			}
			for _, m := range all.sched[0].sends {
				if len(m.segs) > 1 {
					multiSeg++
				}
			}
		}
		got := runDeltaExchange(t, plans, oldNeeds, newNeeds, elemSize, -1)
		want := runFullOracle(t, oldNeeds, newNeeds, elemSize)
		covered := func(x, y, z int) bool {
			for _, b := range oldNeeds {
				if !b.Empty() && b.ContainsPoint([grid.MaxDims]int{x, y, z}) {
					return true
				}
			}
			return false
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("seed %d rank %d: delta result differs from full-recompile oracle", seed, r)
			}
			if newNeeds[r].Empty() {
				continue
			}
			if err := checkBox(got[r], newNeeds[r], elemSize, covered, deltaSentinel); err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, r, err)
			}
			// The plan's byte accounting must cover exactly the covered
			// cells: retained + received + uncovered = need volume.
			p := plans[r]
			var uncov int64
			for _, b := range p.Uncovered() {
				uncov += int64(b.Volume()) * elemSize
			}
			if p.RetainedBytes()+p.ReceivedBytes()+uncov != p.NeedBytes() {
				t.Fatalf("seed %d rank %d: retained %d + received %d + uncovered %d != need %d",
					seed, r, p.RetainedBytes(), p.ReceivedBytes(), uncov, p.NeedBytes())
			}
		}
	}
	if multiSeg == 0 {
		t.Error("no delta message carried more than one seg: the multi-seg gather and scatter went unexercised")
	}
}

// TestCompileDeltaPlantedBug proves the differential harness detects a
// delta-compilation bug: shifting one receive region off by one cell
// must surface as a fill-invariant violation on the perturbed rank.
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
	plans, err := CompileDelta(elemSize, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	got := runDeltaExchange(t, plans, oldNeeds, newNeeds, elemSize, 0)
	covered := func(x, y, z int) bool { return x < 64 && y < 16 }
	if err := checkBox(got[0], newNeeds[0], elemSize, covered, deltaSentinel); err == nil {
		t.Fatal("planted off-by-one in the delta plan went undetected")
	}
	// The unperturbed ranks must still verify.
	for r := 1; r < 4; r++ {
		if err := checkBox(got[r], newNeeds[r], elemSize, covered, deltaSentinel); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestDeltaCompilerCollective runs the cached collective front end: the
// first compile allgathers and compiles, a repeat of the same (old, new)
// pair replays from the cache, and the replayed plan exchanges
// identically.
func TestDeltaCompilerCollective(t *testing.T) {
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
		dc, err := NewDeltaCompiler(elemSize, 4)
		if err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			p, err := dc.Compile(c, oldNeeds[r], newNeeds[r])
			if err != nil {
				return fmt.Errorf("rank %d round %d: %w", r, round, err)
			}
			if p.MovedBytes() != offline[r].MovedBytes() || p.RetainedBytes() != offline[r].RetainedBytes() {
				return fmt.Errorf("rank %d: collective plan accounting diverges from offline compile", r)
			}
			if p.Fingerprint() == 0 {
				return fmt.Errorf("rank %d: cached plan has no fingerprint", r)
			}
			var oldBuf, newBuf []byte
			if !oldNeeds[r].Empty() {
				oldBuf = fillBox(oldNeeds[r], elemSize)
			}
			if !newNeeds[r].Empty() {
				newBuf = bytes.Repeat([]byte{deltaSentinel}, newNeeds[r].Volume()*elemSize)
			}
			if err := p.Exchange(c, oldBuf, newBuf); err != nil {
				return err
			}
		}
		hits, misses := dc.CacheStats()
		if hits != 2 || misses != 1 {
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
	if _, err := CompileDeltaRank(4, 2, make([]grid.Box, 2), make([]grid.Box, 2)); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := NewDeltaCompiler(0, 4); err == nil {
		t.Error("zero element size accepted by NewDeltaCompiler")
	}
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		dc, err := NewDeltaCompiler(4, 0)
		if err != nil {
			return err
		}
		if _, err := dc.Compile(c, grid.Box{}, grid.Box1(0, 4)); err == nil {
			return fmt.Errorf("zero-value box accepted (dimensionality is required)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deltaVote frames a geometry stream the way DeltaCompiler.Compile
// contributes it: length, stream, no offers.
func deltaVote(enc []byte) []byte {
	return append(appendUvarint(nil, uint64(len(enc))), enc...)
}

// TestDeltaCompilerMalformedPeer feeds DeltaCompiler.Compile a peer
// contribution that is not a two-box pair: streams that decode cleanly
// but carry two boxes or none after the old need, a truncated one, a pair
// of another dimensionality (which only the sender's own compile used to
// reject), and frames whose length or offers are cut short. All must
// surface as errors that name the rank and what was wrong with it.
func TestDeltaCompilerMalformedPeer(t *testing.T) {
	old, neu := grid.Box2(0, 0, 8, 8), grid.Box2(0, 0, 4, 8)
	good := encodeGeometry(old, []grid.Box{neu})
	for _, tc := range []struct {
		name, want string
		bad        []byte
	}{
		{"two boxes", "rank 1 carries 2 boxes", deltaVote(encodeGeometry(old, []grid.Box{neu, neu}))},
		{"no box", "rank 1 carries 0 boxes", deltaVote(encodeGeometry(old, nil))},
		{"truncated", "geometry from rank 1", deltaVote(good[:len(good)-1])},
		{"mixed dimensionality", "rank 1 is 1D -> 1D", deltaVote(encodeGeometry(grid.Box1(0, 8), []grid.Box{grid.Box1(0, 4)}))},
		{"old and new differ", "rank 1 is 2D -> 1D", deltaVote(encodeGeometry(old, []grid.Box{grid.Box1(0, 4)}))},
		{"empty", "malformed 0-byte delta contribution from rank 1", nil},
		{"short frame", "delta contribution from rank 1", deltaVote(good)[:len(good)]},
		{"partial offer", "delta contribution from rank 1", append(deltaVote(good), 1, 2, 3)},
	} {
		err := mpi.Launch(2, func(c *mpi.Comm) error {
			if c.Rank() == 1 {
				_, err := c.Allgather(tc.bad)
				return err
			}
			dc, err := NewDeltaCompiler(4, 4)
			if err != nil {
				return err
			}
			_, err = dc.Compile(c, old, neu)
			if err == nil {
				return fmt.Errorf("malformed contribution accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "%!") {
				return fmt.Errorf("error %q does not say %q", msg, tc.want)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestDeltaCompilerDissent: the verdict rides the geometry allgather, so
// one rank that cannot replay — a joiner with a fresh compiler, or one
// whose local pair differs from what its cached plan was compiled from —
// makes the same resize a miss on every rank, and the next repeat a hit
// on every rank.
func TestDeltaCompilerDissent(t *testing.T) {
	const n = 4
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		old, neu := grid.Box1(8*r, 8), grid.Box1(8*(n-1-r), 8)
		dc, err := NewDeltaCompiler(1, 4)
		if err != nil {
			return err
		}
		compile := func(want int64) error {
			before, _ := dc.CacheStats()
			if _, err := dc.Compile(c, old, neu); err != nil {
				return err
			}
			if hits, _ := dc.CacheStats(); hits-before != want {
				return fmt.Errorf("rank %d: %d hits, want %d", r, hits-before, want)
			}
			return nil
		}
		if err := compile(0); err != nil {
			return err
		}
		if err := compile(1); err != nil {
			return err
		}
		if r == 2 { // leaves and rejoins: its session starts over
			if dc, err = NewDeltaCompiler(1, 4); err != nil {
				return err
			}
		}
		if err := compile(0); err != nil {
			return fmt.Errorf("after rank 2 rejoined: %w", err)
		}
		if err := compile(1); err != nil {
			return err
		}
		// A fingerprint collision, as rank 1 would see it: the plan under
		// the gathered set's fingerprint was compiled from another pair.
		if r == 1 {
			for _, el := range dc.cache.byKey {
				el.Value.(*cacheEntry[*DeltaPlan]).val.oldNeed = grid.Box1(0, 1)
			}
		}
		if err := compile(0); err != nil {
			return fmt.Errorf("after rank 1's cached plan stopped matching: %w", err)
		}
		return compile(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaExchangeBufferValidation pins the execution error surface.
func TestDeltaExchangeBufferValidation(t *testing.T) {
	oldNeeds := []grid.Box{grid.Box1(0, 8), grid.Box1(8, 8)}
	newNeeds := []grid.Box{grid.Box1(0, 12), grid.Box1(12, 4)}
	plans, err := CompileDelta(1, oldNeeds, newNeeds)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Launch(2, func(c *mpi.Comm) error {
		p := plans[c.Rank()]
		short := make([]byte, 1)
		if err := p.Exchange(c, short, nil); err == nil {
			return fmt.Errorf("bad old buffer size accepted")
		}
		oldBuf := make([]byte, 8)
		if err := p.Exchange(c, oldBuf, short); err == nil {
			return fmt.Errorf("bad new buffer size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaExchangeRecyclesPayloads pins the resize exchange's buffer
// lifecycle: received payloads go back to the staging arena, so a
// replayed resize allocates a small constant, not the bytes it moves.
// Two ranks swap 1 MiB halves 20 times; with a payload dropped for the
// GC per receive, TotalAlloc grows by the moved bytes every exchange.
func TestDeltaExchangeRecyclesPayloads(t *testing.T) {
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
	moved := plans[0].MovedBytes() + plans[1].MovedBytes()
	if moved < 2<<20 {
		t.Fatalf("geometry moves %d bytes, want at least 1 MiB each way", moved)
	}
	// The arena is a sync.Pool; a collection mid-test would empty it and
	// charge the refill to the exchange.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var perExchange uint64
	err = mpi.Launch(2, func(c *mpi.Comm) error {
		r := c.Rank()
		oldBuf := fillBox(oldNeeds[r], elemSize)
		newBuf := make([]byte, newNeeds[r].Volume()*elemSize)
		for i := 0; i < 2; i++ { // fill the arena
			if err := plans[r].Exchange(c, oldBuf, newBuf); err != nil {
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
			if err := plans[r].Exchange(c, oldBuf, newBuf); err != nil {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if perExchange > uint64(moved)/4 {
		t.Errorf("resize exchange allocates %d bytes per call while moving %d — payloads are not recycled", perExchange, moved)
	}
}
