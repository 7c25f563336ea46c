package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// withStaged makes the descriptor's executor take no contiguous span and
// move every region through its datatype: the fully staged reference the
// byte-identity tests compare the fast paths against. No exported option
// does.
func withStaged() Option { return func(d *Descriptor) { d.ex.staged = true } }

// engineWorld runs one redistribution of the given geometry on a world
// launched with launch and verifies every rank's need buffer holds the
// canonical pattern.
func engineWorld(t *testing.T, n int, mode ExchangeMode, elemSize int, ownAll [][]grid.Box, needAll []grid.Box, launch []mpi.LaunchOption, opts ...Option) {
	t.Helper()
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		desc, err := NewDescriptor(n, Layout2D, Uint8,
			append([]Option{WithElemSize(elemSize), WithExchangeMode(mode)}, opts...)...)
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
		// Two calls on one plan: the second exercises the pooled steady
		// state where every staging buffer is recycled.
		for iter := 0; iter < 2; iter++ {
			if err := desc.ReorganizeData(c, bufs, needBuf); err != nil {
				return err
			}
		}
		return checkBox(needBuf, needAll[rank], elemSize, nil, 0)
	}, launch...)
	if err != nil {
		t.Fatal(err)
	}
}

// stripWorld builds the multi-chunk test geometry: full-width row strips
// assigned round-robin (strided or contiguous depending on the need
// orientation).
func stripWorld(n, side, chunksPerRank int, columnNeeds bool) (ownAll [][]grid.Box, needAll []grid.Box) {
	domain := grid.Box2(0, 0, side, side)
	strips := grid.Slabs(domain, 1, n*chunksPerRank)
	ownAll = make([][]grid.Box, n)
	for i, b := range strips {
		ownAll[i%n] = append(ownAll[i%n], b)
	}
	if columnNeeds {
		needAll = grid.Slabs(domain, 0, n)
	} else {
		needAll = grid.Slabs(domain, 1, n)
	}
	return ownAll, needAll
}

// TestWorkerPoolSizes runs every exchange mode, on both strided (column
// needs) and contiguous (row needs) geometries, with the process sized to
// 1, 2, the host's GOMAXPROCS and an oversubscribed 4 Ps. The plan
// compiler's fork-join takes that many workers, and the ranks' goroutines
// — which do every pack and unpack — interleave differently at each
// width, which moves which posts a sender finds open. Run under -race this
// also proves the compile workers are data-race free.
func TestWorkerPoolSizes(t *testing.T) {
	sizes := []int{1, 2, runtime.GOMAXPROCS(0), 4}
	for _, par := range sizes {
		for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
			for _, columns := range []bool{false, true} {
				name := fmt.Sprintf("par%d/%v/columns=%v", par, mode, columns)
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
					ownAll, needAll := stripWorld(4, 32, 2, columns)
					engineWorld(t, 4, mode, 4, ownAll, needAll, nil)
				})
			}
		}
	}
}

// stripGeometry returns a transpose layout for 4 ranks over a 16x16
// domain: horizontal owned strips redistributed into vertical need
// strips. Every send region is strided in the owned buffer (4-wide rows
// of a 16-wide array) and every receive lands contiguously; transposed
// swaps the roles so receives are the strided side instead.
func stripGeometry(transposed bool) (ownAll [][]grid.Box, needAll []grid.Box) {
	for r := 0; r < 4; r++ {
		horizontal := grid.Box2(0, 4*r, 16, 4)
		vertical := grid.Box2(4*r, 0, 4, 16)
		if transposed {
			horizontal, vertical = vertical, horizontal
		}
		ownAll = append(ownAll, []grid.Box{horizontal})
		needAll = append(needAll, vertical)
	}
	return ownAll, needAll
}

// TestZeroCopyMatchesStaged verifies the zero-copy fast path, where every
// region of row strips to row slabs is a contiguous span moved as it is,
// against the fully staged path, in both exchange modes.
func TestZeroCopyMatchesStaged(t *testing.T) {
	ownAll, needAll := stripWorld(4, 32, 2, false)
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		engineWorld(t, 4, mode, 4, ownAll, needAll, nil)
		engineWorld(t, 4, mode, 4, ownAll, needAll, nil, withStaged())
	}
}

// TestPackStrategiesByteIdentical proves every way the executor can move
// a strided region yields the same bytes, on stripGeometry in both
// orientations (every send, or every receive, strided) and both exchange
// modes. The cases keep the names of the pack strategies they replace:
// auto is the descriptor as built on Launch's default world; zerocopy
// runs on bare inproc, where a sender's typed send gathers each strided
// region by its Subarray straight into the peer's open post; pack runs
// behind a no-op fault injector, where every message is packed into an
// arena wire and placed by its receiver; datatype takes no contiguous
// span and stages every region through its datatype.
func TestPackStrategiesByteIdentical(t *testing.T) {
	strategies := []struct {
		name   string
		launch []mpi.LaunchOption
		opts   []Option
	}{
		{"auto", nil, nil},
		{"zerocopy", []mpi.LaunchOption{mpi.WithFaultInjector(nil)}, nil},
		{"pack", []mpi.LaunchOption{mpi.WithFaultInjector(noFaults{})}, nil},
		{"datatype", nil, []Option{withStaged()}},
	}
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		for _, s := range strategies {
			for _, transposed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%s/transposed=%v", mode, s.name, transposed), func(t *testing.T) {
					ownAll, needAll := stripGeometry(transposed)
					engineWorld(t, 4, mode, 4, ownAll, needAll, s.launch, s.opts...)
				})
			}
		}
	}
}

// TestZeroAllocSteadyState asserts that once a plan has been exercised,
// replaying ReorganizeData allocates nothing: staging buffers come from
// the arena and all bookkeeping reuses descriptor scratch. The geometry
// forces a strided self-exchange, the pooled staging path.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		t.Run(mode.String(), func(t *testing.T) {
			array := grid.Box2(0, 0, 8, 8)
			need := grid.Box2(1, 1, 6, 6) // interior: strided in the 8x8 array
			err := mpi.Launch(1, func(c *mpi.Comm) error {
				desc, err := NewDescriptor(1, Layout2D, Float32, WithExchangeMode(mode))
				if err != nil {
					return err
				}
				if err := desc.SetupDataMapping(c, []grid.Box{array}, need); err != nil {
					return err
				}
				src := fillBox(array, 4)
				dst := make([]byte, need.Volume()*4)
				for i := 0; i < 3; i++ { // reach steady state
					if err := desc.ReorganizeData(c, [][]byte{src}, dst); err != nil {
						return err
					}
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				allocs := testing.AllocsPerRun(50, func() {
					if err := desc.ReorganizeData(c, [][]byte{src}, dst); err != nil {
						t.Error(err)
					}
				})
				if allocs != 0 {
					t.Errorf("mode %v: %.1f allocs per steady-state ReorganizeData, want 0", mode, allocs)
				}
				return checkBox(dst, need, 4, nil, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSentinelErrors verifies the typed error classification of the
// validation paths via errors.Is.
func TestSentinelErrors(t *testing.T) {
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		desc, err := NewDescriptor(2, Layout1D, Uint8)
		if err != nil {
			return err
		}
		if err := desc.ReorganizeData(c, nil, nil); !errors.Is(err, ErrNoMapping) {
			return fmt.Errorf("pre-mapping exchange: got %v, want ErrNoMapping", err)
		}
		wrong, err := NewDescriptor(3, Layout1D, Uint8)
		if err != nil {
			return err
		}
		if err := wrong.SetupDataMapping(c, nil, grid.Box1(0, 4)); !errors.Is(err, ErrCommMismatch) {
			return fmt.Errorf("size-mismatched mapping: got %v, want ErrCommMismatch", err)
		}
		flat := grid.Box2(0, 0, 4, 1)
		err = desc.SetupDataMapping(c, nil, flat)
		if want := fmt.Sprintf("core: need box %v is 2D but descriptor is 1D", flat); err == nil || err.Error() != want {
			return fmt.Errorf("2-D need box: got %v, want %q", err, want)
		}
		err = desc.SetupDataMapping(c, []grid.Box{grid.Box1(0, 4), flat}, grid.Box1(0, 8))
		if want := fmt.Sprintf("core: owned chunk 1 box %v is 2D but descriptor is 1D", flat); err == nil || err.Error() != want {
			return fmt.Errorf("2-D owned chunk: got %v, want %q", err, want)
		}
		own := grid.Box1(c.Rank()*4, 4)
		if err := desc.SetupDataMapping(c, []grid.Box{own}, grid.Box1(0, 8)); err != nil {
			return err
		}
		if err := desc.ReorganizeData(c, nil, make([]byte, 8)); !errors.Is(err, ErrBufferSize) {
			return fmt.Errorf("missing owned buffer: got %v, want ErrBufferSize", err)
		}
		if err := desc.ReorganizeData(c, [][]byte{make([]byte, 3)}, make([]byte, 8)); !errors.Is(err, ErrBufferSize) {
			return fmt.Errorf("short owned buffer: got %v, want ErrBufferSize", err)
		}
		if err := desc.ReorganizeData(c, [][]byte{make([]byte, 4)}, make([]byte, 7)); !errors.Is(err, ErrBufferSize) {
			return fmt.Errorf("short need buffer: got %v, want ErrBufferSize", err)
		}
		return desc.ReorganizeData(c, [][]byte{make([]byte, 4)}, make([]byte, 8))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLastTimingsDefensiveCopy verifies the returned timings are the
// caller's to keep: mutating them must not corrupt the descriptor's
// record, and a later exchange must not mutate an earlier return.
func TestLastTimingsDefensiveCopy(t *testing.T) {
	err := mpi.Launch(1, func(c *mpi.Comm) error {
		desc, err := NewDescriptor(1, Layout1D, Uint8)
		if err != nil {
			return err
		}
		own := grid.Box1(0, 8)
		if err := desc.SetupDataMapping(c, []grid.Box{own}, own); err != nil {
			return err
		}
		buf := fillBox(own, 1)
		dst := make([]byte, 8)
		if desc.LastTimings() != nil {
			return fmt.Errorf("timings non-nil before first exchange")
		}
		if err := desc.ReorganizeData(c, [][]byte{buf}, dst); err != nil {
			return err
		}
		first := desc.LastTimings()
		if len(first) != 1 {
			return fmt.Errorf("got %d timing entries, want 1", len(first))
		}
		first[0].Round = 99 // must not write through to the descriptor
		if got := desc.LastTimings(); got[0].Round != 0 {
			return fmt.Errorf("mutating the returned slice corrupted the descriptor")
		}
		saved := desc.LastTimings()
		if err := desc.ReorganizeData(c, [][]byte{buf}, dst); err != nil {
			return err
		}
		if saved[0] != first[0] && saved[0].Round != 0 {
			return fmt.Errorf("later exchange mutated an earlier LastTimings result")
		}
		appended := desc.AppendTimings(saved)
		if len(appended) != 2 {
			return fmt.Errorf("AppendTimings returned %d entries, want 2", len(appended))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReorganizeDataCtxCancel verifies a blocked receive wait is
// abandoned when the context expires, while the peer — whose inputs were
// already sent eagerly — still completes its own exchange.
func TestReorganizeDataCtxCancel(t *testing.T) {
	for _, mode := range []ExchangeMode{ModePointToPoint} {
		t.Run(mode.String(), func(t *testing.T) {
			domain := grid.Box1(0, 8)
			halves := grid.Slabs(domain, 0, 2)
			err := mpi.Launch(2, func(c *mpi.Comm) error {
				desc, err := NewDescriptor(2, Layout1D, Uint8, WithExchangeMode(mode))
				if err != nil {
					return err
				}
				own := halves[c.Rank()]
				if err := desc.SetupDataMapping(c, []grid.Box{own}, domain); err != nil {
					return err
				}
				buf := fillBox(own, 1)
				dst := make([]byte, domain.Volume())
				if c.Rank() == 1 {
					// Withhold rank 1's contribution long enough for rank 0's
					// deadline to expire, then exchange normally: rank 0's send
					// phase ran before its cancelled wait, so the data is there.
					time.Sleep(200 * time.Millisecond)
					return desc.ReorganizeData(c, [][]byte{buf}, dst)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				if err := desc.ReorganizeDataCtx(ctx, c, [][]byte{buf}, dst); !errors.Is(err, context.DeadlineExceeded) {
					return fmt.Errorf("rank 0: got %v, want context.DeadlineExceeded", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReorganizeDataCtxComplete verifies an ample deadline leaves the
// exchange untouched and an already-cancelled context fails fast.
func TestReorganizeDataCtxComplete(t *testing.T) {
	ownAll, needAll := stripWorld(4, 32, 2, true)
	err := mpi.Launch(4, func(c *mpi.Comm) error {
		rank := c.Rank()
		desc, err := NewDescriptor(4, Layout2D, Float32, WithExchangeMode(ModePointToPoint))
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, b := range ownAll[rank] {
			bufs[i] = fillBox(b, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := desc.ReorganizeDataCtx(ctx, c, bufs, dst); err != nil {
			return err
		}
		if err := checkBox(dst, needAll[rank], 4, nil, 0); err != nil {
			return err
		}
		done, cancelNow := context.WithCancel(context.Background())
		cancelNow()
		if err := desc.ReorganizeDataCtx(done, c, bufs, dst); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("pre-cancelled ctx: got %v, want context.Canceled", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// benchEngineConfig runs the 16-rank, 256x256, multi-chunk layout of the
// acceptance benchmark with the given engine options, reporting the mean
// per-exchange wall time observed by the rank-0 metrics registry.
func benchEngineConfig(b *testing.B, mode ExchangeMode, opts ...Option) {
	const (
		procs         = 16
		side          = 256
		elemSize      = 4
		chunksPerRank = 4
	)
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, false)
	reg := obs.NewRegistry()
	b.SetBytes(int64(side) * int64(side) * elemSize)
	err := mpi.Launch(procs, func(c *mpi.Comm) error {
		rank := c.Rank()
		desc, err := NewDescriptor(procs, Layout2D, Float32,
			append([]Option{WithExchangeMode(mode), WithMetrics(reg)}, opts...)...)
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = make([]byte, box.Volume()*elemSize)
		}
		dst := make([]byte, needAll[rank].Volume()*elemSize)
		if rank == 0 {
			b.ResetTimer()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := desc.ReorganizeData(c, bufs, dst); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	h := reg.Histogram("ddr_exchange_seconds",
		"Wall time of one complete ReorganizeData exchange.", obs.LatencyBuckets,
		obs.RankLabel(0), obs.Label{Key: "mode", Value: mode.String()})
	if n := h.Count(); n > 0 {
		b.ReportMetric(h.Sum()/float64(n)*1e9, "exch-ns/op")
	}
}

// BenchmarkReorganizeEngine compares the staging strategies on the same
// exchange: fully staged through every region's datatype, and the
// zero-copy fast path (the default).
func BenchmarkReorganizeEngine(b *testing.B) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"staged", []Option{withStaged()}},
		{"zerocopy", nil},
	}
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		for _, cfg := range configs {
			b.Run(fmt.Sprintf("%v/%s", mode, cfg.name), func(b *testing.B) {
				benchEngineConfig(b, mode, cfg.opts...)
			})
		}
	}
}
