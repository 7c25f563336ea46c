package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Tests of the executor's ways of completing a posted receive: a message
// landed in the posted need regions — by its sender on bare inproc, by
// the receiving rank's ring consumer on shm — and an eager payload placed
// by the receiver (everything else).

// noFaults is a fault injector that injects nothing. Wrapping a world in
// it is still enough to stop every landing — which path runs is the
// transport's business, and the fault transport has no send capability:
// delivery through the injector's link queues is asynchronous.
type noFaults struct{}

func (noFaults) FaultFor(src, dst, tag int, seq uint64, attempt int) mpi.Fault { return mpi.Fault{} }

const landPoison = 0xA5

// stackWorld is stack_to_bricks in small: unit z-slices dealt round-robin
// to 8 ranks -> 2x2x2 bricks. Every send is strided (a quarter of a
// slice), every receive one contiguous plane of the brick.
func stackWorld(side, slices int) (domain grid.Box, ownAll [][]grid.Box, needAll []grid.Box) {
	domain = grid.Box3(0, 0, 0, side, side, slices)
	return domain, grid.RoundRobinSlices(domain, 2, 8), grid.Bricks3D(domain, 2, 2, 2)
}

// stridedRecvWorld is stripWorld turned on its side: full-height column
// strips dealt round-robin -> row slabs. Every send is a contiguous run
// of the strip's rows; every receive is a narrow column band of the slab,
// strided, so a post offers it by its datatype, not as a span.
func stridedRecvWorld(n, side, chunksPerRank int) (ownAll [][]grid.Box, needAll []grid.Box) {
	domain := grid.Box2(0, 0, side, side)
	ownAll = make([][]grid.Box, n)
	for i, b := range grid.Slabs(domain, 0, n*chunksPerRank) {
		ownAll[i%n] = append(ownAll[i%n], b)
	}
	return ownAll, grid.Slabs(domain, 1, n)
}

// landWorld runs two exchanges of the geometry on one world, the need
// buffers poisoned first, and returns every rank's output and the number
// of messages that landed (TrafficStats.MessagesLanded, world total).
func landWorld(t *testing.T, ownAll [][]grid.Box, needAll []grid.Box, layout Layout, launch []mpi.LaunchOption, opts ...Option) (out [][]byte, landed int64) {
	t.Helper()
	n := len(needAll)
	out = make([][]byte, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(n, layout, Float32, opts...)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = fillBox(box, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		c.ResetTraffic()
		for iter := 0; iter < 2; iter++ {
			for i := range dst {
				dst[i] = landPoison
			}
			if err := d.ReorganizeData(c, bufs, dst); err != nil {
				return err
			}
		}
		atomic.AddInt64(&landed, c.Traffic().MessagesLanded)
		out[rank] = dst
		return checkBox(dst, needAll[rank], 4, nil, landPoison)
	}, launch...)
	if err != nil {
		t.Fatal(err)
	}
	return out, landed
}

// TestLandedMatchesEager is the differential test of the completion
// paths: the same geometry on bare inproc, behind a no-op fault injector
// (where nothing can land), on shm and through the alltoallw reference
// must leave the same bytes. Landing is certain on bare inproc and on shm
// for contiguous and strided receives alike: every rank posts all its
// receives before it sends anything, so whatever is sent to the rank that
// finished posting first finds its post open — claimed by the sender on
// inproc, by that rank's ring consumer on shm.
func TestLandedMatchesEager(t *testing.T) {
	_, stackOwn, stackNeed := stackWorld(16, 16)
	stripOwn, stripNeed := stridedRecvWorld(4, 32, 3)
	geoms := []struct {
		name    string
		layout  Layout
		ownAll  [][]grid.Box
		needAll []grid.Box
	}{
		{"stack", Layout3D, stackOwn, stackNeed},
		{"strided-recv", Layout2D, stripOwn, stripNeed},
	}
	bare := []mpi.LaunchOption{mpi.WithFaultInjector(nil)}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			got, landed := landWorld(t, g.ownAll, g.needAll, g.layout, bare)
			if landed == 0 {
				t.Error("nothing landed on bare inproc")
			}
			eager, landed := landWorld(t, g.ownAll, g.needAll, g.layout, []mpi.LaunchOption{mpi.WithFaultInjector(noFaults{})})
			if landed != 0 {
				t.Errorf("%d messages landed through a fault injector", landed)
			}
			ref, landed := landWorld(t, g.ownAll, g.needAll, g.layout, bare, WithExchangeMode(ModeAlltoallw))
			if landed != 0 {
				t.Errorf("%d messages landed in ModeAlltoallw", landed)
			}
			shm, landed := landWorld(t, g.ownAll, g.needAll, g.layout, []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm), mpi.WithFaultInjector(nil)})
			if landed == 0 {
				t.Error("nothing landed on shm")
			}
			for r := range got {
				if !bytes.Equal(got[r], eager[r]) || !bytes.Equal(got[r], ref[r]) || !bytes.Equal(got[r], shm[r]) {
					t.Errorf("rank %d: landed, eager, shm and alltoallw outputs differ", r)
				}
			}
		})
	}
}

// TestNobodyWritesAfterReturn cancels, and deadline-expires, exchanges in
// mid-flight where something other than the receiver writes into its
// need buffer directly — peers on bare inproc, the rank's ring consumer
// on shm — and has every rank scribble over its need buffer the moment
// its call returns. It does so for receives posted as spans (stack) and
// as strided datatypes (strided-recv), so a sender walking its runs into
// a claimed post's rows is raced as much as one copying into a span. The race detector is the oracle: a sender still
// packing into a claimed span, or a consumer still copying into a landed
// one, after the receiver's ReorganizeData returned is a write-write race
// with the scribble. Each attempt runs on a fresh communicator over the
// same ranks (the cancellation contract: an abandoned exchange's
// stragglers stay in its context), and a clean exchange among them at the
// end must still be exact.
func TestNobodyWritesAfterReturn(t *testing.T) {
	_, stackOwn, stackNeed := stackWorld(64, 32)
	stripOwn, stripNeed := stridedRecvWorld(8, 256, 2)
	for name, launch := range map[string][]mpi.LaunchOption{
		"inproc": {mpi.WithFaultInjector(nil)},
		"shm":    {mpi.WithTransport(mpi.TransportShm), mpi.WithFaultInjector(nil)},
	} {
		t.Run(name, func(t *testing.T) {
			t.Run("stack", func(t *testing.T) { nobodyWritesAfterReturn(t, launch, Layout3D, stackOwn, stackNeed) })
			t.Run("strided-recv", func(t *testing.T) { nobodyWritesAfterReturn(t, launch, Layout2D, stripOwn, stripNeed) })
		})
	}
}

func nobodyWritesAfterReturn(t *testing.T, launch []mpi.LaunchOption, layout Layout, ownAll [][]grid.Box, needAll []grid.Box) {
	const attempts = 40
	n := len(needAll)
	ctxs := make([]context.Context, attempts)
	cancels := make([]context.CancelFunc, attempts)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
	}
	var landed int64
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(n, layout, Float32)
		if err != nil {
			return err
		}
		timed, err := NewDescriptor(n, layout, Float32, WithExchangeDeadline(150*time.Microsecond))
		if err != nil {
			return err
		}
		for _, desc := range []*Descriptor{d, timed} {
			if err := desc.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
				return err
			}
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = fillBox(box, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		scribble := func() {
			for pass := 0; pass < 4; pass++ {
				for i := range dst {
					dst[i] = byte(pass)
				}
			}
		}
		for i := 0; i < attempts; i++ {
			sub, err := c.Split(0, rank)
			if err != nil {
				return err
			}
			if i%2 == 1 {
				// The deadline arms graceful degradation: peers are given
				// up on one by one and the call reports what is missing.
				err = timed.ReorganizeData(sub, bufs, dst)
				var pe *PartialError
				if err != nil && !errors.As(err, &pe) {
					return fmt.Errorf("attempt %d (deadline): %w", i, err)
				}
			} else {
				if rank == 0 {
					time.AfterFunc(time.Duration(i*20)*time.Microsecond, cancels[i])
				}
				err = d.ReorganizeDataCtx(ctxs[i], sub, bufs, dst)
				if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, mpi.ErrExchangeTimeout) {
					return fmt.Errorf("attempt %d (cancel): %w", i, err)
				}
			}
			scribble()
		}
		sub, err := c.Split(0, rank)
		if err != nil {
			return err
		}
		if err := d.ReorganizeData(sub, bufs, dst); err != nil {
			return fmt.Errorf("clean exchange after the cancelled ones: %w", err)
		}
		atomic.AddInt64(&landed, c.Traffic().MessagesLanded)
		return checkBox(dst, needAll[rank], 4, nil, 0)
	}, launch...)
	if err != nil {
		t.Fatal(err)
	}
	if landed == 0 {
		t.Error("no message landed: the test never raced a writer against the return")
	}
}

// BenchmarkStackExchange times stack_to_bricks' exchange (256x256x128
// float32, 16 slices a rank -> 2x2x2 bricks, a barrier between epochs as
// in bench/ddrperf) on bare inproc, where its messages land in the posted
// spans, and behind a no-op fault injector, where every one is staged, and
// reports the share that landed.
func BenchmarkStackExchange(b *testing.B) {
	b.Run("landed", func(b *testing.B) { benchStackExchange(b, nil) })
	b.Run("eager", func(b *testing.B) { benchStackExchange(b, noFaults{}) })
}

func benchStackExchange(b *testing.B, inj mpi.FaultInjector) {
	_, ownAll, needAll := stackWorld(256, 128)
	n := len(needAll)
	var landed, sent int64
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(n, Layout3D, Float32)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = make([]byte, box.Volume()*4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		// One epoch to warm up, and to count an epoch's messages.
		c.ResetTraffic()
		if err := d.ReorganizeData(c, bufs, dst); err != nil {
			return err
		}
		perEpoch := c.Traffic().MessagesSent
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			b.ResetTimer()
		}
		c.ResetTraffic()
		for i := 0; i < b.N; i++ {
			if err := d.ReorganizeData(c, bufs, dst); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		atomic.AddInt64(&landed, c.Traffic().MessagesLanded)
		atomic.AddInt64(&sent, perEpoch*int64(b.N))
		return nil
	}, mpi.WithFaultInjector(inj))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(landed)/float64(sent), "landed/msg")
}
