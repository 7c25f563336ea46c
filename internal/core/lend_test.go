package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// Tests of the executor's lent sends on bare inproc: a message whose
// receiver has not posted yet waits in its mailbox by reference to the
// owned buffers (mpi.Comm.Lend), and run settles every such message on
// its way out. Ranks order themselves through Go channels and rank 1's
// mailbox depth gauge, not messages, so each ordering is the one named.

// swapWorld: two ranks swap halves of a 32x32 array. Rank 0 owns the left
// column slab and needs the top row slab, rank 1 the other two, so each
// sends the other one message: a contiguous run of its chunk that lands
// strided in the peer's need.
func swapWorld() (ownAll [][]grid.Box, needAll []grid.Box) {
	domain := grid.Box2(0, 0, 32, 32)
	cols := grid.Slabs(domain, 0, 2)
	return [][]grid.Box{{cols[0]}, {cols[1]}}, grid.Slabs(domain, 1, 2)
}

// cycleWorld: three ranks each own a column slab of a 48x16 array and
// need the next-but-one rank's, so messages go 0 -> 1 -> 2 -> 0.
func cycleWorld() (ownAll [][]grid.Box, needAll []grid.Box) {
	cols := grid.Slabs(grid.Box2(0, 0, 48, 16), 0, 3)
	return [][]grid.Box{{cols[0]}, {cols[1]}, {cols[2]}}, []grid.Box{cols[2], cols[0], cols[1]}
}

// oneWayWorld: rank 0 owns the whole 32x32 array, rank 1 owns nothing;
// rank 0 needs the left column slab and rank 1 the right one, so rank 0's
// exchange sends one strided message and receives none.
func oneWayWorld() (ownAll [][]grid.Box, needAll []grid.Box) {
	domain := grid.Box2(0, 0, 32, 32)
	return [][]grid.Box{{domain}, nil}, grid.Slabs(domain, 0, 2)
}

// depthGauge is the mpi_pending_messages gauge of world rank rank in reg:
// the messages queued in its mailbox, lent ones among them.
func depthGauge(reg *obs.Registry, rank int) *obs.Gauge {
	return reg.Gauge("mpi_pending_messages", "", obs.RankLabel(rank))
}

// TestLentSendsSettleOnEveryExit: rank 0's exchange lends its message to
// rank 1, which has not posted, and then leaves run — by returning (it
// receives nothing), by its caller's cancel, by its deadline, or because
// the peer it waits on (rank 2) was lost. The moment it returns, rank 0
// overwrites its owned buffer while rank 1 runs its exchange, which must
// read the closed-form fill: run packed the waiting message before it
// returned, so rank 1 reads the arena wire, never rank 0's buffer (the race
// detector reports a read of it as a race with the scribble). Launch fails
// when a message is still lent once every rank returned.
func TestLentSendsSettleOnEveryExit(t *testing.T) {
	errLost := errors.New("rank 2 lost")
	for _, exit := range []string{"return", "cancel", "deadline", "lost-peer"} {
		t.Run(exit, func(t *testing.T) {
			ownAll, needAll := swapWorld()
			switch exit {
			case "return":
				ownAll, needAll = oneWayWorld()
			case "lost-peer":
				ownAll, needAll = cycleWorld()
			}
			n := len(needAll)
			reg := obs.NewRegistry()
			returned, ready := make(chan struct{}), make(chan struct{})
			err := mpi.Launch(n, func(c *mpi.Comm) error {
				rank := c.Rank()
				var opts []Option
				if exit == "deadline" && rank == 0 {
					opts = append(opts, WithExchangeDeadline(20*time.Millisecond))
				}
				d, err := NewDescriptor(n, Layout2D, Float32, opts...)
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
				if err := c.Barrier(); err != nil {
					return err
				}
				switch rank {
				case 0:
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if exit == "cancel" {
						time.AfterFunc(20*time.Millisecond, cancel)
					}
					err := d.ReorganizeDataCtx(ctx, c, bufs, dst)
					close(returned)
					for _, b := range bufs {
						for i := range b {
							b[i] = ^b[i]
						}
					}
					var pe *PartialError
					switch {
					case exit == "return" && err == nil,
						exit == "cancel" && errors.Is(err, context.Canceled),
						exit == "deadline" && errors.As(err, &pe) && len(pe.LostPeers) == 1 && pe.LostPeers[0] == 1,
						exit == "lost-peer" && errors.Is(err, errLost):
						return nil
					}
					return fmt.Errorf("rank 0 left its exchange with %v", err)
				case 1:
					close(ready)
					<-returned
					if err := d.ReorganizeData(c, bufs, dst); err != nil {
						return err
					}
					return checkBox(dst, needAll[1], 4, nil, 0)
				default:
					// Lost once rank 0's message waits lent at rank 1.
					<-ready
					for depthGauge(reg, 1).Value() == 0 {
						runtime.Gosched()
					}
					return errLost
				}
			}, mpi.WithFaultInjector(nil), mpi.WithTelemetry(reg, nil))
			if exit == "lost-peer" {
				if !errors.Is(err, errLost) || strings.Contains(err.Error(), "lent") {
					t.Fatalf("Launch returned %v, want only rank 2's loss", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLentZeroAllocSteadyState is TestZeroAllocSteadyState with a late
// receiver: rank 1 enters each exchange only once rank 0's message waits
// lent in its mailbox, so that message is copied in by rank 1's post and
// rank 1's lands in rank 0's open post. Every message lands, and a
// steady-state exchange on either side — lend, wait in the mailbox, copy
// at the post, settle — allocates nothing.
func TestLentZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per synchronisation event")
	}
	const runs = 50
	ownAll, needAll := swapWorld()
	reg := obs.NewRegistry()
	measured := make(chan struct{})
	var landed [2]int64
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(2, Layout2D, Float32)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := [][]byte{fillBox(ownAll[rank][0], 4)}
		dst := make([]byte, needAll[rank].Volume()*4)
		depth := depthGauge(reg, 1)
		exchange := func() error {
			if rank == 1 {
				for depth.Value() == 0 {
					runtime.Gosched()
				}
			}
			return d.ReorganizeData(c, bufs, dst)
		}
		for i := 0; i < 3; i++ { // reach steady state
			if err := exchange(); err != nil {
				return err
			}
		}
		before := c.Traffic().MessagesLanded
		if rank == 0 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(runs, func() {
				if err := exchange(); err != nil {
					t.Error(err)
				}
			})
			close(measured)
			if allocs != 0 {
				t.Errorf("%.1f allocs per steady-state exchange with a late receiver, want 0", allocs)
			}
		} else {
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call and its runs
				if err := exchange(); err != nil {
					return err
				}
			}
			<-measured
		}
		landed[rank] = c.Traffic().MessagesLanded - before
		return checkBox(dst, needAll[rank], 4, nil, 0)
	}, mpi.WithFaultInjector(nil), mpi.WithTelemetry(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	for rank, got := range landed {
		if got != runs+1 {
			t.Errorf("rank %d: %d of %d messages landed", rank, got, runs+1)
		}
	}
}
