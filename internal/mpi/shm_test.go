package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ddr/internal/obs"
)

// shmPattern returns a deterministic payload for (src, tag, index) so
// receivers can verify every byte without coordination.
func shmPattern(src, tag, i, size int) []byte {
	out := make([]byte, size)
	seed := byte(src*31 + tag*17 + i*7 + 1)
	for b := range out {
		out[b] = seed + byte(b)
	}
	return out
}

// TestShmConcurrentStorm hammers the rings from concurrent senders on
// every rank — the transport contract allows concurrent Sends, and the
// ring producer mutex must serialize them without corrupting records or
// breaking per-goroutine tag streams. Run under -race in make verify.
func TestShmConcurrentStorm(t *testing.T) {
	const (
		ranks   = 8
		senders = 4
		perTag  = 25
		size    = 512
	)
	err := runShm(ranks, func(c *Comm) error {
		var wg sync.WaitGroup
		errc := make(chan error, senders+1)
		// senders concurrent goroutines per rank, each with its own tag so
		// per-(src,tag) ordering is checkable at the receiver.
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(tag int) {
				defer wg.Done()
				for i := 0; i < perTag; i++ {
					for peer := 0; peer < c.Size(); peer++ {
						if peer == c.Rank() {
							continue
						}
						if err := c.Send(peer, tag, shmPattern(c.Rank(), tag, i, size)); err != nil {
							errc <- err
							return
						}
					}
				}
			}(s)
		}
		// Receive everything: per (src, tag) the i-sequence must arrive in
		// order with intact bytes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tag := 0; tag < senders; tag++ {
				for i := 0; i < perTag; i++ {
					for peer := 0; peer < c.Size(); peer++ {
						if peer == c.Rank() {
							continue
						}
						data, _, _, err := c.Recv(peer, tag)
						if err != nil {
							errc <- err
							return
						}
						if !bytes.Equal(data, shmPattern(peer, tag, i, size)) {
							errc <- fmt.Errorf("rank %d: corrupt payload from %d tag %d msg %d", c.Rank(), peer, tag, i)
							return
						}
						PutBuffer(data)
					}
				}
			}
		}()
		wg.Wait()
		close(errc)
		return <-errc
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmRingWraparound forces the ring write position to wrap many
// times: a minimum-size ring carrying payloads that never divide the
// ring size evenly, so records repeatedly straddle the end and the
// producer must emit wrap markers the consumer honours.
func TestShmRingWraparound(t *testing.T) {
	const msgs = 300
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				size := 600 + i%37*13 // co-prime-ish with 4096: wraps at varying offsets
				if err := c.Send(1, 3, shmPattern(0, 3, i, size)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			data, _, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			size := 600 + i%37*13
			if !bytes.Equal(data, shmPattern(0, 3, i, size)) {
				return fmt.Errorf("message %d corrupt after wraparound", i)
			}
			PutBuffer(data)
		}
		// The schedule must actually have wrapped — at the ring end, or
		// early on a drained ring, depending on how the consumer kept up
		// (TestShmRingRewind forces both).
		r := c.tr.(*shmTransport).w.ring(0, 1)
		r.mu.Lock()
		turns := r.wraps + r.rewinds
		r.mu.Unlock()
		if turns == 0 {
			return errors.New("ring never wrapped")
		}
		return nil
	}, withShm(wholeRecords))
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmChunkedInterleave streams large chunked payloads from several
// sources at once through tiny rings, with small control messages
// woven between them: stream reassembly is keyed per (source, stream)
// and must not mix sources, and the small messages must not jump their
// link's FIFO order.
func TestShmChunkedInterleave(t *testing.T) {
	const (
		ranks = 4
		big   = 64 << 10 // far above the 2 KiB threshold below: many chunks
		msgs  = 8
	)
	err := Launch(ranks, func(c *Comm) error {
		if c.Rank() == 0 {
			type rec struct {
				data []byte
				tag  int
			}
			got := make(map[int][]rec)
			for n := 0; n < (ranks-1)*msgs*2; n++ {
				data, src, tag, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				got[src] = append(got[src], rec{data: data, tag: tag})
			}
			for src := 1; src < ranks; src++ {
				seq := got[src]
				if len(seq) != msgs*2 {
					return fmt.Errorf("source %d delivered %d messages, want %d", src, len(seq), msgs*2)
				}
				// Per-link FIFO: each big payload (tag 1) is followed by its
				// small marker (tag 2), in send order.
				for i := 0; i < msgs; i++ {
					bigRec, mark := seq[2*i], seq[2*i+1]
					if bigRec.tag != 1 || mark.tag != 2 {
						return fmt.Errorf("source %d message %d arrived out of order (tags %d,%d)",
							src, i, bigRec.tag, mark.tag)
					}
					if !bytes.Equal(bigRec.data, shmPattern(src, 1, i, big)) {
						return fmt.Errorf("source %d chunked payload %d corrupt", src, i)
					}
					if !bytes.Equal(mark.data, shmPattern(src, 2, i, 16)) {
						return fmt.Errorf("source %d marker %d corrupt", src, i)
					}
					PutBuffer(bigRec.data)
					PutBuffer(mark.data)
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if err := c.Send(0, 1, shmPattern(c.Rank(), 1, i, big)); err != nil {
				return err
			}
			if err := c.Send(0, 2, shmPattern(c.Rank(), 2, i, 16)); err != nil {
				return err
			}
		}
		return nil
	}, withShm(shmConfig{ringSize: 8 << 10, chunkThreshold: 2 << 10, chunkSize: 2 << 10}))
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmChaosSchedules runs the fault-injector schedules over the shm
// transport: drop-with-retry must deliver, and a severed link must fail
// the receiver with ErrPeerLost while the healthy direction keeps
// working — the same guarantees the inproc and TCP transports give.
func TestShmChaosSchedules(t *testing.T) {
	t.Run("drop-retry", func(t *testing.T) {
		inj := funcInjector(func(_, _, _ int, _ uint64, attempt int) Fault {
			return Fault{Drop: attempt < 2}
		})
		err := Launch(2, func(c *Comm) error {
			peer := 1 - c.Rank()
			for i := 0; i < 20; i++ {
				if err := c.Send(peer, 7, shmPattern(c.Rank(), 7, i, 128)); err != nil {
					return err
				}
				data, _, _, err := c.Recv(peer, 7)
				if err != nil {
					return err
				}
				if !bytes.Equal(data, shmPattern(peer, 7, i, 128)) {
					return fmt.Errorf("round %d corrupt under drop-retry", i)
				}
				PutBuffer(data)
			}
			return nil
		}, WithTransport(TransportShm), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("stall-delivers", func(t *testing.T) {
		inj := funcInjector(func(_, _, _ int, seq uint64, _ int) Fault {
			return Fault{Delay: time.Duration(seq%5) * 200 * time.Microsecond}
		})
		err := Launch(3, func(c *Comm) error {
			for peer := 0; peer < c.Size(); peer++ {
				if peer == c.Rank() {
					continue
				}
				for i := 0; i < 10; i++ {
					if err := c.Send(peer, 1, shmPattern(c.Rank(), 1, i, 64)); err != nil {
						return err
					}
				}
			}
			for peer := 0; peer < c.Size(); peer++ {
				if peer == c.Rank() {
					continue
				}
				for i := 0; i < 10; i++ {
					data, _, _, err := c.Recv(peer, 1)
					if err != nil {
						return err
					}
					if !bytes.Equal(data, shmPattern(peer, 1, i, 64)) {
						return fmt.Errorf("stalled message %d from %d corrupt", i, peer)
					}
					PutBuffer(data)
				}
			}
			return nil
		}, WithTransport(TransportShm), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sever", func(t *testing.T) {
		inj := funcInjector(func(src, dst, _ int, _ uint64, _ int) Fault {
			return Fault{Sever: src == 0 && dst == 1}
		})
		err := Launch(2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 7, []byte("doomed")) //nolint:errcheck // swallowed by the cut
				data, _, _, err := c.Recv(1, 8)
				if err != nil {
					return fmt.Errorf("healthy 1->0 direction failed: %w", err)
				}
				PutBuffer(data)
				return nil
			}
			if err := c.Send(0, 8, []byte("alive")); err != nil {
				return err
			}
			_, _, _, err := c.Recv(0, 7)
			if !errors.Is(err, ErrPeerLost) {
				return fmt.Errorf("recv on severed link: got %v, want ErrPeerLost", err)
			}
			return nil
		}, WithTransport(TransportShm), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestShmZeroAllocSteadyState guards the steady-state allocation
// profile: with pooled payload recycling, a warmed-up ping-pong must
// not allocate on the send path and at most recycle pooled buffers on
// the receive path. The budget is a small constant, not zero, because
// AllocsPerRun counts the whole process — including the consumer
// goroutine's mailbox bookkeeping on first growth.
func TestShmZeroAllocSteadyState(t *testing.T) {
	err := runShm(2, func(c *Comm) error {
		const size = 4 << 10
		msg := make([]byte, size)
		peer := 1 - c.Rank()
		// Rank 1 echoes until the stop tag arrives, so rank 0 controls the
		// round count (AllocsPerRun adds its own warm-up invocation).
		if c.Rank() == 1 {
			for {
				data, _, tag, err := c.Recv(peer, AnyTag)
				if err != nil {
					return err
				}
				PutBuffer(data)
				if tag == 9 {
					return nil
				}
				if err := c.Send(peer, 0, msg); err != nil {
					return err
				}
			}
		}
		pingpong := func() error {
			if err := c.Send(peer, 0, msg); err != nil {
				return err
			}
			data, _, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			PutBuffer(data)
			return nil
		}
		for i := 0; i < 100; i++ { // reach steady state on both sides
			if err := pingpong(); err != nil {
				return err
			}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(50, func() {
			if err := pingpong(); err != nil {
				t.Error(err)
			}
		})
		if err := c.Send(peer, 9, nil); err != nil {
			return err
		}
		if allocs > 4 {
			t.Errorf("steady-state shm ping-pong allocates %.1f objects per round trip", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmScrapeUnderLoad races Prometheus scrapes against ring traffic:
// the shm gauges and counters are updated from producer and consumer
// goroutines while WritePrometheus walks the registry. Run under -race
// in make verify; the assertion here is that the scrape sees the new
// instruments and nothing deadlocks.
func TestShmScrapeUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	err := Launch(4, func(c *Comm) error {
		stop := make(chan struct{})
		var scrapes sync.WaitGroup
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		for i := 0; i < 50; i++ {
			for peer := 0; peer < c.Size(); peer++ {
				if peer == c.Rank() {
					continue
				}
				if err := c.Send(peer, 1, shmPattern(c.Rank(), 1, i, 2048)); err != nil {
					return err
				}
			}
			for peer := 0; peer < c.Size(); peer++ {
				if peer == c.Rank() {
					continue
				}
				data, _, _, err := c.Recv(peer, 1)
				if err != nil {
					return err
				}
				PutBuffer(data)
			}
		}
		close(stop)
		scrapes.Wait()
		return nil
	}, WithTransport(TransportShm), WithTelemetry(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"mpi_shm_bytes_out_total",
		"mpi_shm_bytes_in_total",
		"mpi_shm_ring_occupancy_bytes",
		"mpi_shm_ring_touched_bytes",
	} {
		if !bytes.Contains([]byte(out), []byte(name)) {
			t.Errorf("scrape output missing %s", name)
		}
	}
	// Every rank received 150 records of 2 KiB: its inbound rings have
	// touched at least one.
	for rank := 0; rank < 4; rank++ {
		if v := reg.Gauge("mpi_shm_ring_touched_bytes", "", obs.RankLabel(rank)).Value(); v < 2048 {
			t.Errorf("rank %d: mpi_shm_ring_touched_bytes %d, want at least one 2 KiB record", rank, v)
		}
	}
}

// TestShmCloseWaitsOutProducer: a producer can still be inside a ring
// when the world closes — a fault injector's worker delivers after its
// rank returned. close must not unmap the region under a producer that
// holds a ring lock, and a producer that takes the lock afterwards must
// get ErrClosed without touching ring memory.
func TestShmCloseWaitsOutProducer(t *testing.T) {
	box := newMailbox(nil)
	defer box.close(nil)
	w, err := mapShmWorld(1, wholeRecords, []*mailbox{box})
	if err != nil {
		t.Fatal(err)
	}
	r := w.ring(0, 0)
	r.mu.Lock() // a producer mid-record
	closed := make(chan struct{})
	go func() {
		w.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("world closed, unmapping its rings, under a producer holding a ring lock")
	case <-time.After(20 * time.Millisecond):
	}
	r.mu.Unlock()
	<-closed
	e := envelope{ctx: 1}
	r.mu.Lock()
	err = r.writeRecord(w, &e, shmRecMsg, 0, 0, []Part{{Buf: make([]byte, 8)}}, 8)
	r.mu.Unlock()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("record written after close: %v, want ErrClosed", err)
	}
}
