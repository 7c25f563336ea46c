package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ddr/internal/obs"
)

// A shm record that reaches its ring before its receiver posts waits
// there: the consumer leaves an unsequenced whole-message record in place
// while no receive from its sender is open or bound, and a post nudges it.
// These tests drive two-rank shm worlds whose ranks order themselves
// through Go channels, not messages, so no receive opens early by
// accident.

const shmWaitTag = 5

// shmWorldOf is c's shm world, behind a fault injector or not.
func shmWorldOf(c *Comm) *shmWorld {
	tr := c.tr
	if ft, ok := tr.(*faultTransport); ok {
		tr = ft.raw
	}
	return tr.(*shmTransport).w
}

// shmOccupancy is the record bytes committed to c's inbound rings and not
// yet consumed: its mpi_shm_ring_occupancy_bytes gauge.
func shmOccupancy(c *Comm) int64 { return c.counters.telemetry().shmOccupancy.Value() }

// shmWaiting waits until the consumer has had the chance to take what
// the rings hold, then reports the bytes still committed and unconsumed.
func shmWaiting(c *Comm) int64 {
	time.Sleep(5 * time.Millisecond)
	return shmOccupancy(c)
}

// runShmWait runs body on a two-rank shm world with opts, failing the test
// when the world does not finish within a bound: a record that waits for
// a receive nobody will post hangs instead of failing. The world reports
// to a registry, so the ring gauges count every record.
func runShmWait(t *testing.T, body func(c *Comm) error, opts ...LaunchOption) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- Launch(2, body, append([]LaunchOption{WithTransport(TransportShm), WithFaultInjector(nil),
			WithTelemetry(obs.NewRegistry(), nil)}, opts...)...)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("world hung")
	}
}

// postWait posts a typed receive of n bytes from rank from and waits for
// it, returning the bytes and whether they landed in the posted span.
func postWait(c *Comm, from, tag, n int) ([]byte, bool, error) {
	var p Posted
	span := make([]byte, n)
	if err := c.Post(&p, from, tag, []Part{{Buf: span}}); err != nil {
		return nil, false, err
	}
	data, landed, err := p.Wait(nil)
	if landed {
		data = span
	}
	return data, landed, err
}

// TestShmRecordWaitsForPost: a record written while its receiver has no
// post stays in the ring, and lands in the post when it opens — no arena
// payload on the way.
func TestShmRecordWaitsForPost(t *testing.T) {
	sent := make(chan struct{})
	runShmWait(t, func(c *Comm) error {
		if c.Rank() == 0 {
			own := make([]byte, 1<<10)
			postedFill(own, 1)
			err := c.Send(1, shmWaitTag, own)
			close(sent)
			return err
		}
		<-sent
		if occ := shmWaiting(c); occ == 0 {
			return errors.New("the record left its ring before any receive was posted")
		}
		data, landed, err := postWait(c, 0, shmWaitTag, 1<<10)
		if err != nil {
			return err
		}
		if !landed {
			return errors.New("the record waiting in its ring did not land in the post")
		}
		if st := c.Traffic(); st.MessagesLanded != 1 {
			return fmt.Errorf("MessagesLanded = %d, want 1", st.MessagesLanded)
		}
		if occ := shmOccupancy(c); occ != 0 {
			return fmt.Errorf("%d bytes still in the rings after the receive", occ)
		}
		return postedCheck(data, 1<<10, 1)
	})
}

// drained waits until the (src -> dst) ring of c's shm world has no
// whole-ring drain pending or under way.
func drained(c *Comm, src, dst int) {
	r := shmWorldOf(c).ring(src, dst)
	for r.short.Load() || r.draining.Load() {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestShmPressureDrainsWaitingRecords: a sender writes four rings' worth
// to a receiver that posts only after every send returned. Sends must not
// wait for receives, so a producer short of space flags its ring and the
// consumer drains it into the arena; only the records still in the ring
// when the posts open can land. A drain takes every record committed when
// it starts, and one flagged while an earlier drain is still under way
// may start only after the flagging record was written, and take it too.
// So the sender makes its last send once every drain is over: that record
// either fits or flags a drain that ends before it is written, and waits
// in the ring either way.
func TestShmPressureDrainsWaitingRecords(t *testing.T) {
	const size, msgs = 512, 32
	record := shmPad(shmWordSize + shmRecHeader + size)
	sent := make(chan struct{})
	runShmWait(t, func(c *Comm) error {
		if c.Rank() == 0 {
			defer close(sent)
			own := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if i == msgs-1 {
					drained(c, 0, 1)
				}
				postedFill(own, i)
				if err := c.Send(1, shmWaitTag, own); err != nil {
					return err
				}
			}
			return nil
		}
		<-sent
		drained(c, 0, 1)
		if occ := shmWaiting(c); occ == 0 {
			return errors.New("no record waits in the ring for its receive")
		}
		for i := 0; i < msgs; i++ {
			data, landed, err := postWait(c, 0, shmWaitTag, size)
			if err != nil {
				return err
			}
			if err := postedCheck(data, size, i); err != nil {
				return err
			}
			if !landed {
				PutBuffer(data)
			}
		}
		landed := c.Traffic().MessagesLanded
		if landed == 0 || int(landed)*record > wholeRecords.ringSize {
			return fmt.Errorf("%d of %d messages landed; want the %d-byte ring's last records, at least one", landed, msgs, wholeRecords.ringSize)
		}
		return nil
	}, withShm(wholeRecords))
}

// TestShmLaterTagDrainsEarlierRecord: waiting is per source, not per
// record. A receive for the second of two messages from one sender takes
// the first out of the ring into the queue on its way, lands the second,
// and a later receive for the first takes it from the queue.
func TestShmLaterTagDrainsEarlierRecord(t *testing.T) {
	const size = 1 << 10
	sent := make(chan struct{})
	runShmWait(t, func(c *Comm) error {
		if c.Rank() == 0 {
			defer close(sent)
			own := make([]byte, size)
			for i, tag := range []int{shmWaitTag, shmWaitTag + 1} {
				postedFill(own, i)
				if err := c.Send(1, tag, own); err != nil {
					return err
				}
			}
			return nil
		}
		<-sent
		if occ := shmWaiting(c); occ != int64(2*shmPad(shmWordSize+shmRecHeader+size)) {
			return fmt.Errorf("%d bytes wait in the ring, want both records", occ)
		}
		data, landed, err := postWait(c, 0, shmWaitTag+1, size)
		if err != nil {
			return err
		}
		if !landed {
			return errors.New("the later message did not land")
		}
		if err := postedCheck(data, size, 1); err != nil {
			return err
		}
		if occ := shmOccupancy(c); occ != 0 {
			return fmt.Errorf("the earlier record still waits in its ring (%d bytes) behind a receive from its sender", occ)
		}
		data, _, _, err = c.Recv(0, shmWaitTag)
		if err != nil {
			return err
		}
		defer PutBuffer(data)
		if st := c.Traffic(); st.MessagesLanded != 1 {
			return fmt.Errorf("MessagesLanded = %d, want 1", st.MessagesLanded)
		}
		return postedCheck(data, size, 0)
	})
}

// TestShmSeverDeliversEarlierMessages: a severed link's lost-peer notice
// rides the ring behind the messages sent before the cut, and like an
// unsequenced record it waits there for a receive from its sender. Posts
// opened after the sever still take the earlier messages; the one for the
// message the cut swallowed fails with ErrPeerLost.
func TestShmSeverDeliversEarlierMessages(t *testing.T) {
	inj := funcInjector(func(src, dst, tag int, _ uint64, _ int) Fault {
		return Fault{Sever: src == 0 && dst == 1 && tag == shmWaitTag+2}
	})
	sent := make(chan struct{})
	runShmWait(t, func(c *Comm) error {
		if c.Rank() == 0 {
			defer close(sent)
			for i := 0; i < 2; i++ {
				if err := c.Send(1, shmWaitTag+i, []byte{byte(i)}); err != nil {
					return err
				}
			}
			c.Send(1, shmWaitTag+2, []byte{2}) //nolint:errcheck // swallowed by the cut
			return nil
		}
		<-sent
		// Rank 0 published the two messages, one byte each, and then the
		// notice; this rank took the two sequenced messages out of the ring.
		deadline := time.Now().Add(10 * time.Second)
		out, in := shmWorldOf(c).tel(0).shmBytesOut, c.counters.telemetry().shmBytesIn
		for out.Value() <= 2 || in.Value() < 2 {
			if time.Now().After(deadline) {
				return fmt.Errorf("the lost-peer notice never reached the ring: %d bytes out, %d in", out.Value(), in.Value())
			}
			time.Sleep(time.Millisecond)
		}
		if occ := shmWaiting(c); occ == 0 {
			return errors.New("the lost-peer notice left its ring before any receive was posted")
		}
		for i := 0; i < 2; i++ {
			data, _, _, err := c.Recv(0, shmWaitTag+i)
			if err != nil {
				return fmt.Errorf("message %d, sent before the sever: %w", i, err)
			}
			if !bytes.Equal(data, []byte{byte(i)}) {
				return fmt.Errorf("message %d: got %v", i, data)
			}
			PutBuffer(data)
		}
		if _, _, _, err := c.Recv(0, shmWaitTag+2); !errors.Is(err, ErrPeerLost) {
			return fmt.Errorf("receive of the swallowed message: got %v, want ErrPeerLost", err)
		}
		return nil
	}, WithFaultInjector(inj))
}

// TestShmCancelledPostRepostLands: a post revoked by Cancel leaves no
// receive open, so a record arriving next waits in its ring; the same
// Posted posted again lands it.
func TestShmCancelledPostRepostLands(t *testing.T) {
	const size = 1 << 10
	revoked, sent := make(chan struct{}), make(chan struct{})
	runShmWait(t, func(c *Comm) error {
		if c.Rank() == 0 {
			<-revoked
			own := make([]byte, size)
			postedFill(own, 3)
			err := c.Send(1, shmWaitTag, own)
			close(sent)
			return err
		}
		var p Posted
		span := make([]byte, size)
		if err := c.Post(&p, 0, shmWaitTag, []Part{{Buf: span}}); err != nil {
			return err
		}
		if p.Cancel() {
			return errors.New("revoking an open post reported a consumed message")
		}
		close(revoked)
		<-sent
		if occ := shmWaiting(c); occ == 0 {
			return errors.New("the record left its ring while no receive was posted")
		}
		if err := c.Post(&p, 0, shmWaitTag, []Part{{Buf: span}}); err != nil {
			return err
		}
		if _, landed, err := p.Wait(nil); err != nil || !landed {
			return fmt.Errorf("re-posted receive: landed %v, err %v", landed, err)
		}
		if st := c.Traffic(); st.MessagesLanded != 1 {
			return fmt.Errorf("MessagesLanded = %d, want 1", st.MessagesLanded)
		}
		return postedCheck(span, size, 3)
	})
}

// TestShmLargerBurstLands: a burst larger than any its ring has carried
// still waits in the ring for its receives and lands whole. Rank 0 sends
// three bursts of one 1 KiB record, then one of four, each on a drained
// ring; rank 1 posts a burst's receives only once it was sent. A ring
// that rewinds only past the largest burst it has carried leaves the
// four-record burst room for one record below the rewind's wrap marker:
// the second flags the ring short, the first is drained into the arena,
// and three of four land.
func TestShmLargerBurstLands(t *testing.T) {
	const size = 1 << 10
	bursts := []int{1, 1, 1, 4}
	sent, got := make(chan struct{}, len(bursts)), make(chan struct{})
	runShmWait(t, func(c *Comm) error {
		if c.Rank() == 0 {
			own, r := make([]byte, size), shmWorldOf(c).ring(0, 1)
			for b, k := range bursts {
				// Rank 1 has received the last burst; wait until its
				// consumer has also moved head past it.
				for r.loadHead() != r.loadTail() {
					time.Sleep(100 * time.Microsecond)
				}
				for i := 0; i < k; i++ {
					postedFill(own, 8*b+i)
					if err := c.Send(1, shmWaitTag, own); err != nil {
						return err
					}
				}
				sent <- struct{}{}
				<-got
			}
			return nil
		}
		defer close(got)
		for b, k := range bursts {
			<-sent
			landed := 0
			for i := 0; i < k; i++ {
				data, ok, err := postWait(c, 0, shmWaitTag, size)
				if err != nil {
					return err
				}
				if err := postedCheck(data, size, 8*b+i); err != nil {
					return err
				}
				if ok {
					landed++
				} else {
					PutBuffer(data)
				}
			}
			if landed != k {
				st := c.Traffic()
				return fmt.Errorf("burst %d of %d records: %d landed (arena payloads: %d from a ring drained short, %d with no post open, %d past a post of another size)",
					b, k, landed, st.ArenaShort, st.ArenaNoPost, st.ArenaOther)
			}
			got <- struct{}{}
		}
		return nil
	})
}
