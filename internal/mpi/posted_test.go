package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ddr/internal/obs"
)

// Control tags of the posted-receive tests; the data tag is repeated on
// purpose, so only FIFO matching keeps its messages apart.
const (
	postTagData = 40
	postTagGo   = 41
)

// postedWorld is one transport the posted-receive contract is checked on,
// with the way a message can land in a posted span there.
type postedWorld struct {
	name string
	// sendLands: a sender's typed send — and so a plain Send — lands in an
	// open post (bare inproc only).
	sendLands bool
	// delivers: the receiver's shm consumer copies a whole-message record
	// into an open post (bare shm only).
	delivers bool
	opts     []LaunchOption
}

// lands reports whether a message of n bytes lands in its post.
func (w postedWorld) lands(n int, postFirst bool) bool {
	return postFirst && n > 0 && (w.sendLands || w.delivers && n <= shmChunkThreshold)
}

func postedWorlds() []postedWorld {
	noop := funcInjector(func(src, dst, tag int, seq uint64, attempt int) Fault { return Fault{} })
	return []postedWorld{
		{"inproc", true, false, []LaunchOption{WithFaultInjector(nil)}},
		{"inproc+injector", false, false, []LaunchOption{WithFaultInjector(noop)}},
		{"tcp", false, false, []LaunchOption{WithTransport(TransportTCP), WithFaultInjector(nil)}},
		{"shm", false, true, []LaunchOption{WithTransport(TransportShm), WithFaultInjector(nil)}},
		// Behind an injector every message is sequenced, and a sequenced
		// one takes the arena path so the mailbox can drop its duplicates.
		{"shm+injector", false, false, []LaunchOption{WithTransport(TransportShm), WithFaultInjector(noop)}},
	}
}

func postedFill(b []byte, msg int) {
	for i := range b {
		b[i] = byte(msg*31 + i)
	}
}

func postedCheck(b []byte, n, msg int) error {
	if len(b) != n {
		return fmt.Errorf("message %d: %d bytes, want %d", msg, len(b), n)
	}
	for i := range b {
		if b[i] != byte(msg*31+i) {
			return fmt.Errorf("message %d: byte %d is %#x, want %#x", msg, i, b[i], byte(msg*31+i))
		}
	}
	return nil
}

// postedSend moves message msg of n bytes the way the exchange executor
// does, as one typed send of the owner's bytes — landed in the receiver's
// open post on bare inproc, lent to the tcp writer, written into the shm
// record, staged elsewhere — or, plain set, as a Send of the same bytes,
// which the transport must treat alike.
func postedSend(c *Comm, to, n, msg int, plain bool) error {
	own := make([]byte, n)
	postedFill(own, msg)
	if plain {
		return c.Send(to, postTagData, own)
	}
	return c.SendTyped(nil, to, postTagData, []Part{{Buf: own}}, nil)
}

// postedExchange runs every size × order combination between two ranks of
// c, three same-tag messages each. Only from and to take part.
func postedExchange(c *Comm, from, to int, w postedWorld) error {
	const msgs = 3
	// The last size is above every transport's chunk threshold, so on tcp
	// and shm a post can meet its message half reassembled.
	for _, n := range []int{0, 1 << 10, 64 << 10, 1<<20 + 4096} {
		for _, postFirst := range []bool{true, false} {
			name := fmt.Sprintf("%d B, post first %v", n, postFirst)
			switch c.Rank() {
			case from:
				if postFirst {
					if _, _, _, err := c.Recv(to, postTagGo); err != nil {
						return err
					}
				}
				for i := 0; i < msgs; i++ {
					if err := postedSend(c, to, n, i, i%2 == 1); err != nil {
						return err
					}
				}
				if !postFirst {
					if err := c.Send(to, postTagGo, nil); err != nil {
						return err
					}
				}
			case to:
				if !postFirst {
					// The go message follows the data on the same link; a
					// chunk-streamed message may still be arriving behind it.
					if _, _, _, err := c.Recv(from, postTagGo); err != nil {
						return err
					}
				}
				var posts [msgs]Posted
				var spans [msgs][]byte
				for i := range posts {
					spans[i] = make([]byte, n)
					if err := c.Post(&posts[i], from, postTagData, []Part{{Buf: spans[i]}}); err != nil {
						return err
					}
				}
				if postFirst {
					if err := c.Send(from, postTagGo, nil); err != nil {
						return err
					}
				}
				for i := range posts {
					data, landed, err := posts[i].Wait(nil)
					if err != nil {
						return fmt.Errorf("%s: wait %d: %w", name, i, err)
					}
					if want := w.lands(n, postFirst); landed != want {
						return fmt.Errorf("%s: post %d landed %v, want %v", name, i, landed, want)
					}
					if landed {
						data = spans[i]
					}
					if err := postedCheck(data, n, i); err != nil {
						return fmt.Errorf("%s: %w", name, err)
					}
					if !landed {
						PutBuffer(data)
					}
				}
			}
		}
	}
	return nil
}

// postedRevoke: a revoked post consumes nothing — the message it stood
// for arrives later and a plain Recv matches it.
func postedRevoke(c *Comm, from, to int) error {
	switch c.Rank() {
	case from:
		if _, _, _, err := c.Recv(to, postTagGo); err != nil {
			return err
		}
		return postedSend(c, to, 1<<10, 7, false)
	case to:
		var p Posted
		if err := c.Post(&p, from, postTagData, []Part{{Buf: make([]byte, 1<<10)}}); err != nil {
			return err
		}
		if p.Cancel() {
			return errors.New("revoking an open post reported a consumed message")
		}
		if err := c.Send(from, postTagGo, nil); err != nil {
			return err
		}
		data, _, _, err := c.Recv(from, postTagData)
		if err != nil {
			return fmt.Errorf("message behind a revoked post not matchable: %w", err)
		}
		defer PutBuffer(data)
		return postedCheck(data, 1<<10, 7)
	}
	return nil
}

// TestPostedRecv checks the posted-receive contract on every transport:
// posts and messages meet in either order, same-tag messages match FIFO,
// sub-communicators keep their own stream, a message — typed or plain —
// lands in the posted span exactly where the sender's send can claim it
// (bare inproc) or the shm consumer can copy it there (bare shm,
// unsequenced whole-message records), and afterwards the mailbox is empty
// on both queues.
func TestPostedRecv(t *testing.T) {
	for _, w := range postedWorlds() {
		t.Run(w.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			err := Launch(4, func(c *Comm) error {
				if err := postedExchange(c, 0, 3, w); err != nil {
					return err
				}
				if err := postedRevoke(c, 3, 0); err != nil {
					return err
				}
				sub, err := c.Split(c.Rank()%2, c.Rank())
				if err != nil {
					return err
				}
				if err := postedExchange(sub, 0, 1, w); err != nil {
					return fmt.Errorf("sub-communicator: %w", err)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				g := reg.Gauge("mpi_pending_messages", "", obs.RankLabel(c.Rank()))
				c.box.mu.Lock()
				queued, posted, depth := len(c.box.queue), len(c.box.posts), g.Value()
				c.box.mu.Unlock()
				if queued != 0 || posted != 0 || depth != int64(queued) {
					return fmt.Errorf("mailbox not drained: %d queued, %d posted, depth gauge %d", queued, posted, depth)
				}
				// Rank 0 sends on the world, ranks 0 and 1 on their halves;
				// rank 3 receives on the world, ranks 2 and 3 on the halves.
				// A landing counts on the receiving rank, whichever side
				// wrote the span.
				lands := c.Rank() >= 2 && (w.sendLands || w.delivers)
				if st := c.Traffic(); (st.MessagesLanded > 0) != lands {
					return fmt.Errorf("MessagesLanded = %d on a rank whose posts take landings: %v", st.MessagesLanded, lands)
				}
				return nil
			}, append(w.opts, WithTelemetry(reg, nil))...)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecvPostFIFO: a Recv is a post, so a Recv blocked before an Irecv
// is posted on the same (source, tag) takes the stream's first message
// and the Irecv the second, on every transport.
func TestRecvPostFIFO(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, _, _, err := c.Recv(1, postTagGo); err != nil {
				return err
			}
			if err := c.Send(1, postTagData, []byte("first")); err != nil {
				return err
			}
			return c.Send(1, postTagData, []byte("second"))
		}
		type result struct {
			data []byte
			err  error
		}
		blocked := make(chan result, 1)
		go func() {
			data, _, _, err := c.Recv(0, postTagData)
			blocked <- result{data, err}
		}()
		// Wait until the Recv has posted; a Recv that never does is still
		// blocked by the deadline, and the order check below holds it to
		// the same rule.
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			c.box.mu.Lock()
			posted := len(c.box.posts)
			c.box.mu.Unlock()
			if posted == 1 {
				break
			}
		}
		later := c.Irecv(0, postTagData)
		if err := c.Send(0, postTagGo, nil); err != nil {
			return err
		}
		first := <-blocked
		if first.err != nil {
			return first.err
		}
		second, _, _, err := later.Wait()
		if err != nil {
			return err
		}
		if string(first.data) != "first" || string(second) != "second" {
			return fmt.Errorf("blocked Recv got %q, later Irecv got %q", first.data, second)
		}
		PutBuffer(first.data)
		PutBuffer(second)
		return nil
	})
}

// TestPostedClaimBlocksRevoke: once a sender has claimed a post, Cancel
// cannot take the span away from under it — it returns only after the
// commit, with the bytes in place. The sender holds the claim the way the
// inproc typed send does, through the receiver's mailbox, but across a
// round trip.
func TestPostedClaimBlocksRevoke(t *testing.T) {
	const n = 4 << 10
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, _, _, err := c.Recv(1, postTagGo); err != nil {
				return err
			}
			box := c.tr.(*inprocTransport).w.boxes[1]
			id := envelope{ctx: c.ctx, src: 0, tag: postTagData}
			p, _ := box.claim(id, n, nil, nil)
			if p == nil {
				return errors.New("claim missed an open post")
			}
			if p, _ := box.claim(id, n, nil, nil); p != nil {
				return errors.New("one post claimed twice")
			}
			if err := c.Send(1, postTagGo, nil); err != nil {
				return err
			}
			// Hold the claim until the receiver has seen its Cancel block.
			if _, _, _, err := c.Recv(1, postTagGo); err != nil {
				return err
			}
			postedFill(p.parts[0].Buf, 5)
			box.commit(p, TraceContext{})
			return nil
		}
		span := make([]byte, n)
		var p Posted
		if err := c.Post(&p, 0, postTagData, []Part{{Buf: span}}); err != nil {
			return err
		}
		if err := c.Send(0, postTagGo, nil); err != nil {
			return err
		}
		if _, _, _, err := c.Recv(0, postTagGo); err != nil {
			return err
		}
		cancelled := make(chan bool)
		go func() { cancelled <- p.Cancel() }()
		select {
		case <-cancelled:
			return errors.New("Cancel returned while the post was claimed")
		case <-time.After(20 * time.Millisecond):
		}
		if err := c.Send(0, postTagGo, nil); err != nil {
			return err
		}
		if !<-cancelled {
			return errors.New("Cancel of a committed claim reported no message")
		}
		if st := c.Traffic(); st.MessagesRecv != 2 {
			// The go message and the landed one: a claim waited out counts.
			return fmt.Errorf("MessagesRecv = %d, want 2", st.MessagesRecv)
		}
		return postedCheck(span, n, 5)
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestPostedPeerLost: losing the source fails its open posts, and later
// ones at once, with ErrPeerLost; posts on other sources stay open.
func TestPostedPeerLost(t *testing.T) {
	err := Launch(3, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		var fromLost, late, other Posted
		if err := c.Post(&fromLost, 1, postTagData, []Part{{Buf: make([]byte, 8)}}); err != nil {
			return err
		}
		if err := c.Post(&other, 2, postTagData, nil); err != nil {
			return err
		}
		c.box.markLost(1, fmt.Errorf("test: rank 1 is gone: %w", ErrPeerLost))
		if _, _, err := fromLost.Wait(nil); !errors.Is(err, ErrPeerLost) {
			return fmt.Errorf("open post on a lost peer: got %v, want ErrPeerLost", err)
		}
		if err := c.Post(&late, 1, postTagData, nil); err != nil {
			return err
		}
		if _, _, err := late.Wait(nil); !errors.Is(err, ErrPeerLost) {
			return fmt.Errorf("post after the loss: got %v, want ErrPeerLost", err)
		}
		if other.Cancel() {
			return errors.New("post on a live peer was completed by another peer's loss")
		}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestPostedChunkStream drives the mailbox the way a chunking transport
// does — put pins a still-reassembling envelope, complete releases it —
// and checks the post binds at the pinned position in either order,
// survives a revoke and a dead stream, and keeps FIFO against a whole
// message queued behind the stream.
func TestPostedChunkStream(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		m := c.box
		stream := func(fill byte) (envelope, *chunkPending) {
			pd := &chunkPending{}
			data := GetBuffer(4)
			for i := range data {
				data[i] = fill
			}
			return envelope{ctx: c.ctx, src: 1, tag: postTagData, data: data, pend: pd}, pd
		}
		whole := func(fill byte) envelope {
			e, _ := stream(fill)
			e.pend = nil
			return e
		}
		expect := func(p *Posted, fill byte) error {
			data, landed, err := p.Wait(nil)
			if err != nil || landed || len(data) != 4 || data[0] != fill {
				return fmt.Errorf("got %v landed=%v err=%v, want four bytes of %d", data, landed, err, fill)
			}
			PutBuffer(data)
			return nil
		}
		var a, b Posted

		// Stream first: the post binds to it, a second post to the whole
		// message behind it, and neither completes before its turn.
		e, pd := stream(1)
		m.put(e)
		m.put(whole(2))
		if err := c.Post(&a, 1, postTagData, []Part{{Buf: make([]byte, 4)}}); err != nil {
			return err
		}
		if err := c.Post(&b, 1, postTagData, nil); err != nil {
			return err
		}
		if p, _ := m.claim(envelope{ctx: c.ctx, src: 1, tag: postTagData}, 4, nil, nil); p != nil {
			return errors.New("a bound post was claimable")
		}
		if err := expect(&b, 2); err != nil {
			return fmt.Errorf("post behind a stream: %w", err)
		}
		m.complete(pd)
		if err := expect(&a, 1); err != nil {
			return fmt.Errorf("post bound after its stream began: %w", err)
		}

		// Post first: the stream's first frame binds it.
		if err := c.Post(&a, 1, postTagData, nil); err != nil {
			return err
		}
		e, pd = stream(3)
		m.put(e)
		m.complete(pd)
		if err := expect(&a, 3); err != nil {
			return fmt.Errorf("post bound by an arriving stream: %w", err)
		}

		// Revoking a bound post passes the stream to the next post.
		e, pd = stream(4)
		m.put(e)
		if err := c.Post(&a, 1, postTagData, nil); err != nil {
			return err
		}
		if err := c.Post(&b, 1, postTagData, nil); err != nil {
			return err
		}
		if a.Cancel() {
			return errors.New("revoking a bound post reported a consumed message")
		}
		m.complete(pd)
		if err := expect(&b, 4); err != nil {
			return fmt.Errorf("post that inherited a stream: %w", err)
		}

		// A dead stream reopens its post ahead of younger ones.
		e, pd = stream(5)
		m.put(e)
		if err := c.Post(&a, 1, postTagData, nil); err != nil {
			return err
		}
		if err := c.Post(&b, 1, postTagData, nil); err != nil {
			return err
		}
		m.removePending(pd)
		m.put(whole(6))
		m.put(whole(7))
		if err := expect(&a, 6); err != nil {
			return fmt.Errorf("post reopened by a dead stream: %w", err)
		}
		if err := expect(&b, 7); err != nil {
			return fmt.Errorf("post behind a reopened one: %w", err)
		}

		// Revoked with nobody to inherit: the stream completes into the
		// queue and a plain Recv takes it.
		e, pd = stream(8)
		m.put(e)
		if err := c.Post(&a, 1, postTagData, nil); err != nil {
			return err
		}
		a.Cancel()
		m.complete(pd)
		data, _, _, err := c.Recv(1, postTagData)
		if err != nil || len(data) != 4 || data[0] != 8 {
			return fmt.Errorf("stream behind a revoked post: %v, %v", data, err)
		}
		PutBuffer(data)
		if len(m.queue) != 0 || len(m.posts) != 0 {
			return fmt.Errorf("mailbox not drained: %d queued, %d posted", len(m.queue), len(m.posts))
		}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}
