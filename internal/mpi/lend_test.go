package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Lent sends (Comm.Lend): on bare inproc a typed send that finds no open
// post waits in the receiver's mailbox by reference to the sender's parts
// until a receive takes it or the sender settles. The two ranks of these
// tests order themselves through Go channels, not messages, so no receive
// opens early by accident. Every source is typedFill's closed-form
// pattern; every receiver compares with Unpack of its packed bytes.

const lendTag = 9

// lendShape is one message of postShapes: the sender's filled parts, the
// receiver's poisoned parts of the same shape, the packed bytes and what
// the receiver's parts must hold once the message is in them.
type lendShape struct {
	name         string
	sent, posted []Part
	want         []byte
	expect       []Part
}

func lendShapes() []lendShape {
	var out []lendShape
	for i, sh := range postShapes() {
		salt := i
		s := lendShape{name: sh.name}
		s.sent = sh.build(func(n int) []byte { salt++; return typedFill(make([]byte, n), salt) })
		s.posted = sh.build(func(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) })
		s.want = packedOf(s.sent)
		s.expect = make([]Part, len(s.posted))
		for j, p := range s.posted {
			s.expect[j] = Part{T: p.T, Buf: bytes.Clone(p.Buf)}
		}
		unpackParts(s.want, s.expect)
		out = append(out, s)
	}
	return out
}

// scribbleParts overwrites every buffer the parts name.
func scribbleParts(parts []Part) {
	for _, p := range parts {
		for i := range p.Buf {
			p.Buf[i] = ^p.Buf[i]
		}
	}
}

// checkLendRecv checks what a receive of s got: the posted parts when it
// landed, a payload of the packed bytes otherwise.
func checkLendRecv(s *lendShape, data []byte, landed bool) error {
	if landed {
		for i := range s.posted {
			if !bytes.Equal(s.posted[i].Buf, s.expect[i].Buf) {
				return fmt.Errorf("%s: landed part %d differs from Unpack of the packed message", s.name, i)
			}
		}
		return nil
	}
	if !bytes.Equal(data, s.want) {
		return fmt.Errorf("%s: payload differs from the packed message", s.name)
	}
	PutBuffer(data)
	return nil
}

// lendReceive receives s from rank 0 the way named: a post of exactly the
// message's size, Recv, Irecv, or a post eight bytes too large.
func lendReceive(c *Comm, how string, s *lendShape) (data []byte, landed bool, err error) {
	switch how {
	case "post":
		var p Posted
		if err := c.Post(&p, 0, lendTag, s.posted); err != nil {
			return nil, false, err
		}
		return p.Wait(nil)
	case "recv":
		data, _, _, err = c.Recv(0, lendTag)
		return data, false, err
	case "irecv":
		data, _, _, err = c.Irecv(0, lendTag).Wait()
		return data, false, err
	default: // "post-larger"
		var p Posted
		if err := c.Post(&p, 0, lendTag, []Part{{Buf: make([]byte, len(s.want)+8)}}); err != nil {
			return nil, false, err
		}
		return p.Wait(nil)
	}
}

// TestLendLandsWhenReceiverPostsLate: rank 1 receives only after rank 0's
// Lend returned. A post of exactly the message's size copies it straight
// from the sender's parts — landed, counted in MessagesLanded, with no
// arena wire drawn on the sender's meter and no payload — and Recv, Irecv
// or a post of another size get the packed bytes as an arena payload.
// Rank 0 settles only after rank 1 has the message, so Settle finds it
// taken.
func TestLendLandsWhenReceiverPostsLate(t *testing.T) {
	sent, recvd := make(chan struct{}), make(chan struct{})
	err := Launch(2, func(c *Comm) error {
		for _, how := range []string{"post", "recv", "irecv", "post-larger"} {
			for _, s := range lendShapes() {
				if c.Rank() == 0 {
					var l Loan
					var meter StagingMeter
					if err := c.Lend(&l, nil, 1, lendTag, s.sent, &meter); err != nil {
						return err
					}
					sent <- struct{}{}
					<-recvd
					l.Settle()
					if peak := meter.Peak(); peak != 0 {
						return fmt.Errorf("%s, %s: the send drew a %d-byte arena wire", how, s.name, peak)
					}
					continue
				}
				<-sent
				before := c.Traffic().MessagesLanded
				data, landed, err := lendReceive(c, how, &s)
				if err != nil {
					return err
				}
				if want := how == "post"; landed != want || (landed && data != nil) {
					return fmt.Errorf("%s, %s: landed %v with a %d-byte payload, want landed %v", how, s.name, landed, len(data), want)
				}
				want := int64(0)
				if landed {
					want = 1
				}
				if got := c.Traffic().MessagesLanded - before; got != want {
					return fmt.Errorf("%s, %s: MessagesLanded rose by %d, want %d", how, s.name, got, want)
				}
				if err := checkLendRecv(&s, data, landed); err != nil {
					return fmt.Errorf("%s: %w", how, err)
				}
				recvd <- struct{}{}
			}
		}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestLendSettleBeforeReceive: rank 0 settles before rank 1 receives, and
// overwrites its sources right after, while rank 1 receives. Settle packed
// the message where it waits, into one arena wire charged to the meter
// and released, so the receive gets the original bytes as a payload; a
// receive still reading the sources would race with the scribble, which
// the race detector reports.
func TestLendSettleBeforeReceive(t *testing.T) {
	settled := make(chan struct{})
	err := Launch(2, func(c *Comm) error {
		for _, how := range []string{"post", "recv"} {
			for _, s := range lendShapes() {
				if c.Rank() == 0 {
					var l Loan
					var meter StagingMeter
					if err := c.Lend(&l, nil, 1, lendTag, s.sent, &meter); err != nil {
						return err
					}
					l.Settle()
					settled <- struct{}{}
					scribbleParts(s.sent)
					if peak, cur := meter.Peak(), meter.Current(); peak != int64(BufferClassSize(len(s.want))) || cur != 0 {
						return fmt.Errorf("%s: settle charged peak %d, holds %d; want one %d-byte wire, released", s.name, peak, cur, BufferClassSize(len(s.want)))
					}
					continue
				}
				<-settled
				data, landed, err := lendReceive(c, how, &s)
				if err != nil {
					return err
				}
				if landed {
					return fmt.Errorf("%s, %s: a settled message landed", how, s.name)
				}
				if err := checkLendRecv(&s, data, false); err != nil {
					return fmt.Errorf("%s: %w", how, err)
				}
			}
		}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestLendSettleRacesPost: rank 1 posts while rank 0 settles and then at
// once overwrites its sources, with nothing ordering the two. Whichever
// comes first — the post copying from the sources, or Settle packing them
// where the message waits — the post gets the original bytes, and Settle
// returns only once nobody reads the sources any more.
func TestLendSettleRacesPost(t *testing.T) {
	const rounds = 100
	lent := make(chan struct{})
	err := Launch(2, func(c *Comm) error {
		shapes := lendShapes()
		for i := 0; i < rounds; i++ {
			s := &shapes[i%len(shapes)]
			if c.Rank() == 0 {
				typedFillParts(s.sent, i%len(shapes))
				var l Loan
				if err := c.Lend(&l, nil, 1, lendTag, s.sent, nil); err != nil {
					return err
				}
				lent <- struct{}{}
				l.Settle()
				scribbleParts(s.sent)
				continue
			}
			<-lent
			data, landed, err := lendReceive(c, "post", s)
			if err != nil {
				return err
			}
			if err := checkLendRecv(s, data, landed); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// typedFillParts refills sources scribbled by an earlier round with the
// pattern lendShapes gave them: shape i's buffers take salts i+1, i+2, ….
func typedFillParts(parts []Part, i int) {
	for j, p := range parts {
		typedFill(p.Buf, i+1+j)
	}
}

// TestLendFIFO: lent messages take their place in the receiver's queue
// among plain and typed sends of the same tag, and receives of every kind
// match them in send order.
func TestLendFIFO(t *testing.T) {
	sent, recvd := make(chan struct{}), make(chan struct{})
	err := Launch(2, func(c *Comm) error {
		shapes := lendShapes()
		s := &shapes[0]
		var loans [2]Loan
		if c.Rank() == 0 {
			steps := []func() error{
				func() error { return c.Send(1, lendTag, s.want) },
				func() error { return c.Lend(&loans[0], nil, 1, lendTag, s.sent, nil) },
				func() error { return c.SendTyped(nil, 1, lendTag, s.sent, nil) },
				func() error { return c.Lend(&loans[1], nil, 1, lendTag, s.sent, nil) },
			}
			for i, step := range steps {
				typedFillParts(s.sent, i)
				if err := step(); err != nil {
					return err
				}
				if i == 1 {
					// The lent message must carry these bytes, not the next
					// step's refill: settle it first.
					loans[0].Settle()
				}
			}
			sent <- struct{}{}
			<-recvd
			loans[1].Settle()
			return nil
		}
		<-sent
		for i, how := range []string{"recv", "post", "irecv", "post"} {
			// Message i carries shape 0 refilled for i, as rank 0 sent it.
			typedFillParts(s.sent, i)
			s.want = packedOf(s.sent)
			unpackParts(s.want, s.expect)
			data, landed, err := lendReceive(c, how, s)
			if err != nil {
				return err
			}
			if err := checkLendRecv(s, data, landed); err != nil {
				return fmt.Errorf("message %d (%s): %w", i, how, err)
			}
		}
		recvd <- struct{}{}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestLaunchReportsUnsettledLoan: a rank that returns with a message still
// lent fails the world, and the report names the message.
func TestLaunchReportsUnsettledLoan(t *testing.T) {
	var l Loan
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		return c.Lend(&l, nil, 1, lendTag, []Part{{Buf: typedFill(make([]byte, 64), 1)}}, nil)
	}, WithFaultInjector(nil))
	if err == nil || !strings.Contains(err.Error(), "still lent") {
		t.Fatalf("Launch returned %v, want a message still lent", err)
	}
}

// TestLendElsewhereIsSendTyped: behind a fault injector, on tcp and on shm
// nothing is ever lent — Lend sends as SendTyped does, and Settle has
// nothing to do — so the sources may be overwritten once Lend returned.
func TestLendElsewhereIsSendTyped(t *testing.T) {
	noop := funcInjector(func(src, dst, tag int, seq uint64, attempt int) Fault { return Fault{} })
	worlds := map[string][]LaunchOption{
		"inproc+injector": {WithFaultInjector(noop)},
		"tcp":             {WithTransport(TransportTCP), WithFaultInjector(nil)},
		"shm":             {WithTransport(TransportShm), WithFaultInjector(nil)},
	}
	for name, opts := range worlds {
		t.Run(name, func(t *testing.T) {
			err := Launch(2, func(c *Comm) error {
				for _, s := range lendShapes() {
					if c.Rank() == 0 {
						var l Loan
						if err := c.Lend(&l, nil, 1, lendTag, s.sent, nil); err != nil {
							return err
						}
						if l.box != nil {
							return fmt.Errorf("%s: lent on %s", s.name, name)
						}
						scribbleParts(s.sent)
						l.Settle()
						continue
					}
					data, _, _, err := c.Recv(0, lendTag)
					if err != nil {
						return err
					}
					if err := checkLendRecv(&s, data, false); err != nil {
						return err
					}
				}
				return nil
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLendUnsettledTwice: Lend refuses a loan whose message is still lent.
func TestLendUnsettledTwice(t *testing.T) {
	sent := make(chan struct{})
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 1 {
			<-sent
			data, _, _, err := c.Recv(0, lendTag)
			PutBuffer(data)
			return err
		}
		var l Loan
		parts := []Part{{Buf: typedFill(make([]byte, 64), 1)}}
		if err := c.Lend(&l, nil, 1, lendTag, parts, nil); err != nil {
			return err
		}
		err := c.Lend(&l, nil, 1, lendTag, parts, nil)
		l.Settle()
		close(sent)
		if err == nil {
			return errors.New("a second Lend on an unsettled loan succeeded")
		}
		return nil
	}, WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}
