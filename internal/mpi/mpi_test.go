package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// runInProc and runTCP give Launch the (n, body) shape the transport
// tables and benchmarks pass around.
func runInProc(n int, body func(c *Comm) error) error { return Launch(n, body) }

func runTCP(n int, body func(c *Comm) error) error {
	return Launch(n, body, WithTransport(TransportTCP))
}

// transports enumerates the two runtime flavours so every behaviour is
// verified over shared memory and over real sockets.
var transports = []struct {
	name string
	run  func(n int, body func(c *Comm) error) error
}{
	{"inproc", runInProc},
	{"tcp", runTCP},
	{"shm", RunShm},
	{"hier", func(n int, body func(c *Comm) error) error {
		// Two ranks per node exercises every hierarchical leg (self, shm
		// sibling, leader relay, leader-to-leader) in every world size.
		return RunHier(n, NodesOf(n, (n+1)/2), body)
	}},
}

func forEachTransport(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.run(n, body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendOwned sends arena-backed buffers on every transport — below
// and above the chunk-streaming thresholds, with and without a context
// (which makes tcp hand over an arena wire of its own instead of lending),
// to a sibling and (hier) across the leader relay — recycling each into
// the arena the moment SendTyped returns, and checks each arrives
// byte-identical, in order, while the sender goes straight on to reuse
// the arena.
func TestSendOwned(t *testing.T) {
	sizes := []int{0, 100, 4096, 300 << 10, 2 << 20}
	pattern := func(n, salt int) []byte {
		b := GetBuffer(n)
		for i := range b {
			b[i] = byte(i*7 + salt)
		}
		return b
	}
	forEachTransport(t, 4, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			for i, n := range sizes {
				for _, dst := range []int{1, 3} {
					var ctx context.Context
					if i%2 == 1 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithCancel(context.Background())
						defer cancel()
					}
					b := pattern(n, dst)
					if err := c.SendTyped(ctx, dst, 5, []Part{{Buf: b}}, nil); err != nil {
						return err
					}
					// The buffer is the sender's again; whatever the arena
					// hands out next must not disturb the message in flight.
					PutBuffer(b)
					PutBuffer(pattern(n, 99))
				}
			}
			if err := c.SendTyped(nil, 1, -3, []Part{{Buf: GetBuffer(8)}}, nil); err == nil {
				return errors.New("reserved tag accepted")
			}
		case 1, 3:
			for _, n := range sizes {
				got, from, tag, err := c.Recv(0, 5)
				if err != nil {
					return err
				}
				want := pattern(n, c.Rank())
				if from != 0 || tag != 5 || !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: %d-byte owned payload arrived as %d bytes from %d tag %d, equal=%v",
						c.Rank(), n, len(got), from, tag, bytes.Equal(got, want))
				}
				PutBuffer(want)
				PutBuffer(got)
			}
		}
		return nil
	})
}

func TestRunValidation(t *testing.T) {
	if err := Launch(0, func(*Comm) error { return nil }); err == nil {
		t.Error("world size 0 accepted")
	}
	if err := Launch(-1, func(*Comm) error { return nil }, WithTransport(TransportTCP)); err == nil {
		t.Error("negative TCP world size accepted")
	}
}

func TestSendRecvPingPong(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("ping")); err != nil {
				return err
			}
			data, from, tag, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if string(data) != "pong" || from != 1 || tag != 8 {
				return fmt.Errorf("got %q from %d tag %d", data, from, tag)
			}
		} else {
			data, _, _, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "ping" {
				return fmt.Errorf("got %q", data)
			}
			return c.Send(0, 8, []byte("pong"))
		}
		return nil
	})
}

func TestSendBufferReusableImmediately(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the delivered message
			return c.Send(1, 1, buf)
		}
		first, _, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if first[0] != 1 {
			return fmt.Errorf("send aliased caller buffer: %v", first)
		}
		_, _, _, err = c.Recv(0, 1)
		return err
	})
}

func TestRecvWildcards(t *testing.T) {
	forEachTransport(t, 3, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 10+c.Rank(), []byte{byte(c.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, from, tag, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(data[0]) != from || tag != 10+from {
				return fmt.Errorf("mismatched wildcard receive: %v %d %d", data, from, tag)
			}
			seen[from] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		return nil
	})
}

func TestPerPairOrdering(t *testing.T) {
	const msgs = 100
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
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
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order as %d", i, data[0])
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte("five")); err != nil {
				return err
			}
			return c.Send(1, 4, []byte("four"))
		}
		// Receive tag 4 first even though tag 5 arrived first.
		data, _, _, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if string(data) != "four" {
			return fmt.Errorf("tag 4 returned %q", data)
		}
		data, _, _, err = c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "five" {
			return fmt.Errorf("tag 5 returned %q", data)
		}
		return nil
	})
}

func TestSendValidation(t *testing.T) {
	err := Launch(1, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("out-of-range destination accepted")
		}
		if err := c.Send(0, -3, nil); err == nil {
			return errors.New("negative tag accepted")
		}
		if _, _, _, err := c.Recv(9, 0); err == nil {
			return errors.New("out-of-range source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		n := c.Size()
		reqs := make([]*Request, 0, n-1)
		for dst := 0; dst < n; dst++ {
			if dst == c.Rank() {
				continue
			}
			reqs = append(reqs, c.Isend(dst, 1, []byte{byte(c.Rank())}))
		}
		recvs := make([]*Request, 0, n-1)
		for src := 0; src < n; src++ {
			if src == c.Rank() {
				continue
			}
			recvs = append(recvs, c.Irecv(src, 1))
		}
		if err := WaitAll(reqs...); err != nil {
			return err
		}
		for _, r := range recvs {
			data, from, _, err := r.Wait()
			if err != nil {
				return err
			}
			if int(data[0]) != from {
				return fmt.Errorf("payload %d from %d", data[0], from)
			}
		}
		return nil
	})
}

func TestBarrierPhases(t *testing.T) {
	// No rank may pass the barrier while another rank has yet to enter it.
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var entered atomic.Int32
			err := tr.run(5, func(c *Comm) error {
				entered.Add(1)
				if err := c.Barrier(); err != nil {
					return err
				}
				if got := entered.Load(); got != 5 {
					return fmt.Errorf("passed barrier with only %d ranks entered", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		forEachTransport(t, n, func(c *Comm) error {
			for root := 0; root < c.Size(); root++ {
				var payload []byte
				if c.Rank() == root {
					payload = bytes.Repeat([]byte{byte(root + 1)}, 1000*root+1)
				}
				got, err := c.Bcast(root, payload)
				if err != nil {
					return err
				}
				if len(got) != 1000*root+1 || got[0] != byte(root+1) {
					return fmt.Errorf("root %d: got %d bytes first=%d", root, len(got), got[0])
				}
			}
			return nil
		})
	}
}

func TestGatherAndAllgather(t *testing.T) {
	forEachTransport(t, 6, func(c *Comm) error {
		mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
		parts, err := c.Gather(2, mine)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for r, p := range parts {
				if len(p) != r+1 || (r > 0 && p[0] != byte(r)) {
					return fmt.Errorf("gather rank %d: %v", r, p)
				}
			}
		} else if parts != nil {
			return errors.New("non-root received gather data")
		}
		all, err := c.Allgather(mine)
		if err != nil {
			return err
		}
		for r, p := range all {
			if len(p) != r+1 {
				return fmt.Errorf("allgather rank %d: %d bytes", r, len(p))
			}
		}
		return nil
	})
}

func TestAllreduce(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		r := float64(c.Rank())
		sum, err := c.AllreduceFloat64([]float64{r, 2 * r}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 6 || sum[1] != 12 {
			return fmt.Errorf("sum = %v", sum)
		}
		mn, err := c.AllreduceFloat64([]float64{r}, OpMin)
		if err != nil {
			return err
		}
		if mn[0] != 0 {
			return fmt.Errorf("min = %v", mn)
		}
		mx, err := c.AllreduceInt64([]int64{int64(c.Rank())}, OpMax)
		if err != nil {
			return err
		}
		if mx[0] != 3 {
			return fmt.Errorf("max = %v", mx)
		}
		return nil
	})
}

func TestAllreduceInt64RangeGuard(t *testing.T) {
	err := Launch(1, func(c *Comm) error {
		_, err := c.AllreduceInt64([]int64{1 << 60}, OpSum)
		if err == nil {
			return errors.New("out-of-range int64 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		send := make([][]byte, c.Size())
		for dst := range send {
			send[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		recv, err := c.Alltoallv(send)
		if err != nil {
			return err
		}
		for src, p := range recv {
			if len(p) != 2 || int(p[0]) != src || int(p[1]) != c.Rank() {
				return fmt.Errorf("from %d: %v", src, p)
			}
		}
		return nil
	})
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			err := tr.run(3, func(c *Comm) error {
				if c.Rank() == 1 {
					return boom
				}
				// These ranks block forever unless the failure unblocks them.
				_, _, _, err := c.Recv(1, 0)
				return err
			})
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("error not propagated: %v", err)
			}
		})
	}
}

func TestWorldRank(t *testing.T) {
	err := Launch(3, func(c *Comm) error {
		if c.WorldRank(c.Rank()) != c.Rank() {
			return fmt.Errorf("world rank mismatch for %d", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
