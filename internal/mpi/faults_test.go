package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// funcInjector adapts a closure to the FaultInjector interface for tests.
type funcInjector func(src, dst, tag int, seq uint64, attempt int) Fault

func (f funcInjector) FaultFor(src, dst, tag int, seq uint64, attempt int) Fault {
	return f(src, dst, tag, seq, attempt)
}

// chaosPingPong runs a fixed message exchange on both transports under
// the injector and verifies every payload arrives intact and in order.
func chaosPingPong(t *testing.T, inj FaultInjector) {
	t.Helper()
	const rounds = 20
	body := func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < rounds; i++ {
			want := []byte(fmt.Sprintf("msg-%d-from-%d", i, c.Rank()))
			if err := c.Send(peer, 7, want); err != nil {
				return err
			}
			data, _, _, err := c.Recv(peer, 7)
			if err != nil {
				return err
			}
			wantPeer := []byte(fmt.Sprintf("msg-%d-from-%d", i, peer))
			if !bytes.Equal(data, wantPeer) {
				return fmt.Errorf("round %d: got %q, want %q", i, data, wantPeer)
			}
			PutBuffer(data)
		}
		return nil
	}
	if err := Launch(2, body, WithFaultInjector(inj)); err != nil {
		t.Fatalf("inproc: %v", err)
	}
	if err := Launch(2, body, WithTCPOptions(DefaultTCPOptions()), WithFaultInjector(inj)); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

// TestChaosDropRetryDelivers: a message whose first attempts all drop
// must still be delivered by the engine's retry loop, on both transports.
func TestChaosDropRetryDelivers(t *testing.T) {
	before := FaultStatsSnapshot()
	chaosPingPong(t, funcInjector(func(_, _, _ int, _ uint64, attempt int) Fault {
		return Fault{Drop: attempt < 2}
	}))
	after := FaultStatsSnapshot()
	if got := after.Retries - before.Retries; got == 0 {
		t.Error("no retries recorded")
	}
	if got := after.Failed - before.Failed; got != 0 {
		t.Errorf("%d links declared failed under a recoverable schedule", got)
	}
}

// TestChaosDuplicateDeduped: duplicating every message must not change
// what the receiver observes — the dedupe layers (mailbox sequence window
// in-process, frame sequence numbers on TCP) discard the copies.
func TestChaosDuplicateDeduped(t *testing.T) {
	before := FaultStatsSnapshot()
	chaosPingPong(t, funcInjector(func(_, _, _ int, _ uint64, _ int) Fault {
		return Fault{Duplicate: true}
	}))
	after := FaultStatsSnapshot()
	if got := after.Duplicates - before.Duplicates; got == 0 {
		t.Error("no duplicates recorded")
	}
}

// TestChaosDelayAndReorderDeliver: delays and cross-tag reordering are
// shape faults — everything still arrives, per-tag order preserved.
func TestChaosDelayAndReorderDeliver(t *testing.T) {
	chaosPingPong(t, funcInjector(func(_, _, _ int, seq uint64, _ int) Fault {
		return Fault{
			Delay:   time.Duration(seq%3) * 100 * time.Microsecond,
			Reorder: seq%4 == 0,
		}
	}))
}

// TestChaosSeverFailsReceiver: cutting the 0->1 link makes rank 1's
// receive fail with ErrPeerLost instead of hanging, on both transports.
// The reverse direction keeps working.
func TestChaosSeverFailsReceiver(t *testing.T) {
	inj := funcInjector(func(src, dst, _ int, _ uint64, _ int) Fault {
		return Fault{Sever: src == 0 && dst == 1}
	})
	body := func(c *Comm) error {
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
	}
	if err := Launch(2, body, WithFaultInjector(inj)); err != nil {
		t.Fatalf("inproc: %v", err)
	}
	if err := Launch(2, body, WithTCPOptions(DefaultTCPOptions()), WithFaultInjector(inj)); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

// TestChaosRetriesExhaustedSeversLink: a message that drops on every
// attempt exhausts the bounded retry budget and fails the link with
// ErrPeerLost rather than spinning forever.
func TestChaosRetriesExhaustedSeversLink(t *testing.T) {
	inj := funcInjector(func(src, dst, _ int, _ uint64, _ int) Fault {
		return Fault{Drop: src == 0 && dst == 1}
	})
	before := FaultStatsSnapshot()
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("black hole"))
		}
		_, _, _, err := c.Recv(0, 7)
		if !errors.Is(err, ErrPeerLost) {
			return fmt.Errorf("got %v, want ErrPeerLost", err)
		}
		return nil
	}, WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	after := FaultStatsSnapshot()
	if got := after.Failed - before.Failed; got == 0 {
		t.Error("no exhausted-retry link failure recorded")
	}
}

// TestRecvCtxTimeout: a receive with an expiring context fails with
// ErrExchangeTimeout instead of blocking forever.
func TestRecvCtxTimeout(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil // never sends
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, _, _, err := c.RecvCtx(ctx, 1, 7)
		if !errors.Is(err, ErrExchangeTimeout) {
			return fmt.Errorf("got %v, want ErrExchangeTimeout", err)
		}
		if el := time.Since(start); el > 5*time.Second {
			return fmt.Errorf("timed out only after %v", el)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendTypedExpired: a send under an already-expired context fails with
// ErrExchangeTimeout without touching the wire.
func TestSendTypedExpired(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.SendTyped(ctx, 1, 7, []Part{{Buf: []byte("too late")}}, nil); !errors.Is(err, ErrExchangeTimeout) {
			return fmt.Errorf("got %v, want ErrExchangeTimeout", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosNoGoroutineLeaks: worlds torn down under heavy chaos must not
// strand link workers, writers, or watchers.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := funcInjector(func(_, _, _ int, seq uint64, attempt int) Fault {
		return Fault{
			Drop:      seq%5 == 0 && attempt == 0,
			Duplicate: seq%3 == 0,
			Delay:     time.Duration(seq%2) * 200 * time.Microsecond,
			Sever:     seq > 40,
		}
	})
	for i := 0; i < 5; i++ {
		body := func(c *Comm) error {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for j := 0; j < 60; j++ {
				c.Send(next, 7, []byte("x")) //nolint:errcheck // sever expected
				// Ranks break at different points once links start dying, so
				// a peer may stop sending before its link severs: bound the
				// wait instead of relying on loss notification alone.
				if data, _, _, err := c.RecvCtx(ctx, prev, 7); err == nil {
					PutBuffer(data)
				} else {
					break
				}
			}
			return nil
		}
		Launch(3, body, WithFaultInjector(inj))                                      //nolint:errcheck // fault outcomes vary
		Launch(3, body, WithTCPOptions(DefaultTCPOptions()), WithFaultInjector(inj)) //nolint:errcheck // fault outcomes vary
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, started with %d\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
