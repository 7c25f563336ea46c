package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ddr/internal/obs"
)

func TestBufferPoolClasses(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 4096, 1 << 20, 1 << 24, (1 << 26)} {
		b := GetBuffer(n)
		if len(b) != n {
			t.Fatalf("GetBuffer(%d) has len %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 {
			t.Fatalf("GetBuffer(%d) cap %d is not a class size", n, c)
		}
		PutBuffer(b)
	}
	// Above the largest class the allocator takes over.
	big := GetBuffer(1<<26 + 1)
	if len(big) != 1<<26+1 {
		t.Fatalf("oversized GetBuffer has len %d", len(big))
	}
	PutBuffer(big) // silently dropped, must not panic
	// Arbitrary odd-capacity slices are dropped, not corrupted.
	PutBuffer(make([]byte, 300))
	PutBuffer(nil)
	if b := GetBuffer(0); len(b) != 0 {
		t.Fatalf("GetBuffer(0) has len %d", len(b))
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer(1000)
	b[0] = 42
	base := &b[:cap(b)][0]
	PutBuffer(b)
	c := GetBuffer(900) // same class (1024)
	if &c[:cap(c)][0] != base {
		t.Skip("pool did not return the same buffer (GC ran); nothing to assert")
	}
	if cap(c) != 1024 || len(c) != 900 {
		t.Fatalf("recycled buffer len %d cap %d", len(c), cap(c))
	}
}

// TestBufferClassSize pins the class-rounding contract memory-budget
// accounting depends on: the reported size is exactly the capacity
// GetBuffer hands out for the same request.
func TestBufferClassSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-5, 0},
		{1, 256}, {255, 256}, {256, 256}, {257, 512},
		{1000, 1024}, {1 << 20, 1 << 20}, {1<<20 + 1, 2 << 20},
		{1 << 26, 1 << 26}, {1<<26 + 1, 1<<26 + 1}, // beyond the top class: allocator, exact
	}
	for _, c := range cases {
		if got := BufferClassSize(c.n); got != c.want {
			t.Errorf("BufferClassSize(%d) = %d, want %d", c.n, got, c.want)
		}
		if c.n <= 0 {
			continue
		}
		b := GetBuffer(c.n)
		if cap(b) != c.want {
			t.Errorf("GetBuffer(%d) cap %d, BufferClassSize says %d", c.n, cap(b), c.want)
		}
		PutBuffer(b)
	}
}

// TestStagingMeter covers the live accounting hook of the bounded
// exchange: charge/release bookkeeping, the high-water mark, ResetPeak
// rebasing, metered Get/Put charging full class capacity, and nil
// safety.
func TestStagingMeter(t *testing.T) {
	var m StagingMeter
	m.Acquire(100)
	m.Acquire(50)
	if cur, peak := m.Current(), m.Peak(); cur != 150 || peak != 150 {
		t.Fatalf("cur=%d peak=%d, want 150/150", cur, peak)
	}
	m.Release(100)
	if cur, peak := m.Current(), m.Peak(); cur != 50 || peak != 150 {
		t.Fatalf("after release: cur=%d peak=%d, want 50/150", cur, peak)
	}
	m.ResetPeak()
	if peak := m.Peak(); peak != 50 {
		t.Fatalf("peak after reset = %d, want 50", peak)
	}
	b := GetBufferMetered(300, &m) // class 512
	if cur := m.Current(); cur != 50+512 {
		t.Fatalf("metered get charges %d, want class capacity 512", cur-50)
	}
	m.Release(cap(b))
	PutBuffer(b)
	if cur, peak := m.Current(), m.Peak(); cur != 50 || peak != 562 {
		t.Fatalf("after metered put: cur=%d peak=%d, want 50/562", cur, peak)
	}

	// Concurrent acquire/release never loses a peak raise.
	var c StagingMeter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Acquire(64)
				c.Release(64)
			}
		}()
	}
	wg.Wait()
	if cur := c.Current(); cur != 0 {
		t.Fatalf("concurrent balance = %d, want 0", cur)
	}
	if peak := c.Peak(); peak < 64 || peak > 8*64 {
		t.Fatalf("concurrent peak = %d, want within [64, 512]", peak)
	}

	var nilM *StagingMeter
	nilM.Acquire(10)
	nilM.Release(10)
	nilM.ResetPeak()
	if nilM.Current() != 0 || nilM.Peak() != 0 {
		t.Fatal("nil meter must read zero")
	}
	nb := GetBufferMetered(100, nil)
	nilM.Release(cap(nb))
	PutBuffer(nb)
}

func TestWaitCtxCancel(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 1 {
			// Give rank 0 time to cancel, then satisfy the abandoned
			// receive so the world drains cleanly.
			time.Sleep(100 * time.Millisecond)
			return c.Send(0, 7, []byte("late"))
		}
		req := c.Irecv(1, 7)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, _, _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("got %v, want context.DeadlineExceeded", err)
		}
		// Cancellation released the mailbox slot without consuming the
		// message: the late send stays matchable by a fresh Recv.
		data, from, tag, err := c.Recv(1, 7)
		if err != nil {
			return err
		}
		if string(data) != "late" || from != 1 || tag != 7 {
			return fmt.Errorf("late message resolved to %q from %d tag %d", data, from, tag)
		}
		PutBuffer(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitCtxNilAndDone(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 9, []byte{1, 2, 3})
		}
		req := c.Irecv(1, 9)
		data, _, _, err := req.WaitCtx(nil)
		if err != nil {
			return err
		}
		if len(data) != 3 {
			return fmt.Errorf("got %d bytes", len(data))
		}
		// With both the request and the cancellation ready, either outcome
		// is legal; anything else is a bug.
		done := c.Isend(1, 9, nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, _, err := done.WaitCtx(ctx); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitCtxAbandonAccounting is the regression test for the WaitCtx
// abandonment leak: a cancelled wait used to pin its mailbox slot
// forever, so the late message could never be matched and the pending
// depth grew without bound. After many abandon-then-drain cycles the
// mailbox must be empty and the depth gauge back at zero.
func TestWaitCtxAbandonAccounting(t *testing.T) {
	const cycles = 50
	reg := obs.NewRegistry()
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < cycles; i++ {
				if _, _, _, err := c.Recv(0, 1); err != nil {
					return err
				}
				if err := c.Send(0, 7, []byte("late")); err != nil {
					return err
				}
			}
			return nil
		}
		g := reg.Gauge("mpi_pending_messages", "", obs.RankLabel(c.Rank()))
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < cycles; i++ {
			// No message can be in flight yet, so the abandoned wait always
			// cancels rather than matching.
			req := c.Irecv(1, 7)
			if _, _, _, err := req.WaitCtx(cancelled); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("cycle %d: got %v, want context.Canceled", i, err)
			}
			if err := c.Send(1, 1, nil); err != nil {
				return err
			}
			data, _, _, err := c.Recv(1, 7)
			if err != nil {
				return fmt.Errorf("cycle %d: late message not matchable: %w", i, err)
			}
			PutBuffer(data)
		}
		if v := g.Value(); v != 0 {
			return fmt.Errorf("depth gauge reads %d after drain, want 0", v)
		}
		c.box.mu.Lock()
		n := len(c.box.queue)
		c.box.mu.Unlock()
		if n != 0 {
			return fmt.Errorf("%d envelopes still queued after drain", n)
		}
		return nil
	}, WithTelemetry(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
}
