package mpi

import (
	"testing"
	"time"

	"ddr/internal/trace"
)

// TestGatherTraceClockCorrection gives each rank a recorder whose
// timebase is deliberately skewed and checks that the ping-pong offset
// estimation recovers the skew, so merged spans land on rank 0's
// timebase.
func TestGatherTraceClockCorrection(t *testing.T) {
	const n = 4
	// Rank r's recorder runs ahead of rank 0's by skew[r].
	skew := []time.Duration{0, 50 * time.Millisecond, -20 * time.Millisecond, 300 * time.Millisecond}
	var got *MergedTrace
	err := Launch(n, func(c *Comm) error {
		rank := c.Rank()
		rec := trace.NewRecorderAt(time.Now().Add(-skew[rank]))
		// One span per rank, stamped "now" in the rank's own skewed
		// timebase.
		rec.Add(trace.Event{Rank: rank, Name: "work", Start: rec.Now(), Dur: time.Millisecond})
		merged, err := GatherTrace(c, rec)
		if err != nil {
			return err
		}
		if rank == 0 {
			got = merged
		} else if merged != nil {
			t.Errorf("rank %d got a non-nil merge result", rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("rank 0 got no merged trace")
	}
	if len(got.Events) != n {
		t.Fatalf("merged %d events, want %d", len(got.Events), n)
	}
	// In-process ping-pongs finish in microseconds; allow a generous
	// margin for scheduler noise.
	const tol = 10 * time.Millisecond
	for r := 1; r < n; r++ {
		if diff := got.Offsets[r] - skew[r]; diff < -tol || diff > tol {
			t.Errorf("rank %d offset = %v, want %v ± %v (rtt %v)", r, got.Offsets[r], skew[r], tol, got.RTTs[r])
		}
	}
	// After correction every rank's span start sits near rank 0's: the
	// uncorrected rank-3 start would be ~300ms off.
	var base time.Duration
	for _, e := range got.Events {
		if e.Rank == 0 {
			base = e.Start
		}
	}
	for _, e := range got.Events {
		if diff := e.Start - base; diff < -tol || diff > tol {
			t.Errorf("rank %d corrected start %v is %v from rank 0's %v", e.Rank, e.Start, diff, base)
		}
	}
}

// A shared recorder (the in-process worlds share one) must not
// double-count: each rank contributes only its own lane.
func TestGatherTraceSharedRecorder(t *testing.T) {
	const n = 3
	rec := trace.NewRecorder()
	var got *MergedTrace
	err := Launch(n, func(c *Comm) error {
		rec.Add(trace.Event{Rank: c.Rank(), Name: "lane", Start: time.Duration(c.Rank()) * time.Microsecond})
		if err := c.Barrier(); err != nil {
			return err
		}
		merged, err := GatherTrace(c, rec)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = merged
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Events) != n {
		t.Fatalf("merged events = %+v, want exactly %d (one per rank)", got, n)
	}
	seen := map[int]int{}
	for _, e := range got.Events {
		seen[e.Rank]++
	}
	for r := 0; r < n; r++ {
		if seen[r] != 1 {
			t.Fatalf("rank %d contributed %d events, want 1 (dedup failed): %v", r, seen[r], seen)
		}
	}
}

// A nil recorder participates in the collective and contributes nothing.
func TestGatherTraceNilRecorder(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		merged, err := GatherTrace(c, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if merged == nil {
				t.Error("rank 0 got nil merge")
			} else if len(merged.Events) != 0 {
				t.Errorf("nil recorders produced %d events", len(merged.Events))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
