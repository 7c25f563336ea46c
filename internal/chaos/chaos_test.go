package chaos

import (
	"math"

	"ddr/internal/mpi"
	"testing"
	"time"
)

// TestDeterminism: equal options and coordinates must yield equal faults,
// call after call — the property every seed reproduction rests on.
func TestDeterminism(t *testing.T) {
	opt := Options{
		Seed: 12345, DropProb: 0.3, DelayProb: 0.3, DupProb: 0.3,
		ReorderProb: 0.3, StallProb: 0.1,
	}
	a, b := New(opt), New(opt)
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			for seq := uint64(1); seq <= 50; seq++ {
				for attempt := 0; attempt < 3; attempt++ {
					fa := a.FaultFor(src, dst, 7, seq, attempt)
					fb := b.FaultFor(src, dst, 7, seq, attempt)
					if fa != fb {
						t.Fatalf("(%d,%d,seq=%d,att=%d): %+v != %+v", src, dst, seq, attempt, fa, fb)
					}
				}
			}
		}
	}
}

// TestSeedChangesSchedule: different seeds must produce different fault
// schedules (with overwhelming probability at these sample sizes).
func TestSeedChangesSchedule(t *testing.T) {
	a := New(Options{Seed: 1, DropProb: 0.5})
	b := New(Options{Seed: 2, DropProb: 0.5})
	same := true
	for seq := uint64(1); seq <= 200; seq++ {
		if a.FaultFor(0, 1, 7, seq, 0) != b.FaultFor(0, 1, 7, seq, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 200-message schedules")
	}
}

// TestDropRate: the empirical drop frequency must track DropProb.
func TestDropRate(t *testing.T) {
	for _, p := range []float64{0.05, 0.25, 0.75} {
		in := New(Options{Seed: 99, DropProb: p})
		const n = 20000
		drops := 0
		for seq := uint64(1); seq <= n; seq++ {
			if in.FaultFor(0, 1, 7, seq, 0).Drop {
				drops++
			}
		}
		got := float64(drops) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("DropProb=%.2f: empirical rate %.3f", p, got)
		}
	}
}

// TestTagFloor: tags below the floor must never see any fault.
func TestTagFloor(t *testing.T) {
	in := New(Options{
		Seed: 7, DropProb: 1, DelayProb: 1, DupProb: 1, ReorderProb: 1, StallProb: 1,
		TagFloor: 1000,
		Severs:   []Sever{{From: 0, To: 1, After: 0}},
	})
	for seq := uint64(1); seq <= 100; seq++ {
		if f := in.FaultFor(0, 1, 999, seq, 0); f != (mpi.Fault{}) {
			t.Fatalf("tag below floor got fault %+v", f)
		}
		if f := in.FaultFor(0, 1, 1000, seq, 0); !f.Sever {
			t.Fatalf("tag at floor seq %d: want sever, got %+v", seq, f)
		}
	}
	// Negative (collective) tags sit below any positive floor.
	if f := in.FaultFor(0, 1, -3, 5, 0); f != (mpi.Fault{}) {
		t.Fatalf("collective tag got fault %+v", f)
	}
}

// TestSever: the directed link dies permanently once seq passes After,
// the reverse direction stays clean, and duplicate entries keep the
// earliest cut.
func TestSever(t *testing.T) {
	in := New(Options{Seed: 3, Severs: []Sever{
		{From: 0, To: 1, After: 10},
		{From: 0, To: 1, After: 4}, // earlier cut wins
	}})
	for seq := uint64(1); seq <= 20; seq++ {
		f := in.FaultFor(0, 1, 7, seq, 0)
		if want := seq > 4; f.Sever != want {
			t.Fatalf("seq %d: sever=%v, want %v", seq, f.Sever, want)
		}
		if f := in.FaultFor(1, 0, 7, seq, 0); f.Sever {
			t.Fatalf("reverse link severed at seq %d", seq)
		}
	}
}

// TestRetryEscapesDrop: a dropped message must re-roll per attempt, so a
// sub-1 drop probability cannot doom all retries deterministically.
func TestRetryEscapesDrop(t *testing.T) {
	in := New(Options{Seed: 11, DropProb: 0.9})
	const n = 2000
	doomed := 0
	for seq := uint64(1); seq <= n; seq++ {
		delivered := false
		for attempt := 0; attempt < 7; attempt++ {
			if !in.FaultFor(0, 1, 7, seq, attempt).Drop {
				delivered = true
				break
			}
		}
		if !delivered {
			doomed++
		}
	}
	// P(7 straight drops) = 0.9^7 ≈ 0.48; all-or-nothing would be a bug.
	if doomed == 0 || doomed == n {
		t.Fatalf("doomed %d/%d messages: attempts are not re-rolled", doomed, n)
	}
}

// TestShapeFaultsFirstAttemptOnly: retries that survive the drop roll
// must deliver without re-entering the delay/dup/reorder lottery.
func TestShapeFaultsFirstAttemptOnly(t *testing.T) {
	in := New(Options{Seed: 5, DelayProb: 1, DupProb: 1, ReorderProb: 1, StallProb: 1})
	f := in.FaultFor(0, 1, 7, 1, 1)
	if f.Delay != 0 || f.Duplicate || f.Reorder {
		t.Fatalf("attempt 1 got shape fault %+v", f)
	}
	f = in.FaultFor(0, 1, 7, 1, 0)
	if f.Delay == 0 || !f.Duplicate || !f.Reorder {
		t.Fatalf("attempt 0 missing shape faults: %+v", f)
	}
}

// TestDelayBounds: injected delays stay within (0, DelayMax+StallFor].
func TestDelayBounds(t *testing.T) {
	max := 3 * time.Millisecond
	stall := 10 * time.Millisecond
	in := New(Options{Seed: 8, DelayProb: 1, DelayMax: max, StallProb: 1, StallFor: stall})
	for seq := uint64(1); seq <= 500; seq++ {
		d := in.FaultFor(0, 1, 7, seq, 0).Delay
		if d <= 0 || d > max+stall {
			t.Fatalf("seq %d: delay %v out of (0, %v]", seq, d, max+stall)
		}
	}
}

// TestEnabled: only schedules that can actually inject report Enabled.
func TestEnabled(t *testing.T) {
	if New(Options{Seed: 1}).Enabled() {
		t.Error("empty schedule reports Enabled")
	}
	if New(Options{Seed: 1, DelayMax: time.Second, StallFor: time.Second}).Enabled() {
		t.Error("durations without probabilities report Enabled")
	}
	for _, opt := range []Options{
		{DropProb: 0.1}, {DelayProb: 0.1}, {DupProb: 0.1},
		{ReorderProb: 0.1}, {StallProb: 0.1},
		{Severs: []Sever{{From: 0, To: 1}}},
	} {
		if !New(opt).Enabled() {
			t.Errorf("%+v does not report Enabled", opt)
		}
	}
}

// TestParseFormatSevers: the from>to@after format parses, and malformed
// input is rejected.
func TestParseFormatSevers(t *testing.T) {
	in := []Sever{{From: 0, To: 1, After: 5}, {From: 2, To: 0, After: 12}}
	out, err := ParseSevers(" 0>1@5,2>0@12 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("parsed %+v", out)
	}
	if got, err := ParseSevers("  "); err != nil || got != nil {
		t.Fatalf("blank input: %v, %v", got, err)
	}
	for _, bad := range []string{"0>1", "1@5", ">1@5", "0>@5", "0>1@", "a>1@5", "0>b@5", "0>1@c", "-1>2@5"} {
		if _, err := ParseSevers(bad); err == nil {
			t.Errorf("ParseSevers(%q) accepted malformed input", bad)
		}
	}
}
