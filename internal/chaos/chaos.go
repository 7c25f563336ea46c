// Package chaos provides a deterministic, seed-driven fault injector for
// the mpi transports. The injector decides the fate of every delivery
// attempt — delay, drop (retried by the engine), duplicate, reorder,
// stall, or sever — purely from a hash of (seed, src, dst, tag, seq,
// attempt), so a failing run reproduces exactly from its seed: same
// world, same seed, same faults, regardless of goroutine scheduling.
//
// Wire an injector into a world with
// mpi.Launch(n, body, mpi.WithFaultInjector(inj)), or install it
// process-wide with mpi.SetDefaultFaultInjector so plain mpi.Launch
// calls (and the -chaos-* binary flags built on them) pick it up.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ddr/internal/mpi"
)

// Sever cuts one directed link permanently after a message count:
// delivery attempt After+1 from From to To (counting only attempts the
// TagFloor filter lets through) severs the link. The destination rank's
// mailbox is notified so its receivers fail with mpi.ErrPeerLost.
type Sever struct {
	From, To int
	After    uint64
}

// Options is the chaos schedule. Probabilities are per delivery attempt
// in [0, 1]; the zero value injects nothing.
type Options struct {
	// Seed drives every fault decision. Two runs with equal Options see
	// identical fault schedules per (src, dst, tag, seq, attempt) tuple.
	Seed uint64
	// DropProb discards the attempt; the engine retries with backoff and
	// a fresh roll, so a link only dies when every retry also drops.
	DropProb float64
	// DelayProb delays the delivery by a hash-chosen duration in
	// (0, DelayMax]. DelayMax defaults to 2ms when unset.
	DelayProb float64
	DelayMax  time.Duration
	// DupProb delivers the message twice; the receiver's dedupe window
	// discards the copy.
	DupProb float64
	// ReorderProb lets the next queued message on the link overtake this
	// one (across tag streams only; matched-stream order is preserved).
	ReorderProb float64
	// StallProb freezes the link for StallFor (default 20ms) — a long
	// bimodal delay that models a GC pause or a congested switch.
	StallProb float64
	StallFor  time.Duration
	// TagFloor, when non-zero, restricts every fault to messages with
	// tag >= TagFloor. Setting it to the DDR exchange tag base keeps the
	// mapping collectives (negative tags) and application control traffic
	// clean while the data exchange runs under fire.
	TagFloor int
	// Severs lists deterministic link cuts.
	Severs []Sever
}

// Injector implements mpi.FaultInjector with the deterministic schedule
// described by its Options. Safe for concurrent use: it is read-only
// after construction.
type Injector struct {
	opt    Options
	severs map[[2]int]uint64
}

// New builds an injector from the schedule. A nil result is never
// returned; an all-zero Options yields an injector that injects nothing.
func New(opt Options) *Injector {
	if opt.DelayMax <= 0 {
		opt.DelayMax = 2 * time.Millisecond
	}
	if opt.StallFor <= 0 {
		opt.StallFor = 20 * time.Millisecond
	}
	in := &Injector{opt: opt, severs: make(map[[2]int]uint64, len(opt.Severs))}
	for _, s := range opt.Severs {
		key := [2]int{s.From, s.To}
		if cur, ok := in.severs[key]; !ok || s.After < cur {
			in.severs[key] = s.After
		}
	}
	return in
}

// Enabled reports whether the schedule can inject anything at all.
func (in *Injector) Enabled() bool {
	o := in.opt
	return o.DropProb > 0 || o.DelayProb > 0 || o.DupProb > 0 ||
		o.ReorderProb > 0 || o.StallProb > 0 || len(in.severs) > 0
}

// Distinct purpose tags keep the per-decision hash streams independent:
// the drop roll of a message tells you nothing about its delay roll.
const (
	purposeDrop uint64 = iota + 1
	purposeDelay
	purposeDelayLen
	purposeDup
	purposeReorder
	purposeStall
)

// mix is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// permutation that underlies every decision.
func mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// hash folds the decision coordinates into one 64-bit value.
func (in *Injector) hash(src, dst, tag int, seq uint64, attempt int, purpose uint64) uint64 {
	h := mix(in.opt.Seed ^ 0x6c62272e07bb0142)
	h = mix(h ^ uint64(uint32(src))<<32 ^ uint64(uint32(dst)))
	h = mix(h ^ uint64(uint32(tag)))
	h = mix(h ^ seq)
	h = mix(h ^ uint64(uint32(attempt))<<8 ^ purpose)
	return h
}

// roll maps a decision to a uniform float in [0, 1).
func (in *Injector) roll(src, dst, tag int, seq uint64, attempt int, purpose uint64) float64 {
	return float64(in.hash(src, dst, tag, seq, attempt, purpose)>>11) / float64(1<<53)
}

// FaultFor implements mpi.FaultInjector.
func (in *Injector) FaultFor(src, dst, tag int, seq uint64, attempt int) mpi.Fault {
	if in.opt.TagFloor != 0 && tag < in.opt.TagFloor {
		return mpi.Fault{}
	}
	var f mpi.Fault
	if after, ok := in.severs[[2]int{src, dst}]; ok && seq > after {
		f.Sever = true
		return f
	}
	if in.opt.DropProb > 0 && in.roll(src, dst, tag, seq, attempt, purposeDrop) < in.opt.DropProb {
		f.Drop = true
		return f
	}
	// Shape faults only roll on the first attempt: a retry that survived
	// its drop roll should deliver, not re-enter the lottery.
	if attempt > 0 {
		return f
	}
	if in.opt.DelayProb > 0 && in.roll(src, dst, tag, seq, 0, purposeDelay) < in.opt.DelayProb {
		frac := in.roll(src, dst, tag, seq, 0, purposeDelayLen)
		f.Delay = time.Duration(frac * float64(in.opt.DelayMax))
		if f.Delay <= 0 {
			f.Delay = time.Microsecond
		}
	}
	if in.opt.StallProb > 0 && in.roll(src, dst, tag, seq, 0, purposeStall) < in.opt.StallProb {
		f.Delay += in.opt.StallFor
	}
	if in.opt.DupProb > 0 && in.roll(src, dst, tag, seq, 0, purposeDup) < in.opt.DupProb {
		f.Duplicate = true
	}
	if in.opt.ReorderProb > 0 && in.roll(src, dst, tag, seq, 0, purposeReorder) < in.opt.ReorderProb {
		f.Reorder = true
	}
	return f
}

// ParseSevers parses a sever schedule of the form "from>to@after" with
// comma-separated entries, e.g. "0>1@5,2>0@12": cut the 0→1 link after 5
// messages and the 2→0 link after 12.
func ParseSevers(s string) ([]Sever, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Sever
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		arrow := strings.IndexByte(part, '>')
		at := strings.IndexByte(part, '@')
		if arrow <= 0 || at <= arrow {
			return nil, fmt.Errorf("chaos: sever %q is not from>to@after", part)
		}
		from, err := strconv.Atoi(part[:arrow])
		if err != nil {
			return nil, fmt.Errorf("chaos: sever %q: bad from rank: %v", part, err)
		}
		to, err := strconv.Atoi(part[arrow+1 : at])
		if err != nil {
			return nil, fmt.Errorf("chaos: sever %q: bad to rank: %v", part, err)
		}
		after, err := strconv.ParseUint(part[at+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: sever %q: bad message count: %v", part, err)
		}
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("chaos: sever %q: ranks must be non-negative", part)
		}
		out = append(out, Sever{From: from, To: to, After: after})
	}
	return out, nil
}
