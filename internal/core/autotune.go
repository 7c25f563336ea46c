package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// Pack-strategy autotuning. The exchange paths can move a region three
// ways: hand contiguous sub-slices straight to the transport and gather
// strided rows with the Subarray's stride loop (zerocopy), the same but
// gathering through a compiled run-list offset table (pack), or stage
// everything through wire buffers with the Subarray loop, fast paths off
// (datatype). Which gather wins depends on the region geometry — row
// length, row count, cache footprint — and on the transport underneath,
// none of which are visible statically. Instead of hardcoding the
// choice, the first exchange on a plan runs a microprobe: it times the
// two gathers that keep the fast paths on — zerocopy and pack — on the
// plan's own representative region and picks the faster per direction
// (packing sends and scattering receives have different geometries and
// different winners). The probe chooses between those two only: datatype
// adds a memmove of the contiguous bytes on top of zerocopy's gather, so
// it can never win one. It stays as the fully staged reference the
// byte-identity tests force and compare the fast paths against.
//
// Decisions are cached process-wide, keyed by (plan fingerprint,
// transport, direction) — the probe runs at most once per key even when
// many ranks share the process, since ranks are goroutines here and
// their plans share the collectively agreed fingerprint. A nil-safe
// metrics counter exports every selection, so /metrics shows which
// strategy each geometry landed on.

// PackStrategy selects how exchange regions are gathered and scattered.
type PackStrategy int

const (
	// StrategyAuto probes at first use and picks the measured winner.
	StrategyAuto PackStrategy = iota
	// StrategyZeroCopy keeps contiguous fast paths on and gathers strided
	// regions with the Subarray stride loop (the historical default).
	StrategyZeroCopy
	// StrategyPack keeps contiguous fast paths on and gathers strided
	// regions through compiled run-list offset tables.
	StrategyPack
	// StrategyDatatype stages every region through wire buffers with the
	// Subarray loop, contiguous fast paths off — the fully staged path
	// MPI datatypes would take. Never chosen by the probe, and no option
	// selects it: the tests force it as their staged reference.
	StrategyDatatype
)

func (s PackStrategy) String() string {
	switch s {
	case StrategyZeroCopy:
		return "zerocopy"
	case StrategyPack:
		return "pack"
	case StrategyDatatype:
		return "datatype"
	default:
		return "auto"
	}
}

// tuneKey identifies one cached decision: the collectively agreed plan
// fingerprint (geometry × topology), the transport the exchange rides,
// and the direction being gathered.
type tuneKey struct {
	fp        uint64
	transport string
	send      bool
}

// tuneEntry holds one decision; the Once guarantees a single probe per
// key no matter how many ranks race to the first exchange.
type tuneEntry struct {
	once  sync.Once
	strat PackStrategy
}

var (
	tuneCache  sync.Map // tuneKey -> *tuneEntry
	tuneProbes atomic.Int64
)

// AutotuneProbeCount reports how many microprobes have run in this
// process across all descriptors.
func AutotuneProbeCount() int64 { return tuneProbes.Load() }

// ResetAutotuneCache drops every cached pack-strategy decision, forcing
// the next exchange of each (plan, transport, direction) to re-probe.
// Intended for tests and measurement harnesses.
func ResetAutotuneCache() {
	tuneCache.Range(func(k, _ any) bool { tuneCache.Delete(k); return true })
}

// PackDecision reports the strategies the most recent exchange used for
// its send and receive directions (StrategyAuto before the first
// exchange resolves them).
func (d *Descriptor) PackDecision() (send, recv PackStrategy) {
	return d.sendStrat, d.recvStrat
}

// ensureTuned resolves the effective pack strategy for both directions
// of plan p over communicator c, probing on first use unless a strategy
// is forced. Runs on every exchange but is two comparisons in steady
// state.
func (d *Descriptor) ensureTuned(c *mpi.Comm, p *Plan) {
	tn := c.TransportName()
	if d.tunedFP == p.fp && d.tunedTransport == tn && d.sendStrat != StrategyAuto {
		return
	}
	if d.forcedStrat != StrategyAuto {
		d.sendStrat, d.recvStrat = d.forcedStrat, d.forcedStrat
	} else {
		d.sendStrat = tuneDecision(tuneKey{fp: p.fp, transport: tn, send: true}, p.sched)
		d.recvStrat = tuneDecision(tuneKey{fp: p.fp, transport: tn, send: false}, p.sched)
	}
	d.tunedFP, d.tunedTransport = p.fp, tn
	d.applyStrategy(p)
}

// applyStrategy translates the resolved strategies into the flags and
// plan state the exchange paths consume: the per-direction fast-path
// gates, run-list compilation for pack, and the selection counters.
func (d *Descriptor) applyStrategy(p *Plan) {
	d.ex.zcSend = d.sendStrat != StrategyDatatype
	d.ex.zcRecv = d.recvStrat != StrategyDatatype
	if d.sendStrat == StrategyPack {
		p.compileRuns(false)
	}
	if d.recvStrat == StrategyPack {
		p.compileRuns(true)
	}
	if d.metrics != nil {
		rl := obs.RankLabel(p.rank)
		const name = "ddr_pack_strategy_selected_total"
		const help = "Exchanges that resolved a pack strategy, by strategy and direction."
		d.metrics.Counter(name, help, rl,
			obs.Label{Key: "strategy", Value: d.sendStrat.String()},
			obs.Label{Key: "direction", Value: "send"}).Add(1)
		d.metrics.Counter(name, help, rl,
			obs.Label{Key: "strategy", Value: d.recvStrat.String()},
			obs.Label{Key: "direction", Value: "recv"}).Add(1)
	}
}

// compileRuns swaps every strided Subarray seg of one direction for its
// compiled run list, in place, in the round schedule. Run lists pack the
// same bytes in the same order, so a plan whose types were compiled stays
// valid for every strategy — a descriptor that later resolves zerocopy on
// another transport simply gathers through the table it already has.
func (p *Plan) compileRuns(recv bool) {
	eachSeg(p.sched, recv, func(sg *seg) {
		if sg.span.ok {
			return
		}
		if rl, ok := datatype.CompileRuns(sg.t); ok {
			sg.t = rl
		}
	})
}

// tuneDecision returns the cached strategy for key, probing exactly once
// per key process-wide.
func tuneDecision(key tuneKey, sched []step) PackStrategy {
	v, _ := tuneCache.LoadOrStore(key, &tuneEntry{})
	ent := v.(*tuneEntry)
	ent.once.Do(func() {
		tuneProbes.Add(1)
		ent.strat = probeStrategy(sched, !key.send)
	})
	return ent.strat
}

// probeBudget bounds the bytes one candidate moves during a probe; the
// iteration count is derived from it so small regions are averaged over
// many repetitions and huge ones timed once.
const probeBudget = 4 << 20

// probeStrategy times zerocopy's Subarray stride loop against pack's
// compiled run list on the direction's largest strided region and
// returns the winner. Pack must beat zerocopy by a margin to win —
// measured noise should not flip the default.
func probeStrategy(sched []step, unpack bool) PackStrategy {
	// Representative region: the direction's largest strided Subarray.
	var rep *datatype.Subarray
	repBytes := 0
	eachSeg(sched, unpack, func(sg *seg) {
		if sg.span.ok {
			return
		}
		n := sg.t.PackedSize()
		if s, ok := sg.t.(*datatype.Subarray); ok && n > repBytes {
			rep, repBytes = s, n
		}
	})
	if rep == nil {
		// Nothing strided: fast paths cover everything.
		return StrategyZeroCopy
	}
	rl, ok := datatype.CompileRuns(rep)
	if !ok {
		return StrategyZeroCopy
	}

	localBytes := rep.Array.Volume() * rep.ElemSize
	local := mpi.GetBuffer(localBytes)
	wire := mpi.GetBuffer(repBytes)
	defer mpi.PutBuffer(local)
	defer mpi.PutBuffer(wire)
	iters := probeBudget / repBytes
	if iters < 1 {
		iters = 1
	}
	if iters > 64 {
		iters = 64
	}
	move := func(t datatype.Type) time.Duration {
		// One warm-up pass faults the pages in so the first candidate is
		// not charged for them.
		if unpack {
			t.Unpack(wire, local)
		} else {
			t.Pack(local, wire)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if unpack {
				t.Unpack(wire, local)
			} else {
				t.Pack(local, wire)
			}
		}
		return time.Since(start)
	}
	subNs := float64(move(rep))
	rlNs := float64(move(rl))
	if rlNs < subNs*0.95 { // pack must win by >5% to displace the default
		return StrategyPack
	}
	return StrategyZeroCopy
}
