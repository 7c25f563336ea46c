package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ddr/internal/core"
	"ddr/internal/mpi"
)

// config is what one run of one workload is asked to do.
type config struct {
	seed     uint64
	short    bool          // test-sized geometry
	setups   int           // worlds per run (0 = the workload's own count): setup_s is the fastest of their cold set-ups
	warmup   int           // warm-up epochs, part of set-up
	minTimed int           // a run's timed windows run on until they hold this many epochs between them
	duration time.Duration // timed (untraced) window, shared equally between the run's worlds
	traceDur time.Duration // traced window; 0 skips it and the floor
	floorDur time.Duration // hand-written floor window
	outDir   string        // where trace files go

	// corrupt is the oracle's own test: when set it is handed the need
	// buffers of the workload's needRank after each verified epoch,
	// before they are compared.
	corrupt func(needs [][]byte)
}

// verifyEvery is the verification stride inside a timed window (warm-up
// epochs and the last epoch of every window are always verified).
const verifyEvery = 16

// traceBlock is the shortest run of epochs the traced window keeps
// tracing on or off for.
const traceBlock = 16

// rankState is one rank's side of a workload after its cold set-up.
type rankState interface {
	// epoch makes the epoch's calls into the library. g counts epochs
	// since the world started; tr is nil on untraced epochs and root is
	// the span the calls nest under.
	epoch(g int, tr *rankTrace, root int) error
	poison()              // scribble over every need buffer
	check() error         // compare every need buffer with the oracle
	needs() [][]byte      // the need buffers, for the corruption hook
	stats(out *rankStats) // read the library's accessors
	floor() (bool, error) // workload's own hand-written epoch; false = use the Alltoallv floor
}

// rankStats is what the library's exported accessors say on one rank.
// Counters are cumulative since the world started.
type rankStats struct {
	planRounds, boundedSteps, pipelineDepth int
	peakStaging                             int64
	setupCalls                              int64 // SetupDataMapping calls
	cacheHits, cacheMisses                  int64 // PlanCacheStats
	deltaHits, deltaMisses                  int64 // ResizeCacheStats
	movedBytes, needBytes                   int64 // ResizeReport sums
}

// barrier is a reusable rendezvous of the world's ranks (goroutines of
// this process). The last rank to arrive runs action while the others
// are still parked, which is where the harness keeps its shared state.
// It is the benchmark's own so that it adds nothing to mpi traffic.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, in   int
	gen     int
	aborted bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait returns false if the world was aborted.
func (b *barrier) wait(action func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	b.in++
	if b.in == b.n {
		if action != nil {
			action()
		}
		b.in = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen := b.gen; gen == b.gen && !b.aborted; {
		b.cond.Wait()
	}
	return !b.aborted
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

var errAborted = errors.New("ddrperf: world aborted by another rank's failure")

// epochSample is one epoch as the world saw it: max(end) - min(start)
// over ranks on the shared process clock.
type epochSample struct {
	start, end int64   // ns since the harness origin
	wait       float64 // mean over ranks of max(end) - own end, ns
	traced     bool    // spans were recorded
}

// counters is a snapshot of the process- and world-wide counts a window
// is charged with.
type counters struct {
	mem        runtime.MemStats
	steal, cpu int64 // /proc/stat jiffies, all CPUs: stolen by the host, and in any state
	msgs       int64
	bytes      int64
	peerSent   [][]int64 // [rank][world peer]
}

// phase is one closed loop of epochs: the warm-up, a timed window, the
// traced window or the floor. Its fields belong to the barrier's leader.
type phase struct {
	count     int           // fixed epoch count, or 0 for a timed window
	duration  time.Duration // timed window length
	minEpochs int
	cycle     int // a timed window ends on a multiple of this many epochs
	verify    int // verification stride; 0 = never
	floor     bool

	// traceBlock > 0 makes this the traced window: blocks of this many
	// epochs alternate between traced and untraced, so the two are
	// compared under the same machine weather.
	traceBlock int

	began, ended time.Time
	issued       int
	final        bool
	cur          decision
	start, end   []int64
	bad          []error
	samples      []epochSample
	failed       int
	firstBad     error
	before       counters
	after        counters
}

type decision struct {
	epoch                int
	verify, traced, stop bool
}

// harness runs one world of one workload.
type harness struct {
	w      *workload
	inst   *instance
	cfg    config
	origin time.Time
	bar    *barrier
	comms  []*mpi.Comm
	g      int // epochs issued since the world started

	launched time.Duration // Launch called -> every rank running
	traces   []*rankTrace  // nil unless this world is traced
	before   []rankStats   // accessors at the start of the timed window
	after    []rankStats   // ... and at its end

	mu     sync.Mutex
	failed error // first rank failure
}

func (h *harness) now() int64 { return int64(time.Since(h.origin)) }

func (h *harness) fail(err error) {
	h.mu.Lock()
	if h.failed == nil {
		h.failed = err
	}
	h.mu.Unlock()
	h.bar.abort()
}

func (h *harness) snapshot(c *counters) {
	runtime.ReadMemStats(&c.mem)
	c.steal, c.cpu = cpuJiffies()
	c.msgs, c.bytes = 0, 0
	c.peerSent = make([][]int64, len(h.comms))
	for r, comm := range h.comms {
		t := comm.Traffic()
		c.msgs += t.MessagesSent
		c.bytes += t.BytesSent
		c.peerSent[r] = t.PeerBytesSent
	}
}

// decide runs on the barrier's leader before every epoch: it folds the
// stamps of the epoch that just ended into a sample and picks what the
// next epoch is.
func (h *harness) decide(ph *phase) {
	now := time.Now()
	if ph.issued == 0 {
		ph.began = now
		h.snapshot(&ph.before)
	}
	if ph.issued > len(ph.samples) { // an epoch is in flight: fold it
		s := epochSample{start: ph.start[0], end: ph.end[0], traced: ph.cur.traced}
		for r := range ph.start {
			s.start = min(s.start, ph.start[r])
			s.end = max(s.end, ph.end[r])
		}
		failed := false
		for r := range ph.end {
			s.wait += float64(s.end-ph.end[r]) / float64(len(ph.end))
			if ph.bad[r] != nil {
				failed = true
				if ph.firstBad == nil {
					ph.firstBad = fmt.Errorf("epoch %d rank %d: %w", ph.cur.epoch, r, ph.bad[r])
				}
				ph.bad[r] = nil
			}
		}
		ph.samples = append(ph.samples, s)
		if failed {
			ph.failed++
		}
	}
	if ph.final {
		ph.ended = now
		h.snapshot(&ph.after)
		ph.cur = decision{stop: true}
		return
	}
	e := ph.issued
	if ph.count > 0 {
		ph.final = e == ph.count-1
	} else {
		ph.final = now.Sub(ph.began) >= ph.duration && e+1 >= ph.minEpochs && (e+1)%ph.cycle == 0
	}
	ph.cur = decision{epoch: h.g, verify: ph.verify > 0 && (e%ph.verify == 0 || ph.final),
		traced: ph.traceBlock > 0 && (e/ph.traceBlock)%2 == 0}
	ph.issued++
	h.g++
}

// loop is one rank's side of a phase.
func (h *harness) loop(rank int, st rankState, ph *phase, tr *rankTrace) error {
	for {
		if !h.bar.wait(func() { h.decide(ph) }) {
			return errAborted
		}
		d := ph.cur
		if d.stop {
			return nil
		}
		if d.verify {
			// Poisoning takes a rank-dependent time; the second barrier
			// keeps it out of the measured interval.
			st.poison()
			if !h.bar.wait(nil) {
				return errAborted
			}
		}
		t := tr
		if !d.traced {
			t = nil
		}
		var err error
		root := t.begin("epoch", layerLoop, -1)
		t0 := h.now()
		if ph.floor {
			err = h.floorEpoch(rank, st)
		} else {
			err = st.epoch(d.epoch, t, root)
		}
		t1 := h.now()
		if t != nil {
			t.end(root)
			t.endEpoch()
		}
		ph.start[rank], ph.end[rank] = t0, t1
		if err != nil {
			err = fmt.Errorf("%s rank %d epoch %d: %w", h.w.name, rank, d.epoch, err)
			h.fail(err)
			return err
		}
		if d.verify {
			if h.cfg.corrupt != nil && rank == h.w.needRank {
				h.cfg.corrupt(st.needs())
			}
			ph.bad[rank] = st.check()
		}
	}
}

// floorTag is the message tag of the hand-written floor exchange, below
// every range transit and core reserve.
const floorTag = 7

// floorEpoch is the hand-written baseline for one epoch: the workload's
// own (fft: Dist2D.HandStep) or a hand-rolled all-to-all-v of the byte
// matrix the timed window measured — eager sends to every peer the
// rank sent bytes to, then one receive per peer that sent it bytes — on
// the same world and transport, with no packing and no plan.
func (h *harness) floorEpoch(rank int, st rankState) error {
	if own, err := st.floor(); own || err != nil {
		return err
	}
	c, send := h.comms[rank], h.inst.floorSend
	for peer, buf := range send[rank] {
		if len(buf) > 0 {
			if err := c.Send(peer, floorTag, buf); err != nil {
				return err
			}
		}
	}
	for peer := range send {
		if len(send[peer][rank]) > 0 {
			if _, _, _, err := c.Recv(peer, floorTag); err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *harness) newPhase(count int, d time.Duration, minEpochs, verify int, floor bool) *phase {
	n := h.w.ranks
	return &phase{count: count, duration: d, minEpochs: minEpochs, cycle: h.w.cycle, verify: verify, floor: floor,
		start: make([]int64, n), end: make([]int64, n), bad: make([]error, n)}
}

// worldResult is what one world hands back.
type worldResult struct {
	setup                      time.Duration
	warm, timed, traced, floor *phase
}

// runWorld launches the world once: cold set-up, warm-up, the timed
// window and, when asked, the traced window and the floor — all inside
// the one Launch.
func (h *harness) runWorld() (*worldResult, error) {
	// Every world probes its pack strategies itself: without this only the
	// process's first set-up would be a cold one, and every later world
	// would run on a decision probed in the first. (fft's twiddle-plan cache
	// has no reset; the process's first fft_transpose world builds it.)
	core.ResetAutotuneCache()
	t0 := time.Now()
	h.origin = t0
	h.inst = h.w.build(h.cfg.seed, h.cfg.short)
	n := h.w.ranks
	h.bar = newBarrier(n)
	h.comms = make([]*mpi.Comm, n)
	h.before, h.after = make([]rankStats, n), make([]rankStats, n)
	h.g = 0
	traced := h.cfg.traceDur > 0
	if traced {
		h.traces = make([]*rankTrace, n)
		for r := range h.traces {
			h.traces[r] = newRankTrace(t0)
			h.traces[r].epoch = -1 // set-up spans
		}
	}
	res := &worldResult{warm: h.newPhase(h.cfg.warmup, 0, 0, 1, false),
		timed: h.newPhase(0, h.cfg.duration, h.cfg.minTimed, verifyEvery, false)}
	if traced {
		res.traced = h.newPhase(0, h.cfg.traceDur, 0, verifyEvery, false)
		res.traced.traceBlock = max(traceBlock, h.w.cycle)
		res.floor = h.newPhase(0, h.cfg.floorDur, 0, 0, true)
	}
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		h.comms[rank] = c
		if !h.bar.wait(func() { h.launched = time.Since(t0) }) {
			return errAborted
		}
		var tr *rankTrace
		if traced {
			tr = h.traces[rank]
		}
		st, err := h.inst.newRank(c, tr)
		if err != nil {
			err = fmt.Errorf("%s rank %d set-up: %w", h.w.name, rank, err)
			h.fail(err)
			return err
		}
		if err := h.loop(rank, st, res.warm, nil); err != nil {
			return err
		}
		st.stats(&h.before[rank])
		if err := h.loop(rank, st, res.timed, nil); err != nil {
			return err
		}
		st.stats(&h.after[rank])
		if !traced {
			return nil
		}
		tr.epoch = 0
		if err := h.loop(rank, st, res.traced, tr); err != nil {
			return err
		}
		if !h.bar.wait(func() { h.inst.floorSend = floorMatrix(res.timed) }) {
			return errAborted
		}
		return h.loop(rank, st, res.floor, nil)
	}, mpi.WithTransport(h.w.transport))
	if h.failed != nil {
		err = h.failed
	}
	// Set-up is everything up to the first timed epoch except the oracle:
	// what the warm-up phase spent outside its epochs is poisoning and
	// comparing need buffers, the benchmark's work and not the library's.
	res.setup = res.warm.began.Sub(t0)
	for _, s := range res.warm.samples {
		res.setup += time.Duration(s.end - s.start)
	}
	return res, err
}

// floorMatrix turns the timed window's per-peer traffic into the send
// buffers of the floor exchange: rank r sends peer p the mean bytes per
// epoch it sent p during the window.
func floorMatrix(ph *phase) [][][]byte {
	epochs := int64(len(ph.samples))
	out := make([][][]byte, len(ph.after.peerSent))
	for r, row := range ph.after.peerSent {
		out[r] = make([][]byte, len(row))
		for p := range row {
			out[r][p] = make([]byte, (row[p]-ph.before.peerSent[r][p])/epochs)
		}
	}
	return out
}

// run is one complete run of a workload: cfg.setups worlds, one after
// the other. Every world is a cold set-up followed by its share of the
// timed window, so a run samples the machine over its whole length and no
// single world's luck (placement, probe outcome) is the run's result. It
// returns nil and an error only when no timed epoch completed.
func run(w *workload, cfg config, hdr header) (*runResult, error) {
	goroutines := runtime.NumGoroutine()
	if cfg.setups == 0 {
		cfg.setups = w.setups
	}
	world := cfg
	world.duration = cfg.duration / time.Duration(cfg.setups)
	world.minTimed = (cfg.minTimed + cfg.setups - 1) / cfg.setups
	out := &runResult{Workload: w.name, Transport: w.transport.String(), Ranks: w.ranks, Seed: cfg.seed,
		Metrics: map[string]float64{}}
	var setups []float64
	var windows []*phase
	var res *worldResult
	var h *harness
	for i := 0; i < cfg.setups; i++ {
		h = &harness{w: w, cfg: world}
		var err error
		res, err = h.runWorld()
		if len(res.timed.samples) > 0 {
			windows = append(windows, res.timed)
		}
		if err != nil && len(windows) == 0 {
			return nil, err
		}
		for _, ph := range []*phase{res.warm, res.timed, res.traced} {
			if ph != nil {
				out.Attempted += ph.issued
				out.Failed += ph.failed
				if out.FirstFailure == "" && ph.firstBad != nil {
					out.FirstFailure = ph.firstBad.Error()
				}
			}
		}
		for r := range h.after {
			out.Metrics["peak_staging_bytes"] = max(out.Metrics["peak_staging_bytes"], float64(h.after[r].peakStaging))
		}
		if err != nil { // a rank failed outright: the run ends here, counted as one failed epoch
			out.Failed++
			out.FirstFailure = err.Error()
			break
		}
		setups = append(setups, res.setup.Seconds())
		// Hand the world's memory back so one world's garbage is not the
		// next one's resident set.
		debug.FreeOSMemory()
	}
	out.SetupSamples = len(setups)
	endToEnd(out, w, h.inst, windows, setups)
	if res.traced != nil && len(res.traced.samples) > 0 {
		traced, err := perLayer(out, h, res, goroutinesSettled(goroutines))
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := writeTrace(path, hdr, w.name, h.traces, traced); err != nil {
			return nil, err
		}
		out.TraceFile = path
	}
	return out, nil
}
