// Package core implements the paper's contribution: the Dynamic Data
// Redistribution (DDR) library. DDR moves 1D/2D/3D array data from the
// layout a producer used — any number of box-shaped chunks per rank,
// collectively tiling the domain — to the layout a consumer needs — one
// contiguous box per rank, possibly overlapping between ranks and possibly
// not covering the whole domain.
//
// The public surface mirrors the paper's three calls:
//
//	desc, _ := core.NewDescriptor(nProcs, core.Layout2D, core.Float32)
//	desc.SetupDataMapping(comm, ownedChunks, neededBox)   // once per layout
//	desc.ReorganizeData(comm, ownedBuffers, neededBuffer) // per data arrival
//
// SetupDataMapping computes, from the geometry alone, which sub-boxes every
// rank must exchange with every other rank and compiles them into rounds
// (one round per owned chunk, as in the paper). The mapping is reusable:
// when new data arrives in the same layout — the "dynamic data" case —
// only ReorganizeData needs to run again.
//
// ReorganizeData moves each round as direct sends and receives between the
// ranks that share data, run by the step executor (exec.go). The paper's
// own mechanism, one alltoallw collective per round, is kept behind
// WithExchangeMode(ModeAlltoallw) as the reference the tests and the
// paper-reproduction experiments compare against.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// Layout identifies the dimensionality of the data being redistributed,
// the analogue of the paper's DATA_TYPE_1D/2D/3D descriptor argument.
type Layout int

// Supported array layouts.
const (
	Layout1D Layout = 1
	Layout2D Layout = 2
	Layout3D Layout = 3
)

// NDims returns the number of spatial dimensions of the layout.
func (l Layout) NDims() int { return int(l) }

func (l Layout) String() string {
	switch l {
	case Layout1D:
		return "1D"
	case Layout2D:
		return "2D"
	case Layout3D:
		return "3D"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// ElemType identifies the element type stored in the array, standing in
// for the MPI datatype + byte size pair the C API takes.
type ElemType int

// Supported element types.
const (
	Uint8 ElemType = iota
	Int16
	Int32
	Float32
	Float64
)

// Size returns the element's byte size.
func (t ElemType) Size() int {
	switch t {
	case Uint8:
		return 1
	case Int16:
		return 2
	case Int32, Float32:
		return 4
	case Float64:
		return 8
	}
	return 0
}

func (t ElemType) String() string {
	switch t {
	case Uint8:
		return "uint8"
	case Int16:
		return "int16"
	case Int32:
		return "int32"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("ElemType(%d)", int(t))
}

// ExchangeMode selects how ReorganizeData moves bytes between ranks.
type ExchangeMode int

const (
	// ModePointToPoint, the default, moves each round as direct sends and
	// receives between the ranks that actually share data — the
	// optimization the paper proposes as future work for sparse mappings.
	ModePointToPoint ExchangeMode = iota
	// ModeAlltoallw drives one alltoallw collective per round, the
	// mechanism the paper implements. It is the reference the default is
	// tested against and the experiments reproduce the paper with:
	// serial, fail-fast (no WithExchangeDeadline), and it reports no
	// pack/wire/unpack split. A memory budget overrides it: every
	// budgeted exchange runs the step executor (WithMemoryBudget).
	ModeAlltoallw
)

func (m ExchangeMode) String() string {
	if m == ModeAlltoallw {
		return "alltoallw"
	}
	return "point-to-point"
}

// Descriptor describes the data being redistributed and, after
// SetupDataMapping, carries the compiled communication plan. It
// corresponds to the object returned by DDR_NewDataDescriptor.
//
// A Descriptor is not safe for concurrent use: ReorganizeData reuses
// per-call scratch state so repeated exchanges on one plan stay
// allocation-free.
type Descriptor struct {
	nProcs      int
	layout      Layout
	elem        ElemType
	elemSize    int
	elemSizeSet bool // WithElemSize was given (even an invalid value)
	mode        ExchangeMode
	validate    bool
	deadline    time.Duration // per-exchange bound; > 0 enables degradation
	budget      int           // WithMemoryBudget ceiling; <= 0 disables
	depth       int           // WithPipelineDepth; rounds in flight at once
	tracer      *trace.Recorder
	metrics     *obs.Registry
	flight      *obs.FlightRecorder // nil unless WithFlightRecorder
	cacheCap    int                 // plan-cache capacity; <= 0 disables

	plan                   *Plan             // nil until SetupDataMapping
	cache                  *planCache[*Plan] // nil when caching is disabled
	cacheHits, cacheMisses atomic.Int64
	obsv                   *exchObs // nil unless a tracer or registry is attached

	// exchSeq counts ReorganizeData calls on this descriptor. The call is
	// collective, so the counter advances in lockstep on every rank;
	// combined with the plan's collectively agreed geometry fingerprint it
	// mints exchange IDs that match across ranks without a message.
	exchSeq    uint64
	lastExchID uint64 // ID minted by the most recent exchange

	// ex runs every step-list exchange (exec.go) and records its timings;
	// needBuf is the one-element destination buffer list handed to it, a
	// field so the steady state allocates nothing. lastPeakStaging is the
	// meter's high-water mark of the last budgeted exchange.
	ex              executor
	needBuf         [1][]byte
	lastPeakStaging int64

	// Dense rows of ModeAlltoallw, materialized per round from the plan's
	// step (the collective's wire format wants one slot per peer).
	// Allocated once per descriptor and reset to the Empty sentinel after
	// each call, so the steady state allocates nothing.
	rowSend, rowRecv []datatype.Type

	// Pipeline state: the depth the most recent exchange actually ran at
	// (after geometry and budget clamping) and its overlap ratio.
	lastDepth   int
	lastOverlap float64
}

// exchObs is the observation context threaded through the exchange
// helpers: the trace recorder plus the registry handles for this
// descriptor's rank and mode. It is nil when neither a tracer nor a
// metrics registry is attached, which keeps the hot paths free of
// timestamping and formatting.
type exchObs struct {
	rec  *trace.Recorder
	rank int // world rank, so all comms of a process share one lane

	planCompile   *obs.Histogram
	compilePar    *obs.Histogram
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	exchangeLat   *obs.Histogram
	roundLat      *obs.Histogram
	exchangeBytes *obs.Counter
	packLat       *obs.Histogram
	unpackLat     *obs.Histogram
	landed        *obs.Counter
	boundedSteps  *obs.Counter
	boundedPeak   *obs.Gauge
	pipeDepth     *obs.Gauge
	pipeOverlap   *obs.FloatGauge
}

// parallelismBuckets covers worker-pool widths from serial through large
// SMP nodes for the compile-parallelism histogram.
var parallelismBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// on reports whether observation is attached; helpers gate every
// time.Now and name formatting behind it.
func (o *exchObs) on() bool { return o != nil }

// tracing reports whether a trace recorder is attached; per-peer span
// formatting is gated behind it so metrics-only observation stays
// allocation-free.
func (o *exchObs) tracing() bool { return o != nil && o.rec != nil }

// buildObs derives the observation context for the communicator the
// mapping is being set up on. Ranks are labeled with the world rank so
// spans and series line up across sub-communicators of one process.
func (d *Descriptor) buildObs(rank int) {
	if d.tracer == nil && d.metrics == nil {
		d.obsv = nil
		return
	}
	rl := obs.RankLabel(rank)
	ml := obs.Label{Key: "mode", Value: d.mode.String()}
	d.obsv = &exchObs{
		rec:  d.tracer,
		rank: rank,
		planCompile: d.metrics.Histogram("ddr_plan_compile_seconds",
			"Time to gather geometry and compile the communication plan.", obs.LatencyBuckets, rl),
		compilePar: d.metrics.Histogram("ddr_plan_compile_parallelism",
			"Worker-pool width used for each plan compilation.", parallelismBuckets, rl),
		cacheHits: d.metrics.Counter("ddr_plan_cache_hits_total",
			"SetupDataMapping calls satisfied by a cached plan.", rl),
		cacheMisses: d.metrics.Counter("ddr_plan_cache_misses_total",
			"SetupDataMapping calls that compiled a new plan with caching enabled.", rl),
		exchangeLat: d.metrics.Histogram("ddr_exchange_seconds",
			"Wall time of one complete ReorganizeData exchange.", obs.LatencyBuckets, rl, ml),
		roundLat: d.metrics.Histogram("ddr_exchange_round_seconds",
			"Wall time of one exchange round.", obs.LatencyBuckets, rl, ml),
		exchangeBytes: d.metrics.Counter("ddr_exchange_bytes_total",
			"Bytes this rank sent across ranks during exchanges.", rl, ml),
		packLat: d.metrics.Histogram("ddr_pack_seconds",
			"Time spent packing sub-arrays into wire buffers.", obs.LatencyBuckets, rl),
		unpackLat: d.metrics.Histogram("ddr_unpack_seconds",
			"Time spent scattering wire buffers into the need box.", obs.LatencyBuckets, rl),
		landed: d.metrics.Counter("ddr_landed_messages_total",
			"Messages that arrived already in this rank's posted need regions, copied there by an in-process sender or unpacked there by the shared-memory consumer: no unpack for them.", rl),
		boundedSteps: d.metrics.Counter("ddr_bounded_steps_total",
			"Bounded-footprint exchange steps executed by memory-bounded ReorganizeData calls.", rl, ml),
		boundedPeak: d.metrics.Gauge("ddr_bounded_peak_staging_bytes",
			"High-water mark of measured exchange-layer staging bytes across bounded exchanges.", rl, ml),
		pipeDepth: d.metrics.Gauge("ddr_pipeline_depth",
			"Pipeline depth the most recent exchange ran at, after geometry and budget clamping (1 = serial).", rl, ml),
		pipeOverlap: d.metrics.FloatGauge("ddr_pipeline_overlap_ratio",
			"Fraction of the most recent exchange's wire time hidden behind pack/unpack work (0 = fully serial).", rl, ml),
	}
}

// Option configures a Descriptor.
type Option func(*Descriptor)

// WithExchangeMode selects the wire mechanism: ModePointToPoint (the
// default), the step executor replaying the plan's rounds — or its
// bounded rewrite under WithMemoryBudget — as direct sends and receives;
// or ModeAlltoallw, the paper's one collective per round, kept as the
// reference.
func WithExchangeMode(m ExchangeMode) Option {
	return func(d *Descriptor) { d.mode = m }
}

// WithTracer attaches a trace recorder: SetupDataMapping and every
// exchange round of ReorganizeData record spans into it (down to
// per-peer pack/unpack), enabling per-rank timeline inspection of where
// redistribution time goes. Export with obs.WriteTrace for Perfetto.
func WithTracer(r *trace.Recorder) Option {
	return func(d *Descriptor) { d.tracer = r }
}

// WithMetrics attaches a metrics registry: plan-compile and exchange
// latencies, per-round timings, and exchanged bytes are recorded as
// per-rank, per-mode series exportable in Prometheus text format.
func WithMetrics(reg *obs.Registry) Option {
	return func(d *Descriptor) { d.metrics = reg }
}

// WithFlightRecorder attaches a flight recorder: plan-cache verdicts and
// exchange start/end marks are recorded into the ring, every exchange
// stamps a trace context onto its wire traffic so transport-level flight
// events carry the exchange ID, and a degraded exchange (PartialError)
// triggers an automatic postmortem dump of the ring. Detached (the
// default) the hot paths pay a single nil check.
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(d *Descriptor) { d.flight = f }
}

// WithValidation makes SetupDataMapping verify collectively that the owned
// chunks are mutually exclusive and complete over their bounding domain,
// the precondition the paper states for the sending side.
func WithValidation() Option {
	return func(d *Descriptor) { d.validate = true }
}

// WithExchangeDeadline bounds every ReorganizeData exchange to at most d
// of wall time and switches peer failures from fail-fast to graceful
// degradation: a peer that is severed, crashed, or silent past the bound
// is given up on, the exchange finishes with the remaining peers, and the
// call returns a *PartialError naming the lost peers and the need-box
// regions their data would have filled. Zero (the default) keeps the
// historical behaviour — the exchange waits indefinitely and aborts on
// the first transport error. ModeAlltoallw is fail-fast by definition:
// NewDescriptor rejects the combination with ErrDeadlineUnsupported.
func WithExchangeDeadline(dl time.Duration) Option {
	return func(d *Descriptor) { d.deadline = dl }
}

// DefaultPipelineDepth is the pipeline depth descriptors run at unless
// WithPipelineDepth overrides it: double buffering, the smallest depth
// that overlaps round r+1's pack with round r's wire time.
const DefaultPipelineDepth = 2

// WithPipelineDepth sets how many exchange rounds (or bounded steps) may
// be in flight at once (default DefaultPipelineDepth). Depth k > 1
// software-pipelines the multi-round exchange paths: round r+1's pack and
// send posting overlap round r's wire time, and round r's unpack runs
// behind round r+1's sends, through a ring of k staging-buffer sets.
// Depth 1 restores strictly serial rounds. The effective depth of an
// exchange is additionally clamped by the plan's round (or step) count
// and — when WithMemoryBudget is set — by the budget, so k-deep staging
// never exceeds it; single-round geometries and an unbudgeted
// ModeAlltoallw always run serially. Results are byte-identical at every
// depth.
func WithPipelineDepth(k int) Option {
	return func(d *Descriptor) { d.depth = k }
}

// WithElemSize overrides the element byte size derived from the ElemType,
// for element types not covered by the enum (the C API takes the size
// separately for the same reason).
func WithElemSize(n int) Option {
	return func(d *Descriptor) {
		d.elemSize = n
		d.elemSizeSet = true
	}
}

// WithPlanCache sets the capacity of the descriptor's plan cache
// (default 8). Cached plans let SetupDataMapping skip the geometry
// exchange and compilation entirely when a previously mapped layout
// recurs — the collective agreement costs one small allgather. n <= 0
// disables caching, forcing every setup through the full compile path.
// Ranks must agree on whether caching is enabled; capacities may differ.
func WithPlanCache(n int) Option {
	return func(d *Descriptor) { d.cacheCap = n }
}

// NewDescriptor creates a descriptor for redistributing arrays of the
// given layout and element type across nProcs ranks. It corresponds to
// DDR_NewDataDescriptor(nProcs, DATA_TYPE_*, mpiType, elemSize); the
// element byte size follows from elem unless WithElemSize overrides it.
func NewDescriptor(nProcs int, layout Layout, elem ElemType, opts ...Option) (*Descriptor, error) {
	if nProcs <= 0 {
		return nil, fmt.Errorf("core: descriptor needs a positive process count, got %d", nProcs)
	}
	if layout < Layout1D || layout > Layout3D {
		return nil, fmt.Errorf("core: unsupported layout %v", layout)
	}
	d := &Descriptor{
		nProcs:   nProcs,
		layout:   layout,
		elem:     elem,
		elemSize: elem.Size(),
		cacheCap: 8,
		depth:    DefaultPipelineDepth,
	}
	for _, opt := range opts {
		opt(d)
	}
	d.ex.metered = d.budget > 0
	if d.depth < 1 {
		return nil, fmt.Errorf("core: pipeline depth %d must be at least 1", d.depth)
	}
	if d.mode == ModeAlltoallw && d.deadline > 0 {
		return nil, fmt.Errorf("core: ModeAlltoallw with a %v exchange deadline: %w", d.deadline, ErrDeadlineUnsupported)
	}
	if d.cacheCap > 0 {
		d.cache = newPlanCache[*Plan](d.cacheCap)
	}
	if !d.elemSizeSet && elem.Size() == 0 {
		return nil, fmt.Errorf("core: unknown element type %v", elem)
	}
	if d.elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", d.elemSize)
	}
	return d, nil
}

// NProcs returns the process count the descriptor was created for.
func (d *Descriptor) NProcs() int { return d.nProcs }

// Layout returns the data layout.
func (d *Descriptor) Layout() Layout { return d.layout }

// ElemSize returns the element byte size.
func (d *Descriptor) ElemSize() int { return d.elemSize }

// Plan returns the compiled communication plan, or nil before
// SetupDataMapping has run.
func (d *Descriptor) Plan() *Plan { return d.plan }

// LastExchangeID returns the trace exchange ID minted by the most recent
// ReorganizeData call (0 before the first). Every rank of the collective
// derives the same ID — the plan fingerprint is collectively agreed and
// the per-descriptor exchange counter runs in lockstep — so the value
// keys this exchange's spans and flight events across the whole world.
func (d *Descriptor) LastExchangeID() uint64 { return d.lastExchID }

// PlanCacheStats reports how many SetupDataMapping calls were satisfied
// by a cached plan and how many compiled a new one while caching was
// enabled. Both are zero when the cache is disabled.
func (d *Descriptor) PlanCacheStats() (hits, misses int64) {
	return d.cacheHits.Load(), d.cacheMisses.Load()
}

// PlanCacheLen reports the number of plans currently held by the cache
// (0 when caching is disabled).
func (d *Descriptor) PlanCacheLen() int {
	if d.cache == nil {
		return 0
	}
	return d.cache.len()
}

// PipelineDepth returns the configured pipeline depth (the
// WithPipelineDepth value, DefaultPipelineDepth when unset).
func (d *Descriptor) PipelineDepth() int { return d.depth }

// LastPipelineDepth returns the depth the most recent ReorganizeData
// call actually ran at, after clamping by the plan's round count and the
// memory budget — 1 when the exchange ran serially (0 before the first
// call).
func (d *Descriptor) LastPipelineDepth() int { return d.lastDepth }

// LastOverlapRatio returns the fraction of the most recent exchange's
// wire time that was hidden behind pack/unpack work: 0 for a serial
// exchange (every wire interval was spent blocked), approaching 1 when
// the pipeline kept the rounds' wire time fully covered. It equals
// OverlapRatio(d.LastTimings()).
func (d *Descriptor) LastOverlapRatio() float64 { return d.lastOverlap }

// MetricsRegistry returns the registry attached with WithMetrics, or nil.
func (d *Descriptor) MetricsRegistry() *obs.Registry { return d.metrics }

// ExchangeDeadline returns the per-exchange bound set with
// WithExchangeDeadline (0 when unset).
func (d *Descriptor) ExchangeDeadline() time.Duration { return d.deadline }

// ResetMapping discards the compiled plan, returning the descriptor to
// its pre-SetupDataMapping state. Cached plans survive — a later setup
// of a known geometry still replays — but ReorganizeData fails with
// ErrNoMapping until SetupDataMapping runs again. Sessions use it to
// poison a descriptor whose mapping can no longer be trusted (a failed
// collective setup may leave ranks disagreeing about the current plan).
func (d *Descriptor) ResetMapping() { d.plan = nil }

// Reshape discards the compiled plan and re-targets the descriptor at a
// new process count, the descriptor-level half of an elastic resize: the
// layout, element type, options, metrics, and plan cache all carry over,
// so a resized session keeps its identity (and its cached plans for any
// geometry that recurs at the same scale). The next SetupDataMapping
// must run on a communicator of the new size.
func (d *Descriptor) Reshape(nProcs int) error {
	if nProcs <= 0 {
		return fmt.Errorf("core: descriptor needs a positive process count, got %d", nProcs)
	}
	d.nProcs = nProcs
	d.plan = nil
	return nil
}

// ResetAutotuneCache does nothing: nothing is cached process-wide any
// more, since every strided region is gathered by its Subarray and no
// probe picks a strategy. It exists only because the benchmark harness
// (bench/ddrperf) still calls it before each world.
func ResetAutotuneCache() {}

// checkBoxDims verifies a box matches the descriptor's dimensionality.
// The error names the box as what, followed by index when it is not
// negative; the label is formatted only on failure.
func (d *Descriptor) checkBoxDims(b grid.Box, what string, index int) error {
	if b.NDims == d.layout.NDims() {
		return nil
	}
	if index >= 0 {
		what = fmt.Sprintf("%s %d", what, index)
	}
	return fmt.Errorf("core: %s box %v is %dD but descriptor is %v", what, b, b.NDims, d.layout)
}
