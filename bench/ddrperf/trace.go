package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ddr/internal/core"
)

// layer names the DDR layer a span's self time is charged to in the
// share-of-epoch table.
type layer int

const (
	layerSync      layer = iota // start skew + waiting for the slowest rank
	layerLoop                   // benchmark's own code between library calls
	layerTransit                // transit.Coupling / transit.Regridder calls
	layerPlan                   // core.SetupDataMapping
	layerExchange               // core exchange outside pack/wire/unpack
	layerPack                   // core pack (RoundTiming.Pack)
	layerWire                   // blocked on the mpi wire
	layerUnpack                 // core unpack (RoundTiming.Unpack)
	layerAlltoallw              // mpi.Alltoallw rounds (pack+wire+unpack, undecomposed)
	layerKernel                 // fft row/column passes
	numLayers
)

var layerNames = [numLayers]string{
	"bench.sync", "bench.loop", "transit", "core.plan", "core.exchange",
	"core.pack", "mpi.wire", "core.unpack", "mpi.alltoallw", "fft.kernel",
}

// span is one traced interval on one rank. start and end are nanoseconds
// since the run's origin; parent indexes the same rank's span list (-1
// for a top-level span of the epoch). A derived span was not timed by
// the benchmark around a call: its duration comes from the library's
// RoundTiming accessor and it is laid out inside its parent.
type span struct {
	name       string
	layer      layer
	epoch      int32
	parent     int32
	derived    bool
	start, end int64
}

// rankTrace collects one rank's spans. A nil *rankTrace records nothing,
// so the untraced loop pays one nil check per call site.
type rankTrace struct {
	origin time.Time
	epoch  int32
	spans  []span

	// Per-epoch sums of the library's RoundTimings, folded by endEpoch.
	cur   exchangeSums
	sums  []exchangeSums
	tbuf  []core.RoundTiming   // last exchange's rounds
	ebuf  []core.RoundTiming   // every round of the current epoch
	calls map[string][]float64 // span name -> per-call ms
	round []string             // "round-N" names, built once
}

// exchangeSums is one rank's RoundTiming totals for one epoch.
type exchangeSums struct {
	exchange, pack, wire, unpack time.Duration
	wireBytes                    int64
	overlap                      float64 // core.OverlapRatio over the epoch's rounds
}

func newRankTrace(origin time.Time) *rankTrace {
	return &rankTrace{origin: origin, spans: make([]span, 0, 1<<12), calls: map[string][]float64{}}
}

func (t *rankTrace) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index for end.
func (t *rankTrace) begin(name string, l layer, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: l, epoch: t.epoch, parent: int32(parent), start: t.now()})
	return len(t.spans) - 1
}

func (t *rankTrace) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	t.calls[s.name] = append(t.calls[s.name], float64(s.end-s.start)/1e6)
}

// exchange derives the spans of one ReorganizeData call from the
// descriptor's RoundTimings and lays them out inside span parent, ending
// at endNS: one core.exchange span (omitted when the parent is itself
// the ReorganizeData call), one span per round, and pack / blocked-wire
// / unpack children per round. Rounds without sub-durations ran as one
// mpi.Alltoallw collective and are charged to that layer whole.
func (t *rankTrace) exchange(parent int, d *core.Descriptor, endNS int64, wrap bool) {
	if t == nil {
		return
	}
	t.tbuf = d.AppendTimings(t.tbuf[:0])
	var total time.Duration
	for _, rt := range t.tbuf {
		total += rt.Duration
		t.cur.pack += rt.Pack
		t.cur.wire += rt.Wire
		t.cur.unpack += rt.Unpack
		t.cur.wireBytes += rt.WireBytes
	}
	t.cur.exchange += total
	t.ebuf = append(t.ebuf, t.tbuf...)
	at := endNS - int64(total)
	if p := t.spans[parent]; at < p.start {
		at = p.start
	}
	if wrap {
		t.spans = append(t.spans, span{name: "core.exchange", layer: layerExchange, epoch: t.epoch,
			parent: int32(parent), derived: true, start: at, end: at + int64(total)})
		parent = len(t.spans) - 1
	}
	for _, rt := range t.tbuf {
		for len(t.round) <= rt.Round {
			t.round = append(t.round, fmt.Sprintf("round-%d", len(t.round)))
		}
		round := span{name: t.round[rt.Round], layer: layerExchange, epoch: t.epoch,
			parent: int32(parent), derived: true, start: at, end: at + int64(rt.Duration)}
		if rt.Pack == 0 && rt.Wire == 0 && rt.Unpack == 0 {
			round.layer = layerAlltoallw
			t.spans = append(t.spans, round)
			at = round.end
			continue
		}
		t.spans = append(t.spans, round)
		ri := int32(len(t.spans) - 1)
		blocked := rt.Duration - rt.Pack - rt.Unpack
		if blocked < 0 {
			blocked = 0
		}
		for _, part := range []struct {
			name string
			l    layer
			d    time.Duration
		}{{"pack", layerPack, rt.Pack}, {"wire-blocked", layerWire, blocked}, {"unpack", layerUnpack, rt.Unpack}} {
			if part.d > 0 {
				t.spans = append(t.spans, span{name: part.name, layer: part.l, epoch: t.epoch,
					parent: ri, derived: true, start: at, end: at + int64(part.d)})
				at += int64(part.d)
			}
		}
		at = round.end
	}
}

// child adds a derived span of the given extent under parent and counts
// it as a call of that name.
func (t *rankTrace) child(name string, l layer, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.calls[name] = append(t.calls[name], float64(end-start)/1e6)
	t.spans = append(t.spans, span{name: name, layer: l, epoch: t.epoch, parent: int32(parent),
		derived: true, start: start, end: end})
}

// endEpoch closes the epoch's RoundTiming sums.
func (t *rankTrace) endEpoch() {
	if t == nil {
		return
	}
	t.cur.overlap = core.OverlapRatio(t.ebuf)
	t.ebuf = t.ebuf[:0]
	t.sums = append(t.sums, t.cur)
	t.cur = exchangeSums{}
	t.epoch++
}

// selfTimes sums, per layer, each span's duration minus the part its
// children cover (children are clamped to their parent), over the spans
// of the epochs include selects.
func (t *rankTrace) selfTimes(include func(epoch int32) bool, out *[numLayers]float64) {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && include(s.epoch) {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if include(s.epoch) {
			out[s.layer] += float64(max(s.end-s.start-covered[i], 0))
		}
	}
}

// roots returns the rank's top-level span of every traced epoch.
func (t *rankTrace) roots(epochs int) []span {
	out := make([]span, epochs)
	for _, s := range t.spans {
		if s.parent < 0 && s.epoch >= 0 && int(s.epoch) < epochs {
			out[s.epoch] = s
		}
	}
	return out
}

// perfettoEvent is one Chrome trace-event record (ph "X" = complete
// span, "M" = metadata), the JSON format ui.perfetto.dev loads.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFileEpochs bounds the epochs written to a trace file; the
// per-layer aggregates always cover the whole traced window.
const traceFileEpochs = 8

// writeTrace writes the first traceFileEpochs traced epochs of every
// rank, plus the world-level epoch intervals on tid -1, in Perfetto's
// JSON format.
func writeTrace(path string, hdr header, workload string, traces []*rankTrace, epochs []epochSample) error {
	events := []perfettoEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "ddrperf " + workload, "header": hdr}}}
	events = append(events, perfettoEvent{Name: "thread_name", Ph: "M", Tid: -1, Args: map[string]any{"name": "world"}})
	for e, s := range epochs {
		if e >= traceFileEpochs {
			break
		}
		events = append(events, perfettoEvent{Name: "epoch", Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Tid: -1, Args: map[string]any{"epoch": e}})
	}
	for r, t := range traces {
		events = append(events, perfettoEvent{Name: "thread_name", Ph: "M", Tid: r, Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}})
		for i, s := range t.spans {
			if s.epoch >= traceFileEpochs {
				continue
			}
			events = append(events, perfettoEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Tid: r,
				Args: map[string]any{"rank": r, "epoch": s.epoch, "id": i, "parent": s.parent, "layer": layerNames[s.layer], "derived": s.derived}})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
