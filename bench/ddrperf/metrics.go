package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ddr/internal/core"
	"ddr/internal/datatype"
)

// metricDef names one reported metric. The two lists below are the
// vocabulary BENCHMARK.json, the README and later issues use.
type metricDef struct {
	name, unit, better string
}

// numBounded is how many of endToEndMetrics, from the front, carry a
// relative regression bound in BENCHMARK.json. epoch_ms_p90 does not
// repeat within a tenth on a shared 2-vCPU host and is reported unbounded
// (see README); peak_staging_bytes and failed_frac are exact counts.
const numBounded = 4

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"epoch_ms_p50", "ms", "lower"},
	{"goodput_MBps", "MB/s", "higher"},
	{"peak_rss_MB", "MB", "lower"},
	{"epoch_ms_p90", "ms", "lower"},
	{"peak_staging_bytes", "B", "lower"},
	{"failed_frac", "ratio", "lower"},
}

var perLayerMetrics = []metricDef{
	{"core.setup_mapping_ms", "ms", "lower"},
	{"core.setup_mapping_calls", "1/epoch", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.compile_delta_ms", "ms", "lower"},
	{"core.plan_cache_hit_ratio", "ratio", "higher"},
	{"core.plan_cache_misses", "count", "lower"},
	{"core.delta_cache_hit_ratio", "ratio", "higher"},
	{"core.plan_rounds", "count", "lower"},
	{"core.bounded_steps", "count", "lower"},
	{"core.pipeline_depth", "count", "higher"},
	{"core.exchange_ms", "ms", "lower"},
	{"core.pack_ms", "ms", "lower"},
	{"core.wire_ms", "ms", "lower"},
	{"core.unpack_ms", "ms", "lower"},
	{"core.overlap_ratio", "ratio", "higher"},
	{"core.wire_bytes_per_epoch", "B", "lower"},
	{"datatype.pack_MBps", "MB/s", "higher"},
	{"datatype.unpack_MBps", "MB/s", "higher"},
	{"datatype.memcpy_MBps", "MB/s", "higher"},
	{"datatype.pack_over_memcpy", "ratio", "lower"},
	{"mpi.launch_s", "s", "lower"},
	{"mpi.msgs_per_epoch", "count", "lower"},
	{"mpi.bytes_per_epoch", "B", "lower"},
	{"mpi.wire_amplification", "ratio", "lower"},
	{"mpi.floor_ms", "ms", "lower"},
	{"mpi.ddr_over_floor", "ratio", "lower"},
	{"mpi.straggler_wait_ms", "ms", "lower"},
	{"transit.stream_ms", "ms", "lower"},
	{"transit.recv_wait_ms", "ms", "lower"},
	{"transit.regrid_ms", "ms", "lower"},
	{"transit.connect_ms", "ms", "lower"},
	{"transit.resize_ms", "ms", "lower"},
	{"transit.moved_frac", "ratio", "lower"},
	{"fft.kernel_ms", "ms", "lower"},
	{"fft.transpose_fwd_ms", "ms", "lower"},
	{"fft.transpose_inv_ms", "ms", "lower"},
	{"runtime.alloc_B_per_epoch", "B", "lower"},
	{"runtime.allocs_per_epoch", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.goroutines_end", "count", "lower"},
	{"obs.trace_overhead_frac", "ratio", "lower"},
	{"obs.traced_epoch_ms_p50", "ms", "lower"},
	{"obs.share_sum", "ratio", "higher"},
	{"obs.crit_sum", "ratio", "higher"},
	{"obs.host_steal_frac", "ratio", "lower"},
}

func init() {
	for _, l := range layerNames {
		perLayerMetrics = append(perLayerMetrics, metricDef{"share." + l, "ratio", "lower"})
	}
	for _, l := range layerNames {
		perLayerMetrics = append(perLayerMetrics, metricDef{"crit." + l, "ratio", "lower"})
	}
}

// runResult is one run of one workload, as written to the report file.
type runResult struct {
	Workload     string             `json:"workload"`
	Transport    string             `json:"transport"`
	Ranks        int                `json:"ranks"`
	Seed         uint64             `json:"seed"`
	Describe     string             `json:"inputs"`
	Epochs       int                `json:"timed_epochs"`
	SetupSamples int                `json:"setup_samples"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	TracedEpochs int                `json:"traced_epochs,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func epochMS(samples []epochSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.end-s.start) / 1e6
	}
	return out
}

// peakRSS reads the process's resident-set high-water mark.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuJiffies reads the kernel's CPU time accounting summed over all CPUs:
// the time a hypervisor ran something else while this guest wanted to run
// (steal), and the time in every state. Both are 0 where /proc/stat is
// missing.
func cpuJiffies() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// resetPeakRSS hands the previous run's heap back and restarts the
// high-water mark, so each run of a one-process full report is charged
// its own peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak is the process's
}

// blocksPerWindow is how many consecutive blocks of epochs a window is
// cut into. On a shared host a neighbour only ever slows a stretch of a
// run down, for seconds at a time; the timings a bound is held against
// are therefore taken from the window's best block, not from all of it.
const blocksPerWindow = 8

// blocks cuts one window's epochs into blocksPerWindow consecutive blocks
// of equal length, each a whole number of the workload's cycles so that
// every block holds the same mix of geometries. A window too short for
// that gives fewer blocks; the last block takes the remainder.
func blocks(ms []float64, cycle int) [][]float64 {
	per := max(len(ms)/cycle/blocksPerWindow, 1) * cycle
	var out [][]float64
	for len(ms) >= 2*per {
		out = append(out, ms[:per])
		ms = ms[per:]
	}
	return append(out, ms)
}

// bestBlock returns, over every block of every window, the lowest block
// median and the lowest block mean of the epoch times in ms: what the
// median epoch and the mean epoch cost while the machine was quietest.
func bestBlock(windows [][]float64, cycle int) (p50, mean float64) {
	for _, w := range windows {
		for _, b := range blocks(w, cycle) {
			var sum float64
			for _, v := range b {
				sum += v
			}
			if m := sum / float64(len(b)); mean == 0 || m < mean {
				mean = m
			}
			if m := median(append([]float64(nil), b...)); p50 == 0 || m < p50 {
				p50 = m
			}
		}
	}
	return p50, mean
}

func endToEnd(out *runResult, w *workload, inst *instance, windows []*phase, setups []float64) {
	out.Describe = inst.describe
	var all []float64
	var perWindow [][]float64
	var steal, cpu int64
	for _, ph := range windows {
		ms := epochMS(ph.samples)
		perWindow = append(perWindow, ms)
		all = append(all, ms...)
		steal += ph.after.steal - ph.before.steal
		cpu += ph.after.cpu - ph.before.cpu
	}
	out.Epochs = len(all)
	p50, mean := bestBlock(perWindow, w.cycle)
	m := out.Metrics
	// The fastest set-up, as the timings are the best block's: what the
	// machine's weather adds to a set-up it never takes away.
	m["setup_s"] = quantile(setups, 0)
	m["epoch_ms_p50"] = p50
	m["goodput_MBps"] = inst.payload / 1e6 / (mean / 1e3)
	m["peak_rss_MB"] = peakRSS()
	m["epoch_ms_p90"] = quantile(all, 0.9)
	m["failed_frac"] = float64(out.Failed) / float64(out.Attempted)
	// Not in BENCHMARK.json's lists, but taken by every run: they say how
	// far to trust this run's timings. The median over every epoch of the
	// run reads above the best block's by what the machine's weather cost.
	m["obs.epoch_ms_p50_all"] = quantile(all, 0.5)
	m["obs.host_steal_frac"] = ratio(float64(steal), float64(cpu))
}

// callP50 is the median duration, in ms, of every call recorded under
// name on any rank.
func callP50(traces []*rankTrace, name string) float64 {
	var all []float64
	for _, t := range traces {
		all = append(all, t.calls[name]...)
	}
	return median(all)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills out.Layers and returns the traced epochs' samples, in
// the order the ranks' traces numbered them.
func perLayer(out *runResult, h *harness, res *worldResult, goroutinesEnd int) ([]epochSample, error) {
	L := map[string]float64{}
	out.Layers = L
	timed := res.timed
	epochs := float64(len(timed.samples))
	// The traced window alternates traced and untraced blocks; the
	// untraced ones are the reference the tracer's overhead is taken
	// against.
	var traced, untraced []epochSample
	for _, s := range res.traced.samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	out.TracedEpochs = len(traced)

	// core plan: accessors over the timed window.
	var hits, misses, dHits, dMisses, calls, moved, needed float64
	for r := range h.after {
		a, b := h.after[r], h.before[r]
		hits += float64(a.cacheHits - b.cacheHits)
		misses += float64(a.cacheMisses - b.cacheMisses)
		L["core.plan_cache_misses"] = max(L["core.plan_cache_misses"], float64(a.cacheMisses-b.cacheMisses))
		dHits += float64(a.deltaHits - b.deltaHits)
		dMisses += float64(a.deltaMisses - b.deltaMisses)
		calls += float64(a.setupCalls - b.setupCalls)
		moved += float64(a.movedBytes - b.movedBytes)
		needed += float64(a.needBytes - b.needBytes)
		L["core.plan_rounds"] = max(L["core.plan_rounds"], float64(a.planRounds))
		L["core.bounded_steps"] = max(L["core.bounded_steps"], float64(a.boundedSteps))
		L["core.pipeline_depth"] = max(L["core.pipeline_depth"], float64(a.pipelineDepth))
	}
	// With no lookup in the window nothing missed: the warm plan was
	// replayed without consulting the cache.
	L["core.plan_cache_hit_ratio"], L["core.delta_cache_hit_ratio"] = 1, 1
	if hits+misses > 0 {
		L["core.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	if dHits+dMisses > 0 {
		L["core.delta_cache_hit_ratio"] = dHits / (dHits + dMisses)
	}
	L["core.setup_mapping_calls"] = calls / epochs
	L["core.setup_mapping_ms"] = callP50(h.traces, "core.setup_mapping")
	L["transit.moved_frac"] = ratio(moved, needed)

	// core exchange: RoundTimings of the traced window, summed over an
	// epoch's rounds, max over ranks, median over epochs.
	n := len(traced)
	ex, pk, wr, up, ov := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var wireBytes float64
	for e := 0; e < n; e++ {
		active := 0.0
		for _, t := range h.traces {
			s := t.sums[e]
			ex[e] = max(ex[e], float64(s.exchange)/1e6)
			pk[e] = max(pk[e], float64(s.pack)/1e6)
			wr[e] = max(wr[e], float64(s.wire)/1e6)
			up[e] = max(up[e], float64(s.unpack)/1e6)
			wireBytes += float64(s.wireBytes)
			if s.wire > 0 {
				ov[e] += s.overlap
				active++
			}
		}
		ov[e] = ratio(ov[e], active)
	}
	L["core.exchange_ms"], L["core.pack_ms"], L["core.wire_ms"], L["core.unpack_ms"] = median(ex), median(pk), median(wr), median(up)
	L["core.overlap_ratio"] = median(ov)
	L["core.wire_bytes_per_epoch"] = wireBytes / float64(n)

	// mpi: traffic counters over the timed window, and the floor.
	L["mpi.launch_s"] = h.launched.Seconds()
	L["mpi.msgs_per_epoch"] = float64(timed.after.msgs-timed.before.msgs) / epochs
	L["mpi.bytes_per_epoch"] = float64(timed.after.bytes-timed.before.bytes) / epochs
	L["mpi.wire_amplification"] = ratio(L["mpi.bytes_per_epoch"], h.inst.payload)
	// The floor is read as epoch_ms_p50 is, from its window's best block.
	L["mpi.floor_ms"], _ = bestBlock([][]float64{epochMS(res.floor.samples)}, h.w.cycle)
	L["mpi.ddr_over_floor"] = ratio(out.Metrics["epoch_ms_p50"], L["mpi.floor_ms"])
	waits := make([]float64, len(timed.samples))
	for i, s := range timed.samples {
		waits[i] = s.wait / 1e6
	}
	L["mpi.straggler_wait_ms"] = median(waits)

	for metric, call := range map[string]string{
		"transit.stream_ms": "transit.send", "transit.recv_wait_ms": "transit.recv_epoch", "transit.regrid_ms": "transit.regrid",
		"transit.connect_ms": "transit.connect", "transit.resize_ms": "transit.resize",
		"fft.kernel_ms": "fft.kernel", "fft.transpose_fwd_ms": "fft.transpose_fwd", "fft.transpose_inv_ms": "fft.transpose_inv",
	} {
		L[metric] = callP50(h.traces, call)
	}

	L["runtime.alloc_B_per_epoch"] = float64(timed.after.mem.TotalAlloc-timed.before.mem.TotalAlloc) / epochs
	L["runtime.allocs_per_epoch"] = float64(timed.after.mem.Mallocs-timed.before.mem.Mallocs) / epochs
	L["runtime.gc_pause_ms"] = float64(timed.after.mem.PauseTotalNs-timed.before.mem.PauseTotalNs) / 1e6
	L["runtime.goroutines_end"] = float64(goroutinesEnd)

	L["obs.traced_epoch_ms_p50"] = median(epochMS(traced))
	if len(untraced) > 0 {
		L["obs.trace_overhead_frac"] = L["obs.traced_epoch_ms_p50"]/median(epochMS(untraced)) - 1
	}

	// Share of epoch by layer, two ways. share.*: self times over every
	// rank and traced epoch against ranks x sum of epoch times. crit.*:
	// the same over only the rank that finished each epoch last, against
	// the sum of epoch times — the path a faster layer has to be on to
	// shorten the epoch. What a rank's own epoch span does not cover of
	// the world's epoch (start skew, waiting for the slowest rank) is
	// bench.sync.
	var all, crit [numLayers]float64
	var total float64
	last := make([]int, n) // rank that ended epoch e
	roots := make([][]span, len(h.traces))
	for r, t := range h.traces {
		roots[r] = t.roots(n)
	}
	for e, s := range traced {
		total += float64(s.end - s.start)
		for r := range roots {
			all[layerSync] += float64(s.end - s.start - (roots[r][e].end - roots[r][e].start))
			if roots[r][e].end > roots[last[e]][e].end {
				last[e] = r
			}
		}
		crit[layerSync] += float64(roots[last[e]][e].start - s.start)
	}
	for r, t := range h.traces {
		t.selfTimes(func(e int32) bool { return e >= 0 }, &all)
		t.selfTimes(func(e int32) bool { return e >= 0 && last[e] == r }, &crit)
	}
	for l, name := range layerNames {
		L["share."+name] = all[l] / total / float64(len(h.traces))
		L["crit."+name] = crit[l] / total
		L["obs.share_sum"] += L["share."+name]
		L["obs.crit_sum"] += L["crit."+name]
	}

	replayCompile(L, h.inst)
	return traced, replayPack(L, h.inst)
}

// timeMS runs f reps times and returns the median wall time in ms.
func timeMS(reps int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts), nil
}

const replayGeoms = 8 // geometries of a cycle the single-thread replays sample

// replayCompile times the plan compilers alone: single-thread
// CompileSchedule / CompileDelta on the workload's global geometry, no
// communication.
func replayCompile(L map[string]float64, inst *instance) {
	var full, delta []float64
	for i, g := range inst.geoms {
		if i == replayGeoms {
			break
		}
		ms, err := timeMS(5, func() error {
			_, err := core.CompileSchedule(g.elemSize, g.chunks, g.needs, 1)
			return err
		})
		if err == nil {
			full = append(full, ms)
		}
	}
	for i, d := range inst.deltas {
		if i == replayGeoms {
			break
		}
		ms, err := timeMS(5, func() error {
			_, err := core.CompileDelta(4, d[0], d[1])
			return err
		})
		if err == nil {
			delta = append(delta, ms)
		}
	}
	L["core.compile_ms"], L["core.compile_delta_ms"] = median(full), median(delta)
}

// replayPack times the datatype layer alone: one goroutine packs and
// unpacks every (chunk, need) overlap of the workload's geometry through
// datatype.NewSubarray, then moves the same byte counts with copy. The
// buffers are a chunk and a need box, so all three rates are
// cache-resident rates, comparable with each other only.
func replayPack(L map[string]float64, inst *instance) error {
	type job struct {
		pack, unpack *datatype.Subarray
		n            int
	}
	var jobs []job
	var srcMax, dstMax, wireMax int
	var bytes float64
	for gi, g := range inst.geoms {
		if gi == replayGeoms {
			break
		}
		for _, chunks := range g.chunks {
			for _, chunk := range chunks {
				for _, need := range g.needs {
					ov, ok := chunk.Intersect(need)
					if !ok || ov.Empty() {
						continue
					}
					p, err := datatype.NewSubarray(g.elemSize, chunk, ov)
					if err != nil {
						return err
					}
					u, err := datatype.NewSubarray(g.elemSize, need, ov)
					if err != nil {
						return err
					}
					jobs = append(jobs, job{p, u, p.PackedSize()})
					srcMax = max(srcMax, chunk.Volume()*g.elemSize)
					dstMax = max(dstMax, need.Volume()*g.elemSize)
					wireMax = max(wireMax, p.PackedSize())
					bytes += float64(p.PackedSize())
				}
			}
		}
	}
	src, dst, wire := make([]byte, srcMax), make([]byte, dstMax), make([]byte, wireMax)
	rate := func(f func(j job)) float64 {
		ms, _ := timeMS(5, func() error {
			for _, j := range jobs {
				f(j)
			}
			return nil
		})
		return bytes / 1e6 / (ms / 1e3)
	}
	L["datatype.pack_MBps"] = rate(func(j job) { j.pack.Pack(src, wire) })
	L["datatype.unpack_MBps"] = rate(func(j job) { j.unpack.Unpack(wire, dst) })
	L["datatype.memcpy_MBps"] = rate(func(j job) { copy(wire[:j.n], src[:j.n]) })
	L["datatype.pack_over_memcpy"] = ratio(L["datatype.memcpy_MBps"], L["datatype.pack_MBps"])
	return nil
}

// goroutinesSettled waits briefly for the transports' goroutines to
// exit after a world ends and returns the count left.
func goroutinesSettled(target int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > target; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// printResult prints a run's metrics by name with their units.
func printResult(r *runResult) {
	fmt.Printf("\n== %s  (%s, %d ranks, seed %d)\n   %s\n", r.Workload, r.Transport, r.Ranks, r.Seed, r.Describe)
	if w := findWorkload(r.Workload); w != nil && w.ungated != "" {
		fmt.Printf("   not in BENCHMARK.json: %s\n", w.ungated)
	}
	fmt.Printf("   %d timed epochs in %d worlds (timings from the best of %d blocks per world), set-up best of %d, %d epochs attempted, %d failed\n",
		r.Epochs, r.SetupSamples, blocksPerWindow, r.SetupSamples, r.Attempted, r.Failed)
	if r.FirstFailure != "" {
		fmt.Printf("   first failure: %s\n", r.FirstFailure)
	}
	for _, d := range endToEndMetrics {
		fmt.Printf("   %-28s %14.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	fmt.Printf("   %-28s %14.4f ms (median over every timed epoch, the machine's weather included)\n", "obs.epoch_ms_p50_all", r.Metrics["obs.epoch_ms_p50_all"])
	fmt.Printf("   %-28s %14.4f ratio (CPU time the host took from this guest during the timed windows)\n", "obs.host_steal_frac", r.Metrics["obs.host_steal_frac"])
	if r.Layers == nil {
		return
	}
	fmt.Printf("   -- per layer (%d traced epochs, trace in %s)\n", r.TracedEpochs, r.TraceFile)
	for _, d := range perLayerMetrics {
		if _, ok := r.Layers[d.name]; ok && !strings.HasPrefix(d.name, "share.") && !strings.HasPrefix(d.name, "crit.") {
			fmt.Printf("   %-28s %14.4f %s\n", d.name, r.Layers[d.name], d.unit)
		}
	}
	fmt.Printf("   -- share of traced epoch by layer (self time)  all ranks   last rank to finish\n")
	for _, l := range layerNames {
		fmt.Printf("   %-44s %9.1f%% %20.1f%%\n", l, 100*r.Layers["share."+l], 100*r.Layers["crit."+l])
	}
	fmt.Printf("   %-44s %9.1f%% %20.1f%%\n", "sum", 100*r.Layers["obs.share_sum"], 100*r.Layers["obs.crit_sum"])
}
