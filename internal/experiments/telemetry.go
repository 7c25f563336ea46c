package experiments

import (
	"fmt"
	"os"
	"time"

	"ddr/internal/core"
	"ddr/internal/mpi"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// Telemetry bundles the observation sinks an experiment run can feed: a
// trace recorder for Perfetto timelines and a metrics registry for
// Prometheus export. Either field may be nil; a nil *Telemetry disables
// observation entirely and costs nothing on the hot paths.
type Telemetry struct {
	Trace   *trace.Recorder
	Metrics *obs.Registry

	// Flight, when non-nil, records transport and exchange events into a
	// postmortem ring dumped on peer loss, SIGQUIT, and /debug/flightrec.
	Flight *obs.FlightRecorder

	// MergeOut, when non-empty, makes MergeAndWrite assemble the world's
	// clock-corrected timeline at rank 0 and write it there as one
	// Perfetto file with a process track per rank.
	MergeOut string
}

// enabled reports whether any sink is attached.
func (t *Telemetry) enabled() bool {
	return t != nil && (t.Trace != nil || t.Metrics != nil || t.Flight != nil)
}

// coreOpts returns the descriptor options that wire DDR's plan-compile
// and exchange instrumentation into the sinks.
func (t *Telemetry) coreOpts() []core.Option {
	if !t.enabled() {
		return nil
	}
	var opts []core.Option
	if t.Trace != nil {
		opts = append(opts, core.WithTracer(t.Trace))
	}
	if t.Metrics != nil {
		opts = append(opts, core.WithMetrics(t.Metrics))
	}
	if t.Flight != nil {
		opts = append(opts, core.WithFlightRecorder(t.Flight))
	}
	return opts
}

// launchOpts returns the launch options that report every rank's
// send/recv/collective paths and transport to the sinks, bound before the
// world starts, so communicators split from it report too.
func (t *Telemetry) launchOpts() []mpi.LaunchOption {
	if !t.enabled() {
		return nil
	}
	return []mpi.LaunchOption{mpi.WithTelemetry(t.Metrics, t.Flight)}
}

// MergeAndWrite assembles the world's merged timeline and writes it to
// MergeOut. Collective over world whenever a trace recorder and MergeOut
// are both set — every rank must call it (typically at the end of the
// world body); rank 0 performs the write and prints the straggler
// summary to stderr. A nil receiver, missing recorder, or empty MergeOut
// is a collective no-op.
func (t *Telemetry) MergeAndWrite(world *mpi.Comm) error {
	if t == nil || t.Trace == nil || t.MergeOut == "" {
		return nil
	}
	merged, err := mpi.GatherTrace(world, t.Trace)
	if err != nil {
		return fmt.Errorf("telemetry: trace merge: %w", err)
	}
	if merged == nil { // not rank 0
		return nil
	}
	f, err := os.Create(t.MergeOut)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, merged.Events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "telemetry: wrote merged %d-rank Perfetto trace to %s (load at ui.perfetto.dev)\n",
		world.Size(), t.MergeOut)
	for r := 1; r < world.Size(); r++ {
		fmt.Fprintf(os.Stderr, "telemetry: rank %d clock offset %v (rtt %v)\n",
			r, merged.Offsets[r], merged.RTTs[r])
	}
	if report := trace.StragglerReport(merged.Events); len(report) > 0 {
		fmt.Fprintln(os.Stderr, "telemetry: straggler report (per exchange round):")
		trace.WriteStragglerReport(os.Stderr, report)
	}
	return nil
}

// phase starts timing one named pipeline phase on a trace lane (world
// rank); the returned func ends it, recording a span and a phase-labeled
// latency observation.
func (t *Telemetry) phase(rank int, name string) func() {
	if !t.enabled() {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		if t.Trace != nil {
			t.Trace.AddSpan(rank, name, start, end, 0)
		}
		if t.Metrics != nil {
			t.Metrics.Histogram("pipeline_phase_seconds",
				"Wall time of in-transit pipeline phases.",
				obs.LatencyBuckets, obs.RankLabel(rank),
				obs.Label{Key: "phase", Value: name}).Observe(end.Sub(start).Seconds())
		}
	}
}

// TelemetryFromFlags builds the sinks selected by CLI flags: a trace
// recorder when traceOut or mergeOut is set (mergeOut additionally makes
// MergeAndWrite emit the clock-corrected multi-rank timeline), a metrics
// registry when metricsOut or pprofAddr is set (the pprof server also
// exposes /metrics), and a flight recorder of flightRec events when
// flightRec > 0 (installed process-wide, so /debug/flightrec and SIGQUIT
// dump it). It returns nil when no flag is set. The flush func writes
// the output files and shuts the server down; call it once after the
// experiment finishes.
func TelemetryFromFlags(traceOut, metricsOut, pprofAddr, mergeOut string, flightRec int) (*Telemetry, func() error, error) {
	if traceOut == "" && metricsOut == "" && pprofAddr == "" && mergeOut == "" && flightRec <= 0 {
		return nil, func() error { return nil }, nil
	}
	tel := &Telemetry{MergeOut: mergeOut}
	if traceOut != "" || mergeOut != "" {
		tel.Trace = trace.NewRecorder()
	}
	if metricsOut != "" || pprofAddr != "" {
		tel.Metrics = obs.NewRegistry()
	}
	if flightRec > 0 {
		tel.Flight = obs.NewFlightRecorder(flightRec)
		obs.SetGlobalFlightRecorder(tel.Flight)
		obs.DumpFlightOnSignal()
	}
	var srv *obs.Server
	if pprofAddr != "" {
		s, err := obs.Serve(pprofAddr, tel.Metrics)
		if err != nil {
			return nil, nil, fmt.Errorf("telemetry: pprof server: %w", err)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
	}
	flush := func() error {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return err
			}
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			if err := obs.WriteTrace(f, tel.Trace); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "telemetry: wrote Perfetto trace to %s (load at ui.perfetto.dev)\n", traceOut)
		}
		if metricsOut != "" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			if err := tel.Metrics.WritePrometheus(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "telemetry: wrote Prometheus metrics to %s\n", metricsOut)
		}
		return nil
	}
	return tel, flush, nil
}
