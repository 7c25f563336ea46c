// Command lbmsim runs the paper's use case B: an M-rank Lattice-Boltzmann
// simulation streams fields in-transit to an N-rank analysis application,
// which regrids the slabs with DDR, renders each frame through a
// colormap, and writes JPEGs.
//
// Single-process (both applications in one world):
//
//	lbmsim -sim 8 -viz 2 -width 648 -height 260 -iters 2000 -every 100 -out frames
//
// Two separate applications connected over TCP (run the viz side first;
// it prints "BRIDGE addr1,addr2,...", which the sim side takes):
//
//	lbmsim -role viz -sim 8 -viz 2 ...            # prints BRIDGE <addrs>
//	lbmsim -role sim -sim 8 -viz 2 -connect <addrs> ...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ddr/internal/experiments"
)

func main() {
	var (
		sim       = flag.Int("sim", 8, "simulation ranks (M)")
		viz       = flag.Int("viz", 2, "analysis ranks (N)")
		width     = flag.Int("width", 648, "grid width")
		height    = flag.Int("height", 260, "grid height")
		iters     = flag.Int("iters", 2000, "simulation iterations")
		every     = flag.Int("every", 100, "stream every Nth iteration")
		quality   = flag.Int("quality", 75, "JPEG quality")
		out       = flag.String("out", "frames", "output directory for JPEG frames")
		fields    = flag.String("fields", "vorticity", "comma-separated variables to stream: vorticity,speed,density")
		role      = flag.String("role", "both", "both (one process), sim, or viz (two applications over TCP)")
		connect   = flag.String("connect", "", "comma-separated analysis addresses (role=sim)")
		bind      = flag.String("bind", "127.0.0.1:0", "listener bind address (role=viz)")
		gifOut    = flag.String("gif", "", "also write an animated GIF of the first field to this path")
		stats     = flag.String("stats", "", "write per-frame field statistics (min/max/mean/rms) as CSV to this path")
		trace     = flag.String("trace-out", "", "write a Perfetto/Chrome trace of the pipeline to this JSON file")
		metrics   = flag.String("metrics-out", "", "write Prometheus text-format metrics to this file")
		pprof     = flag.String("pprof-addr", "", "serve /metrics and /debug/pprof on this address while running")
		merge     = flag.String("trace-merge", "", "gather every rank's spans at rank 0, clock-correct them, and write one merged multi-rank Perfetto timeline (role=both only)")
		flightN   = flag.Int("flightrec", 0, "arm a flight recorder keeping the last N transport events, dumped on peer loss, SIGQUIT, and /debug/flightrec (0 disables)")
		memBudget = flag.Int("mem-budget", 0, "per-rank exchange staging budget in bytes; frames exceeding it regrid through the bounded step compiler (0 = unbounded)")
	)
	var shared experiments.Flags
	shared.Bind(flag.CommandLine)
	flag.Parse()
	if err := shared.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "lbmsim:", err)
		os.Exit(2)
	}
	tel, flush, err := experiments.TelemetryFromFlags(*trace, *metrics, *pprof, *merge, *flightN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbmsim:", err)
		os.Exit(1)
	}
	cfg := experiments.InTransitConfig{
		M: *sim, N: *viz,
		GridW: *width, GridH: *height,
		Iterations:    *iters,
		OutputEvery:   *every,
		JPEGQuality:   *quality,
		Fields:        strings.Split(*fields, ","),
		GIFPath:       *gifOut,
		StatsPath:     *stats,
		Telemetry:     tel,
		Transport:     shared.Transport,
		MemBudget:     *memBudget,
		PipelineDepth: shared.PipelineDepth,
	}
	if err := run(cfg, *role, *connect, *bind, *out); err != nil {
		fmt.Fprintln(os.Stderr, "lbmsim:", err)
		os.Exit(1)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "lbmsim: telemetry:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.InTransitConfig, role, connect, bind, out string) error {
	report := func(res *experiments.InTransitResult) {
		fmt.Printf("%d sim ranks -> %d analysis ranks, %d frames of %dx%d\n",
			cfg.M, cfg.N, res.Frames, cfg.GridW, cfg.GridH)
		fmt.Printf("raw output would be %.1f MB; rendered JPEG output is %.2f MB (%.2f%% reduction)\n",
			float64(res.RawBytes)/1e6, float64(res.ProcessedBytes)/1e6, res.ReductionPct)
	}
	switch role {
	case "both":
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		cfg.OutDir = out
		res, err := experiments.RunInTransit(cfg)
		if err != nil {
			return err
		}
		report(res)
		return nil
	case "viz":
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		cfg.OutDir = out
		res, err := experiments.RunInTransitBridgeViz(cfg, bind, func(addrs []string) {
			fmt.Printf("BRIDGE %s\n", strings.Join(addrs, ","))
		})
		if err != nil {
			return err
		}
		report(res)
		return nil
	case "sim":
		if connect == "" {
			return fmt.Errorf("role=sim needs -connect with the viz side's BRIDGE addresses")
		}
		return experiments.RunInTransitBridgeSim(cfg, strings.Split(connect, ","))
	default:
		return fmt.Errorf("unknown role %q", role)
	}
}
