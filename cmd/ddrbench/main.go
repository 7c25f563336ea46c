// Command ddrbench regenerates every table and figure of the paper's
// evaluation section:
//
//	ddrbench -table 1        Table I   (E1 mapping parameters, exact)
//	ddrbench -table 2        Table II  (TIFF load times, modelled at paper scale)
//	ddrbench -table 3        Table III (alltoallw schedules, exact)
//	ddrbench -table 4        Table IV  (raw vs JPEG output size)
//	ddrbench -figure 2       Figure 2  (parallel DVR rendering -> PNG)
//	ddrbench -figure 3       Figure 3  (strong-scaling series)
//	ddrbench -figure 4       Figure 4  (M-to-N in-transit streaming run)
//	ddrbench -figure 5       Figure 5  (slab-to-rectangle regrid mapping)
//	ddrbench -real           laptop-scale real-execution TIFF study
//	ddrbench -all            everything above
//
// The real-execution experiments (-ablation, -figure 4) can emit their
// telemetry: -trace-out writes a Perfetto-loadable timeline, -metrics-out
// a Prometheus text file, and -pprof-addr serves live /metrics and
// /debug/pprof while the run is in flight. -trace-merge gathers every
// rank's spans at rank 0 — clock-corrected by a ping-pong offset
// estimate — and writes one multi-rank Perfetto timeline plus a
// straggler report; -flightrec N arms a per-process postmortem ring of
// the last N transport events, dumped on peer loss, SIGQUIT, and
// /debug/flightrec; -transport=tcp runs the in-transit ranks over the
// loopback TCP transport so the traced frames are real wire frames.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ddr/internal/colormap"
	"ddr/internal/experiments"
	"ddr/internal/grid"
	"ddr/internal/perfmodel"
	"ddr/internal/tiff"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce table N (1-4)")
		figure    = flag.Int("figure", 0, "reproduce figure N (2-5)")
		all       = flag.Bool("all", false, "reproduce every table and figure")
		real      = flag.Bool("real", false, "run the laptop-scale real-execution TIFF study")
		ablation  = flag.Bool("ablation", false, "run the pipeline-depth ablation study (serial paper rounds vs pipelined)")
		outDir    = flag.String("out", "ddrbench-out", "directory for rendered outputs")
		t4w       = flag.Int("t4width", 648, "grid width for the Table IV JPEG density measurement")
		t4h       = flag.Int("t4height", 260, "grid height for the Table IV JPEG density measurement")
		t4fr      = flag.Int("t4frames", 5, "frames for the Table IV measurement")
		quality   = flag.Int("quality", 75, "JPEG quality")
		traceOut  = flag.String("trace-out", "", "write a Perfetto/Chrome trace of the instrumented runs to this JSON file")
		metrics   = flag.String("metrics-out", "", "write Prometheus text-format metrics of the instrumented runs to this file")
		pprof     = flag.String("pprof-addr", "", "serve /metrics and /debug/pprof on this address while running")
		mergeOut  = flag.String("trace-merge", "", "gather every rank's spans at rank 0, clock-correct them, and write one merged multi-rank Perfetto timeline (plus a straggler report on stderr) to this JSON file")
		flightN   = flag.Int("flightrec", 0, "arm a flight recorder keeping the last N transport events, dumped on peer loss, SIGQUIT, and /debug/flightrec (0 disables)")
		memBudget = flag.Int("mem-budget", 0, "per-rank exchange staging budget in bytes for the in-transit pipeline; frames exceeding it regrid through the bounded step compiler (0 = unbounded)")
	)
	var shared experiments.Flags
	shared.Bind(flag.CommandLine)
	flag.Parse()
	if err := shared.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "ddrbench:", err)
		os.Exit(2)
	}
	if !*all && *table == 0 && *figure == 0 && !*real && !*ablation {
		flag.Usage()
		os.Exit(2)
	}
	tel, flush, err := experiments.TelemetryFromFlags(*traceOut, *metrics, *pprof, *mergeOut, *flightN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddrbench:", err)
		os.Exit(1)
	}
	if err := run(tel, shared.Transport, *memBudget, shared.PipelineDepth, *table, *figure, *all, *real, *ablation, *outDir, *t4w, *t4h, *t4fr, *quality); err != nil {
		fmt.Fprintln(os.Stderr, "ddrbench:", err)
		os.Exit(1)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "ddrbench: telemetry:", err)
		os.Exit(1)
	}
}

func run(tel *experiments.Telemetry, transport string, memBudget, pipeDepth int, table, figure int, all, real, ablation bool, outDir string, t4w, t4h, t4fr, quality int) error {
	machine := perfmodel.Cooley()
	want := func(t, f int) bool {
		return all || (t != 0 && table == t) || (f != 0 && figure == f)
	}

	if want(1, 0) {
		experiments.WriteTable1(os.Stdout, experiments.Table1())
		fmt.Println()
	}
	if want(2, 0) {
		rows, err := experiments.Table2(machine)
		if err != nil {
			return err
		}
		experiments.WriteTable2(os.Stdout, rows)
		fmt.Println()
	}
	if want(3, 0) {
		rows, err := experiments.Table3()
		if err != nil {
			return err
		}
		experiments.WriteTable3(os.Stdout, rows)
		fmt.Println()
	}
	if want(4, 0) {
		fmt.Printf("Table IV: measuring JPEG density on a real %dx%d LBM run...\n", t4w, t4h)
		bpp, err := experiments.MeasureJPEGBytesPerPixel(t4w, t4h, 400, t4fr, 100, quality)
		if err != nil {
			return err
		}
		experiments.WriteTable4(os.Stdout, experiments.Table4(bpp, 200), bpp)
		fmt.Println()
	}
	if want(0, 2) {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		img, err := experiments.RenderFigure2(192, 192, 128, 8)
		if err != nil {
			return err
		}
		// Attach the density color ramp beside the render, mirroring the
		// colormap swatch in the paper's Figure 2.
		withLegend, err := colormap.WithLegend(img, colormap.Heat)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, "figure2_dvr.png")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := colormap.EncodePNG(f, withLegend); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Figure 2: parallel DVR rendering of the synthetic CT volume -> %s\n\n", path)
	}
	if want(0, 3) {
		s, err := experiments.Figure3(machine)
		if err != nil {
			return err
		}
		experiments.WriteFigure3(os.Stdout, s)
		fmt.Println()
	}
	if want(0, 4) {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		fmt.Println("Figure 4: running the M-to-N in-transit pipeline (8 sim ranks -> 2 analysis ranks)...")
		res, err := experiments.RunInTransit(experiments.InTransitConfig{
			M: 8, N: 2,
			GridW: 648, GridH: 260,
			Iterations:    2000,
			OutputEvery:   200,
			JPEGQuality:   quality,
			OutDir:        outDir,
			Telemetry:     tel,
			Transport:     transport,
			MemBudget:     memBudget,
			PipelineDepth: pipeDepth,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  frames=%d raw=%.1f MB jpeg=%.2f MB reduction=%.2f%% (frames in %s)\n\n",
			res.Frames, float64(res.RawBytes)/1e6, float64(res.ProcessedBytes)/1e6,
			res.ReductionPct, outDir)
	}
	if want(0, 5) {
		m, err := experiments.Figure5(10, 4, 640, 400)
		if err != nil {
			return err
		}
		fmt.Println("Figure 5: redistribution of 10 producer slabs onto 4 near-square analysis rectangles")
		for c, need := range m.ConsumerNeeds {
			fmt.Printf("  consumer %d receives %d slab chunks -> needs %v\n",
				c, len(m.ChunksPerCons[c]), need)
		}
		fmt.Printf("  regrid schedule: %v\n\n", m.Stats)
	}
	if ablation || all {
		const reps = 20
		fmt.Println("running the pipeline-depth ablation (real execution, 8 ranks)...")
		rows, err := experiments.DepthAblation(8,
			grid.Box3(0, 0, 0, 64, 64, 128), []int{1, 2, 4, 8, 16}, reps, tel)
		if err != nil {
			return err
		}
		experiments.WriteAblation(os.Stdout, rows, reps)
		fmt.Println()
	}
	if real {
		dir := filepath.Join(outDir, "stack")
		if _, err := os.Stat(tiff.SlicePath(dir, 0)); err != nil {
			fmt.Printf("generating synthetic stack (256x128x64, 16-bit) in %s...\n", dir)
			if err := tiff.WriteStack(dir, 256, 128, 64, 16, tiff.FormatUint); err != nil {
				return err
			}
		}
		rows, err := experiments.RunRealTIFFStudy(dir, []int{8, 27, 64})
		if err != nil {
			return err
		}
		experiments.WriteRealStudy(os.Stdout, rows)
	}
	return nil
}
