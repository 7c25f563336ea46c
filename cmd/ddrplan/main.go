// Command ddrplan is an offline schedule analyzer: it compiles the exact
// DDR communication plan for a described geometry — no data, no ranks —
// and prints the Table-III-style statistics, letting users size workloads
// before running them. Two geometry families cover the paper's use cases:
//
//	ddrplan -mode stack -width 4096 -height 2048 -depth 4096 -elem 4 \
//	        -procs 216 -technique consecutive
//	ddrplan -mode regrid -width 25904 -height 10360 -elem 4 -producers 128 -consumers 32
//
// The per-round table shows each rank's wire bytes per round (max/avg),
// read from every rank's compiled plan (CompileSchedule), exposing
// imbalance the aggregate stats can hide.
//
// With -sweep, ddrplan instead profiles compile-time scaling across a
// list of process counts, printing the per-phase cost of establishing the
// mapping at each scale — geometry allgather payload, cache-key
// fingerprint, and plan compile:
//
//	ddrplan -mode stack -sweep 64,256,1024
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ddr/internal/core"
	"ddr/internal/experiments"
	"ddr/internal/grid"
)

func main() {
	var (
		mode      = flag.String("mode", "stack", "geometry family: stack or regrid")
		width     = flag.Int("width", 4096, "domain width")
		height    = flag.Int("height", 2048, "domain height")
		depth     = flag.Int("depth", 4096, "domain depth / image count (stack mode)")
		elem      = flag.Int("elem", 4, "element size in bytes")
		procs     = flag.Int("procs", 64, "process count (stack mode)")
		technique = flag.String("technique", "consecutive", "stack chunking: consecutive or round-robin")
		producers = flag.Int("producers", 128, "producer ranks (regrid mode)")
		consumers = flag.Int("consumers", 32, "consumer ranks (regrid mode)")
		perRound  = flag.Bool("rounds", false, "print the per-round traffic table")
		save      = flag.String("save", "", "write the geometry as JSON to this path")
		load      = flag.String("load", "", "analyze a geometry JSON instead of -mode")
		sweep     = flag.String("sweep", "", "comma-separated process counts: profile compile-time scaling with per-phase timings")
	)
	flag.Parse()
	if *sweep != "" {
		if err := runSweep(*mode, *width, *height, *depth, *elem, *technique, *producers, *consumers, *sweep); err != nil {
			fmt.Fprintln(os.Stderr, "ddrplan:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*mode, *width, *height, *depth, *elem, *procs, *technique, *producers, *consumers, *perRound, *save, *load); err != nil {
		fmt.Fprintln(os.Stderr, "ddrplan:", err)
		os.Exit(1)
	}
}

// buildGeometry constructs the selected geometry family at a given
// process count.
func buildGeometry(mode string, width, height, depth, procs int, technique string, producers, consumers int) ([][]grid.Box, []grid.Box, error) {
	switch mode {
	case "stack":
		tech := experiments.Consecutive
		if technique == "round-robin" {
			tech = experiments.RoundRobin
		} else if technique != "consecutive" {
			return nil, nil, fmt.Errorf("unknown technique %q", technique)
		}
		domain := grid.Box3(0, 0, 0, width, height, depth)
		chunks, needs := experiments.StackGeometry(domain, procs, tech)
		return chunks, needs, nil
	case "regrid":
		// Scale the flags' producer:consumer ratio to the requested size.
		cons := max(1, procs*consumers/max(1, producers))
		m, err := experiments.Figure5(procs, cons, width, height)
		if err != nil {
			return nil, nil, err
		}
		return m.ChunksPerCons, m.ConsumerNeeds, nil
	default:
		return nil, nil, fmt.Errorf("unknown mode %q", mode)
	}
}

// runSweep profiles the offline compile across a list of process counts.
func runSweep(mode string, width, height, depth, elem int, technique string, producers, consumers int, sweep string) error {
	var counts []int
	for _, f := range strings.Split(sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -sweep entry %q", f)
		}
		counts = append(counts, n)
	}
	fmt.Printf("compile-time scaling, %s geometry\n", mode)
	fmt.Printf("%-8s %8s %12s %12s %10s %10s  %s\n",
		"procs", "chunks", "gather KiB", "max enc B", "encode", "compile", "cache key")
	for _, p := range counts {
		chunks, needs, err := buildGeometry(mode, width, height, depth, p, technique, producers, consumers)
		if err != nil {
			return err
		}
		_, prof, err := core.ProfileMapping(0, elem, chunks, needs)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %8d %12.1f %12d %10s %10s  %016x (%s)\n",
			prof.Procs, prof.TotalChunks,
			float64(prof.AllgatherBytes)/1024, prof.MaxEncodedBytes,
			prof.EncodeTime.Round(10e3), prof.CompileTime.Round(10e3),
			prof.Fingerprint, prof.FingerprintTime.Round(1e3))
	}
	return nil
}

func run(mode string, width, height, depth, elem, procs int, technique string, producers, consumers int, perRound bool, save, load string) error {
	var (
		allChunks [][]grid.Box
		allNeeds  []grid.Box
		label     string
		err       error
	)
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		g, err := core.LoadGeometry(f)
		f.Close()
		if err != nil {
			return err
		}
		if allChunks, allNeeds, err = g.Boxes(); err != nil {
			return err
		}
		elem, label = g.ElemSize, fmt.Sprintf("geometry file %s", load)
	} else {
		switch mode {
		case "stack":
			label = fmt.Sprintf("stack %dx%dx%d, %d procs, %s chunking", width, height, depth, procs, technique)
		case "regrid":
			procs = producers
			label = fmt.Sprintf("regrid %dx%d, %d producers -> %d consumers", width, height, producers, consumers)
		default:
			return fmt.Errorf("unknown mode %q", mode)
		}
		if allChunks, allNeeds, err = buildGeometry(mode, width, height, depth, procs, technique, producers, consumers); err != nil {
			return err
		}
	}

	// The stats need one rank's plan; the per-round table reads them all.
	var plans []*core.Plan
	if perRound {
		plans, err = core.CompileSchedule(elem, allChunks, allNeeds, 0)
	} else {
		var plan *core.Plan
		plan, err = core.NewPlanFromGeometry(0, elem, allChunks, allNeeds)
		plans = []*core.Plan{plan}
	}
	if err != nil {
		return err
	}
	return report(plans, label, elem, perRound, save)
}

// report prints the analysis — from rank 0's plan, the per-round table
// from every rank's — and optionally saves the geometry.
func report(plans []*core.Plan, label string, elem int, perRound bool, save string) error {
	plan := plans[0]
	stats := plan.Stats()
	fmt.Printf("plan for %s (%d-byte elements)\n", label, elem)
	fmt.Printf("  rounds:             %d\n", stats.Rounds)
	fmt.Printf("  total wire:         %.2f MiB\n", float64(stats.TotalWireBytes)/(1<<20))
	fmt.Printf("  kept local:         %.2f MiB (%.1f%% of all data)\n",
		float64(stats.SelfBytes)/(1<<20),
		100*float64(stats.SelfBytes)/float64(stats.SelfBytes+stats.TotalWireBytes))
	fmt.Printf("  per rank per round: %.2f MiB avg, %.2f MiB max\n",
		stats.PerRankRoundAvg/(1<<20), float64(stats.PerRankRoundMax)/(1<<20))
	fmt.Printf("  peers per round:    %d max of %d ranks (sparsity %.1f%%)\n",
		stats.MaxPeersPerRound, stats.Ranks,
		100*float64(stats.MaxPeersPerRound)/float64(stats.Ranks-min(stats.Ranks-1, 1)))

	if perRound {
		fmt.Printf("\n%-7s %14s %14s\n", "round", "max MiB/rank", "avg MiB/rank")
		for r := 0; r < stats.Rounds; r++ {
			var sum, mx int64
			active := 0
			for _, p := range plans {
				b := p.RoundSendBytes(r)
				if b > 0 {
					active++
					sum += b
				}
				if b > mx {
					mx = b
				}
			}
			avg := 0.0
			if active > 0 {
				avg = float64(sum) / float64(active)
			}
			fmt.Printf("%-7d %14.2f %14.2f\n", r, float64(mx)/(1<<20), avg/(1<<20))
		}
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := plan.Geometry().Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("geometry saved to %s\n", save)
	}
	return nil
}
