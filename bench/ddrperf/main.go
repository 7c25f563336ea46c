// ddrperf is the repository's one end-to-end, layer-attributed benchmark.
//
// It runs five named workloads on the library's defaults, each as a
// closed loop of back-to-back redistribution epochs inside long-lived
// worlds (launch once, loop inside; ranks are goroutines of this process;
// a run builds a few worlds one after the other), checks every result
// against a closed-form fill oracle, prints every metric by name with its
// unit, and then makes a separate traced run for the per-layer numbers.
// See ../README.md for the vocabulary and the commands.
//
//	ddrperf                                   # full report: all workloads, reportRuns each, then a traced run
//	ddrperf -workload W -seed N -seconds S -trace 0|1   # one run, one JSON line last (BENCHMARK.json contract)
//	ddrperf -compare A.json B.json            # regression verdicts between two report files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// header is the provenance block written at the top of every output.
type header struct {
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	LLC        string            `json:"llc"`
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	Seed       uint64            `json:"seed"`
	Transports map[string]string `json:"transports"`
}

func newHeader(seed uint64) header {
	h := header{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LLC: "unknown",
		Go: runtime.Version(), Commit: "unknown", Seed: seed, Transports: map[string]string{}}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The last-level cache is the highest index the kernel lists for cpu0.
	if caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size"); len(caches) > 0 {
		if data, err := os.ReadFile(caches[len(caches)-1]); err == nil {
			h.LLC = strings.TrimSpace(string(data))
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	for _, w := range workloads {
		h.Transports[w.name] = w.transport.String()
	}
	return h
}

func (h header) print() {
	fmt.Printf("ddrperf: %s, nproc %d, GOMAXPROCS %d, LLC %s, %s, commit %s, seed %d\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.LLC, h.Go, h.Commit, h.Seed)
}

// report is the file a full run writes and -compare reads.
type report struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`   // untraced runs, reportRuns per workload
	Traced []*runResult `json:"traced"` // one traced run per workload
}

// setGOMAXPROCS applies the benchmark's rule: min(nproc, 4) unless the
// environment asks for something else, and never more than nproc.
func setGOMAXPROCS() error {
	nproc := runtime.NumCPU()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(nproc, 4))
		return nil
	}
	if p := runtime.GOMAXPROCS(0); p > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d: ranks would time-share cores the header does not show", p, nproc)
	}
	return nil
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "ddrperf:", err)
		os.Exit(1)
	}
}

// The windows no flag changes, so that every report and every commit
// measures the same thing.
const (
	reportRuns   = 5                       // untraced runs per workload in a full report
	tracedWindow = 5 * time.Second         // traced window of a traced run
	floorWindow  = 2500 * time.Millisecond // hand-written floor window of a traced run
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// untracedConfig is an end-to-end run: the workload's own number of
// worlds, each a cold set-up and an equal share of the measured seconds.
func untracedConfig(base config, sec float64) config {
	base.duration = seconds(sec)
	return base
}

// tracedConfig is a traced run, one world: the fixed traced and floor
// windows, and an untraced reference window that takes what is left of
// the measured seconds.
func tracedConfig(base config, sec float64) config {
	base.setups, base.minTimed = 1, 0
	base.traceDur, base.floorDur = tracedWindow, floorWindow
	base.duration = max(seconds(sec)-tracedWindow-floorWindow, floorWindow)
	return base
}

func realMain() error {
	var (
		name    = flag.String("workload", "", "run this one workload and print one JSON result line last; empty runs the full report")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		sec     = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "with -workload: 1 makes the traced per-layer run instead of the end-to-end run")
		outDir  = flag.String("outdir", "bench/out", "directory for trace-<workload>.json and report.json")
		compare = flag.Bool("compare", false, "compare two report files given as arguments against BENCHMARK.json's bounds")
		spec    = flag.String("benchmark", "BENCHMARK.json", "with -compare: the file holding the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareReports(*spec, flag.Arg(0), flag.Arg(1))
	}
	if err := setGOMAXPROCS(); err != nil {
		return err
	}
	hdr := newHeader(*seed)
	hdr.print()
	base := config{seed: *seed, warmup: 50, minTimed: 200, outDir: *outDir}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		cfg := untracedConfig(base, *sec)
		if *trace == 1 {
			cfg = tracedConfig(base, *sec)
		}
		res, err := run(w, cfg, hdr)
		if err != nil {
			return err
		}
		printResult(res)
		return printContractLine(res, *trace == 1)
	}

	rep := report{Header: hdr}
	// Rounds of one run per workload, not all runs of one workload in a
	// row: a slow minute of the machine then costs each workload one run,
	// which its median survives, not one workload all of its runs.
	for i := 0; i < reportRuns; i++ {
		for _, w := range workloads {
			resetPeakRSS()
			res, err := run(w, untracedConfig(base, *sec), hdr)
			if err != nil {
				return err
			}
			printResult(res)
			rep.Runs = append(rep.Runs, res)
		}
	}
	for _, w := range workloads {
		res, err := run(w, tracedConfig(base, *sec), hdr)
		if err != nil {
			return err
		}
		printResult(res)
		rep.Traced = append(rep.Traced, res)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*outDir, "report.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", path)
	for _, r := range append(rep.Runs, rep.Traced...) {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d epochs failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstFailure)
		}
	}
	return nil
}

// contractMetric and contractLine are the last line of a -workload run,
// in the shape BENCHMARK.json's driver reads.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contractMetrics lists the metrics of a -workload run's last line, as
// BENCHMARK.json declares them: untraced, the end-to-end metrics a
// relative bound holds; traced, every per-layer metric followed by the
// unbounded end-to-end metrics. failed_frac is in neither list: it
// travels as the line's failed/attempted.
func contractMetrics(traced bool) []metricDef {
	if !traced {
		return endToEndMetrics[:numBounded]
	}
	return append(append([]metricDef(nil), perLayerMetrics...), endToEndMetrics[numBounded:len(endToEndMetrics)-1]...)
}

func printContractLine(r *runResult, traced bool) error {
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range contractMetrics(traced) {
		v, ok := r.Layers[d.name]
		if !ok {
			v = r.Metrics[d.name]
		}
		line.Metrics[d.name] = contractMetric{v, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
