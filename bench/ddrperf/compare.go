package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are end-to-end metrics that repeat exactly, so any rise is
// a regression whatever the bounds say.
var exactCounts = []string{"peak_staging_bytes", "failed_frac"}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives.
func quartileSpread(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1
		lo := min(max(int(pos), 0), n-2)
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return ratio(q(3)-q(1), median(xs))
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric of one workload over a report's runs.
func (r *report) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload {
			out = append(out, run.Metrics[metric])
		}
	}
	return out
}

// worst is the largest value of one exact count over a report's runs of a
// workload: one bad run in five must show, which a median would hide.
func (r *report) worst(workload, metric string) float64 {
	var out float64
	for _, v := range r.values(workload, metric) {
		out = max(out, v)
	}
	return out
}

// compareReports prints, one row per workload, a verdict for every
// bounded end-to-end metric: unresolved (either side's quartile spread is
// wider than the bound, so neither "no change" nor "regressed" can be
// claimed), regressed (B's median worse than A's by more than the bound)
// or ok. It returns an error — a non-zero exit — only for a regression or
// a rise in an exact count in any run.
func compareReports(specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (commit %s)\nB: %s (commit %s)\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Printf("%-18s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Printf(" %-26s", fmt.Sprintf("%s(%.0f%%)", m.Name, 100*m.Bound))
	}
	fmt.Printf(" %s\n", "exact counts")
	regressed := 0
	for _, w := range workloads {
		if len(a.values(w.name, "setup_s")) == 0 || len(b.values(w.name, "setup_s")) == 0 {
			continue
		}
		fmt.Printf("%-18s", w.name)
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.name, m.Name), b.values(w.name, m.Name)
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf(" %-26s", fmt.Sprintf("%s %+.1f%% iqr %.1f%%", verdict, 100*worse, 100*spread))
		}
		var counts []string
		for _, name := range exactCounts {
			if wa, wb := a.worst(w.name, name), b.worst(w.name, name); wb > wa {
				counts = append(counts, fmt.Sprintf("regressed: %s %g -> %g", name, wa, wb))
				regressed++
			} else if wb < wa {
				counts = append(counts, fmt.Sprintf("%s %g -> %g", name, wa, wb))
			}
		}
		if len(counts) == 0 {
			counts = []string{"identical"}
		}
		fmt.Printf(" %s\n", strings.Join(counts, "; "))
	}
	if regressed > 0 {
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}
