package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// shortConfig runs a workload at test sizes: one world, a few epochs per
// window, every window present.
func shortConfig(t *testing.T) config {
	return config{seed: 7, short: true, setups: 1, warmup: 4, duration: 100 * time.Millisecond,
		traceDur: 100 * time.Millisecond, floorDur: 30 * time.Millisecond, outDir: t.TempDir()}
}

// TestOracle runs every workload at -short sizes and checks the oracle
// both ways: a healthy run fails no epoch, and one flipped byte in one
// need buffer fails some. It also checks the world leaves no goroutine
// behind.
func TestOracle(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res, err := run(w, shortConfig(t), header{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Metrics["failed_frac"] != 0 {
				t.Fatalf("healthy run failed %d of %d epochs: %s", res.Failed, res.Attempted, res.FirstFailure)
			}
			if res.Epochs == 0 || res.TracedEpochs == 0 {
				t.Fatalf("windows are empty: %d timed, %d traced epochs", res.Epochs, res.TracedEpochs)
			}
			if got := int(res.Layers["runtime.goroutines_end"]); got > before {
				t.Errorf("%d goroutines after the workload, %d before", got, before)
			}
			if sum := res.Layers["obs.share_sum"]; math.Abs(sum-1) > 0.05 {
				t.Errorf("per-layer self-time shares sum to %.3f of the traced epoch time", sum)
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			L := res.Layers
			if bounded := L["core.bounded_steps"] > 0; bounded != (w.name == "stack_bounded") {
				t.Errorf("core.bounded_steps = %v", L["core.bounded_steps"])
			}
			// Only elastic_churn maps inside the window, and its layouts
			// outnumber both caches.
			if churn := w.name == "elastic_churn"; churn != (L["core.setup_mapping_calls"] > 0) ||
				churn != (L["core.plan_cache_misses"] > 0) || churn != (L["core.plan_cache_hit_ratio"] < 0.5) ||
				churn != (L["core.delta_cache_hit_ratio"] < 0.5) {
				t.Errorf("plan layer: %v mappings/epoch, %v misses, hit ratios %v (plan) %v (delta)", L["core.setup_mapping_calls"],
					L["core.plan_cache_misses"], L["core.plan_cache_hit_ratio"], L["core.delta_cache_hit_ratio"])
			}
			if L["core.plan_rounds"] == 0 || L["core.setup_mapping_ms"] == 0 {
				t.Errorf("core.plan_rounds = %v, core.setup_mapping_ms = %v", L["core.plan_rounds"], L["core.setup_mapping_ms"])
			}

			cfg := shortConfig(t)
			cfg.traceDur = 0
			cfg.corrupt = func(needs [][]byte) { needs[0][7] ^= 0x40 }
			res, err = run(w, cfg, header{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Metrics["failed_frac"] <= 0 {
				t.Fatalf("a flipped byte in a need buffer went unnoticed over %d epochs", res.Attempted)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload vocabulary in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []*workload
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated ones in ddrperf", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in ddrperf", i, w.Name, gated[i].name)
		}
	}
	check := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in ddrperf", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in ddrperf", what, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, contractMetrics(false))
	check("per_layer", spec.PerLayer, contractMetrics(true))
}

// TestBestBlock checks how a window is cut into blocks and that the
// timings come from the best one.
func TestBestBlock(t *testing.T) {
	ms := make([]float64, 83)
	for i := range ms {
		ms[i] = 10
	}
	for i := 20; i < 25; i++ { // one block of five is the quiet one...
		ms[i] = 5
	}
	ms[22] = 1000 // ...but for one stalled epoch, which its median shrugs off and its mean does not
	var sizes []int
	for _, b := range blocks(ms, 1) {
		sizes = append(sizes, len(b))
	}
	if want := []int{10, 10, 10, 10, 10, 10, 10, 13}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("blocks of 83 epochs: %v, want %v", sizes, want)
	}
	if p50, mean := bestBlock([][]float64{ms[:40], ms[40:]}, 1); p50 != 5 || mean != 10 {
		t.Errorf("bestBlock = %v, %v, want 5, 10", p50, mean)
	}
	// Blocks are whole cycles, and a window shorter than a cycle is one block.
	sizes = nil
	for _, n := range []int{5 * 64, 17 * 64, 40} {
		sizes = append(sizes, len(blocks(make([]float64, n), 64)))
	}
	if want := []int{5, 8, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("blocks of 5 and 17 cycles and of part of one: %v, want %v", sizes, want)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

// TestCompare checks the three verdicts' exit behaviour: only a
// regression the spread can resolve, or a rise in an exact count in any
// one run, is an error.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "epoch_ms_p50", "better": "lower", "bound": 0.05},
		{"name": "goodput_MBps", "better": "higher", "bound": 0.05}}})
	rep := func(p50 []float64, failed float64) report {
		var r report
		for _, v := range p50 {
			r.Runs = append(r.Runs, &runResult{Workload: "stack_to_bricks",
				Metrics: map[string]float64{"setup_s": 1, "epoch_ms_p50": v, "goodput_MBps": 1000 / v, "failed_frac": failed}})
		}
		return r
	}
	base := write("a.json", rep([]float64{10, 10.1, 9.9, 10, 10.05}, 0))
	// One failed epoch in one run of five: the median of failed_frac is 0.
	oneBad := rep([]float64{10, 10.1, 9.9, 10, 10.05}, 0)
	oneBad.Runs[3].Metrics["failed_frac"] = 0.004
	for _, tc := range []struct {
		name    string
		b       report
		wantErr bool
	}{
		{"ok", rep([]float64{10.2, 10.1, 10.3, 10.2, 10.25}, 0), false},
		{"unresolved", rep([]float64{9, 11, 10, 8.5, 11.5}, 0), false},
		{"unresolved and worse", rep([]float64{10, 13, 12, 9.5, 13.5}, 0), false},
		{"regressed", rep([]float64{11, 11.1, 10.9, 11, 11.05}, 0), true},
		{"failed rise", rep([]float64{10, 10.1, 9.9, 10, 10.05}, 0.01), true},
		{"failed rise in one run", oneBad, true},
	} {
		if err := compareReports(spec, base, write(tc.name+".json", tc.b)); (err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}
