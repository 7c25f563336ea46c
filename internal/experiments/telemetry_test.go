package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// A telemetry-attached in-transit run must leave behind the pipeline
// phase histograms for both roles, the DDR exchange series on the
// consumer ranks, message-layer counters on every rank, and a Perfetto
// export with one lane per world rank.
func TestInTransitTelemetry(t *testing.T) {
	const m, n = 4, 2
	tel := &Telemetry{Trace: trace.NewRecorder(), Metrics: obs.NewRegistry()}
	res, err := RunInTransit(InTransitConfig{
		M: m, N: n,
		GridW: 48, GridH: 36,
		Iterations:  30,
		OutputEvery: 10,
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 3 {
		t.Fatalf("frames = %d, want 3", res.Frames)
	}

	phase := func(rank int, name string) int64 {
		return tel.Metrics.Histogram("pipeline_phase_seconds", "", nil,
			obs.RankLabel(rank), obs.Label{Key: "phase", Value: name}).Count()
	}
	// Producers are world ranks 0..m-1: one sim + one extract+send phase
	// per streamed step.
	for r := 0; r < m; r++ {
		if got := phase(r, "sim"); got != 3 {
			t.Errorf("producer %d sim phases = %d, want 3", r, got)
		}
		if got := phase(r, "extract+send"); got != 3 {
			t.Errorf("producer %d send phases = %d, want 3", r, got)
		}
	}
	// Consumers are world ranks m..m+n-1: recv/decode/regrid/gather per
	// step and field, plus one DDR exchange series each.
	for r := m; r < m+n; r++ {
		for _, name := range []string{"recv", "decode", "regrid", "gather"} {
			if got := phase(r, name); got != 3 {
				t.Errorf("consumer %d %s phases = %d, want 3", r, name, got)
			}
		}
		exch := tel.Metrics.Histogram("ddr_exchange_seconds", "", nil, obs.RankLabel(r))
		if exch.Count() != 3 {
			t.Errorf("consumer %d exchanges = %d, want 3", r, exch.Count())
		}
		if c := tel.Metrics.Histogram("ddr_plan_compile_seconds", "", nil, obs.RankLabel(r)); c.Count() != 1 {
			t.Errorf("consumer %d plan compiles = %d, want 1", r, c.Count())
		}
	}
	// Only consumer rank m renders (consumer-local rank 0).
	if got := phase(m, "render+encode"); got != 3 {
		t.Errorf("render phases = %d, want 3", got)
	}
	if got := phase(m+1, "render+encode"); got != 0 {
		t.Errorf("non-root consumer rendered %d frames", got)
	}
	// Every world rank moved bytes through the instrumented send path.
	for r := 0; r < m+n; r++ {
		if sent := tel.Metrics.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(r)).Value(); sent <= 0 {
			t.Errorf("rank %d counted no sent bytes", r)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, tel.Trace); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	lanes := map[int]bool{}
	for _, e := range parsed.TraceEvents {
		if e.Ph == "X" {
			lanes[e.Tid] = true
		}
	}
	for r := 0; r < m+n; r++ {
		if !lanes[r] {
			t.Errorf("no spans on world rank %d's lane", r)
		}
	}

	var prom bytes.Buffer
	if err := tel.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "# TYPE pipeline_phase_seconds histogram") {
		t.Error("Prometheus export missing pipeline_phase_seconds")
	}
}

// The ablation accepts an optional telemetry bundle and records one
// exchange series per rank, fed by both depths.
func TestAblationTelemetry(t *testing.T) {
	tel := &Telemetry{Metrics: obs.NewRegistry()}
	if _, err := DepthAblation(4, grid.Box3(0, 0, 0, 16, 16, 32), []int{1, 2}, 2, tel); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		h := tel.Metrics.Histogram("ddr_exchange_seconds", "", nil, obs.RankLabel(r))
		// Two depths x two chunk counts x (one untimed run + two reps).
		if h.Count() != 12 {
			t.Errorf("rank %d exchanges = %d, want 12", r, h.Count())
		}
	}
}

// A nil telemetry bundle must be inert everywhere it can be passed.
func TestTelemetryNil(t *testing.T) {
	var tel *Telemetry
	if tel.enabled() {
		t.Error("nil telemetry reports enabled")
	}
	if opts := tel.coreOpts(); opts != nil {
		t.Errorf("nil telemetry produced options %v", opts)
	}
	tel.phase(0, "x")() // must not panic
	if _, err := DepthAblation(4, grid.Box3(0, 0, 0, 8, 8, 16), []int{1}, 1, nil); err != nil {
		t.Fatal(err)
	}
	_, flush, err := TelemetryFromFlags("", "", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

// An in-transit run on shm reports to its registry from the world's
// first message, so every gauge of every rank ends at exactly zero:
// nothing stays pending, in a ring or in a send queue, and no move is
// counted on one side only.
func TestInTransitShmGaugesEndAtZero(t *testing.T) {
	const m, n = 4, 2
	tel := &Telemetry{Metrics: obs.NewRegistry()}
	if _, err := RunInTransit(InTransitConfig{
		M: m, N: n,
		GridW: 48, GridH: 36,
		Iterations:  20,
		OutputEvery: 10,
		Telemetry:   tel,
		Transport:   "shm",
	}); err != nil {
		t.Fatal(err)
	}
	if tel.Metrics.Counter("mpi_shm_bytes_in_total", "", obs.RankLabel(m)).Value() == 0 {
		t.Fatal("consumer rank received no shm bytes")
	}
	for r := 0; r < m+n; r++ {
		for _, gauge := range []string{"mpi_pending_messages", "mpi_shm_ring_occupancy_bytes", "mpi_tcp_send_queue_depth"} {
			if v := tel.Metrics.Gauge(gauge, "", obs.RankLabel(r)).Value(); v != 0 {
				t.Errorf("rank %d: %s ends at %d, want 0", r, gauge, v)
			}
		}
	}
}
