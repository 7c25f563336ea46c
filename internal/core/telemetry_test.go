package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// telemetryWorld runs a 4-rank row-strip -> column-strip redistribution
// of a 64x64 float32 field with the given descriptor options, calling
// ReorganizeData iters times on the reusable mapping.
func telemetryWorld(iters int, opts ...Option) error {
	return telemetryWorldOn(nil, iters, opts...)
}

// telemetryWorldOn is telemetryWorld launched with the given options.
func telemetryWorldOn(launch []mpi.LaunchOption, iters int, opts ...Option) error {
	const n, side = 4, 64
	return mpi.Launch(n, func(c *mpi.Comm) error {
		d, err := NewDescriptor(n, Layout2D, Float32, opts...)
		if err != nil {
			return err
		}
		strip := side / n
		own := grid.Box2(0, c.Rank()*strip, side, strip)
		need := grid.Box2(c.Rank()*strip, 0, strip, side)
		if err := d.SetupDataMapping(c, []grid.Box{own}, need); err != nil {
			return err
		}
		ownBuf := fillBox(own, d.ElemSize())
		needBuf := make([]byte, need.Volume()*d.ElemSize())
		for i := 0; i < iters; i++ {
			if err := d.ReorganizeData(c, [][]byte{ownBuf}, needBuf); err != nil {
				return err
			}
		}
		return checkBox(needBuf, need, d.ElemSize(), nil, 0)
	}, launch...)
}

// Every exchange mode must leave behind the plan-compile histogram, the
// per-mode exchange latency histogram, exchanged-bytes counters, and the
// per-rank mapping/exchange spans the acceptance criteria call for.
func TestTelemetryPopulatedAllModes(t *testing.T) {
	const n = 4
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			rec := trace.NewRecorder()
			if err := telemetryWorld(2, WithExchangeMode(mode), WithMetrics(reg), WithTracer(rec)); err != nil {
				t.Fatal(err)
			}
			ml := obs.Label{Key: "mode", Value: mode.String()}
			for r := 0; r < n; r++ {
				rl := obs.RankLabel(r)
				if h := reg.Histogram("ddr_plan_compile_seconds", "", nil, rl); h.Count() != 1 {
					t.Errorf("rank %d plan-compile observations = %d, want 1", r, h.Count())
				}
				if h := reg.Histogram("ddr_exchange_seconds", "", nil, rl, ml); h.Count() != 2 {
					t.Errorf("rank %d exchange observations = %d, want 2", r, h.Count())
				}
				if h := reg.Histogram("ddr_exchange_round_seconds", "", nil, rl, ml); h.Count() == 0 {
					t.Errorf("rank %d recorded no rounds", r)
				}
				// Each rank's strip overlaps 3 peers' need columns with
				// strip*strip cells each, twice: 2*3*16*16*4 bytes.
				if got := reg.Counter("ddr_exchange_bytes_total", "", rl, ml).Value(); got != 2*3*16*16*4 {
					t.Errorf("rank %d exchanged %d bytes, want %d", r, got, 2*3*16*16*4)
				}
			}
			perRank := map[int]map[string]int{}
			for _, e := range rec.Events() {
				if perRank[e.Rank] == nil {
					perRank[e.Rank] = map[string]int{}
				}
				switch {
				case e.Name == "mapping":
					perRank[e.Rank]["mapping"]++
				case e.Name == "exchange":
					perRank[e.Rank]["exchange"]++
				case strings.HasPrefix(e.Name, "round-"):
					perRank[e.Rank]["round"]++
				}
			}
			for r := 0; r < n; r++ {
				got := perRank[r]
				if got["mapping"] != 1 || got["exchange"] != 2 {
					t.Errorf("rank %d spans %v, want mapping=1 exchange=2", r, got)
				}
				if got["round"] != 2 {
					t.Errorf("rank %d round spans = %d, want 2", r, got["round"])
				}
			}
			// The Prometheus export must carry all the families.
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			text := buf.String()
			for _, family := range []string{
				"ddr_plan_compile_seconds", "ddr_exchange_seconds",
				"ddr_exchange_round_seconds", "ddr_exchange_bytes_total",
			} {
				if !strings.Contains(text, "# TYPE "+family) {
					t.Errorf("Prometheus export missing family %s", family)
				}
			}
		})
	}
}

// The pack/unpack histograms only exist for the modes that pack on the
// application side (the alltoallw mode packs inside the collective).
// Every rank packs for 3 peers whatever path the message takes. Its
// receives are contiguous (full-width bands of the column strip), so a
// message either lands in the posted span — packed there by the sender on
// inproc, copied there by the ring consumer on shm; no unpack either way
// — or arrives eagerly and is placed by one unpack: unpacks = 12 -
// landed, exactly, however the ranks interleave.
func TestTelemetryPackUnpackObserved(t *testing.T) {
	transports := map[string][]mpi.LaunchOption{
		"inproc": {mpi.WithFaultInjector(nil)},
		"shm":    {mpi.WithTransport(mpi.TransportShm), mpi.WithFaultInjector(nil)},
	}
	for name, launch := range transports {
		reg := obs.NewRegistry()
		if err := telemetryWorldOn(launch, 1, WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
		var packs, unpacks, landed int64
		for r := 0; r < 4; r++ {
			packs += reg.Histogram("ddr_pack_seconds", "", nil, obs.RankLabel(r)).Count()
			unpacks += reg.Histogram("ddr_unpack_seconds", "", nil, obs.RankLabel(r)).Count()
			landed += reg.Counter("ddr_landed_messages_total", "", obs.RankLabel(r)).Value()
		}
		if packs != 4*3 || unpacks != 4*3-landed {
			t.Errorf("%s: %d packs, %d unpacks, %d landed; want 12 packs and 12-landed unpacks", name, packs, unpacks, landed)
		}
	}
}

// benchmarkReorganize times the steady-state ReorganizeData replay under
// the given options. The world is held open across iterations so only the
// exchange itself is measured.
func benchmarkReorganize(b *testing.B, opts ...Option) {
	const n, side = 4, 64
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		d, err := NewDescriptor(n, Layout2D, Float32, opts...)
		if err != nil {
			return err
		}
		strip := side / n
		own := grid.Box2(0, c.Rank()*strip, side, strip)
		need := grid.Box2(c.Rank()*strip, 0, strip, side)
		if err := d.SetupDataMapping(c, []grid.Box{own}, need); err != nil {
			return err
		}
		ownBuf := make([]byte, own.Volume()*d.ElemSize())
		needBuf := make([]byte, need.Volume()*d.ElemSize())
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := d.ReorganizeData(c, [][]byte{ownBuf}, needBuf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReorganizeTelemetry compares the un-instrumented exchange
// against the same exchange with tracing and metrics attached, per mode.
// The "off" variants are the regression guard: detached descriptors must
// not pay for the telemetry layer.
func BenchmarkReorganizeTelemetry(b *testing.B) {
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		b.Run(fmt.Sprintf("%v/off", mode), func(b *testing.B) {
			benchmarkReorganize(b, WithExchangeMode(mode))
		})
		b.Run(fmt.Sprintf("%v/on", mode), func(b *testing.B) {
			benchmarkReorganize(b, WithExchangeMode(mode),
				WithTracer(trace.NewRecorder()), WithMetrics(obs.NewRegistry()))
		})
	}
}
