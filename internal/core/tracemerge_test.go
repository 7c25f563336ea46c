package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"ddr/internal/chaos"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// TestTraceMergeRoundTrip is the end-to-end tentpole check: a 4-rank
// exchange with per-rank recorders, gathered and clock-corrected onto
// rank 0, must render as one Perfetto file with a track per rank, a
// shared exchange ID across ranks, and a non-empty straggler report.
func TestTraceMergeRoundTrip(t *testing.T) {
	const n, side = 4, 64
	var merged *mpi.MergedTrace
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rec := trace.NewRecorder()
		d, err := NewDescriptor(n, Layout2D, Float32,
			WithExchangeMode(ModePointToPoint), WithTracer(rec))
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
		if err := d.ReorganizeData(c, [][]byte{ownBuf}, needBuf); err != nil {
			return err
		}
		m, err := mpi.GatherTrace(c, rec)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			merged = m
		}
		return checkBox(needBuf, need, d.ElemSize(), nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil {
		t.Fatal("rank 0 got no merged trace")
	}

	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, merged.Events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	spansPerRank := map[int]int{}
	exchangeIDs := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spansPerRank[e.Pid]++
		if strings.HasPrefix(e.Name, "round-") || e.Name == "exchange" {
			id, ok := e.Args["exchange"].(string)
			if !ok || id == "" || id == strings.Repeat("0", 16) {
				t.Errorf("span %q on pid %d missing exchange arg: %v", e.Name, e.Pid, e.Args)
			}
			exchangeIDs[id] = true
		}
	}
	for r := 0; r < n; r++ {
		if spansPerRank[r] == 0 {
			t.Errorf("rank %d contributed no spans: %v", r, spansPerRank)
		}
	}
	if len(spansPerRank) != n {
		t.Errorf("merged trace has %d rank tracks, want %d: %v", len(spansPerRank), n, spansPerRank)
	}
	// One exchange ran, collectively minted: every rank must carry the
	// same ID.
	if len(exchangeIDs) != 1 {
		t.Errorf("spans carry %d distinct exchange IDs, want 1: %v", len(exchangeIDs), exchangeIDs)
	}

	report := trace.StragglerReport(merged.Events)
	if len(report) == 0 {
		t.Fatal("straggler report is empty for a traced multi-round exchange")
	}
	var rbuf bytes.Buffer
	trace.WriteStragglerReport(&rbuf, report)
	if !strings.Contains(rbuf.String(), "round 0") || !strings.Contains(rbuf.String(), "critical rank") {
		t.Errorf("rendered straggler report missing round rows:\n%s", rbuf.String())
	}
}

// syncWriter serializes flight dumps from concurrently degrading ranks.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestFlightDumpOnSeveredPeer drives the postmortem path: a chaos-severed
// link under an exchange deadline must surface as a PartialError and
// trigger exactly one flight dump naming the lost peer, with the
// exchange's start marker still in the ring.
func TestFlightDumpOnSeveredPeer(t *testing.T) {
	const n, side = 4, 64
	var out syncWriter
	prev := obs.SetFlightDumpOutput(&out)
	defer obs.SetFlightDumpOutput(prev)

	inj := chaos.New(chaos.Options{
		Seed:     1,
		TagFloor: ExchangeTagBase,
		Severs:   []chaos.Sever{{From: 0, To: 1, After: 0}},
	})
	partials := make([]*PartialError, n)
	flights := make([]*obs.FlightRecorder, n)
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		rank := c.Rank()
		f := obs.NewFlightRecorder(256)
		flights[rank] = f
		d, err := NewDescriptor(n, Layout2D, Float32,
			WithExchangeMode(ModePointToPoint),
			WithExchangeDeadline(3*time.Second),
			WithFlightRecorder(f))
		if err != nil {
			return err
		}
		strip := side / n
		own := grid.Box2(0, rank*strip, side, strip)
		need := grid.Box2(rank*strip, 0, strip, side)
		if err := d.SetupDataMapping(c, []grid.Box{own}, need); err != nil {
			return err
		}
		ownBuf := fillBox(own, d.ElemSize())
		needBuf := make([]byte, need.Volume()*d.ElemSize())
		err = d.ReorganizeData(c, [][]byte{ownBuf}, needBuf)
		var pe *PartialError
		if errors.As(err, &pe) {
			partials[rank] = pe
			return nil
		}
		return err
	}, mpi.WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	degraded := -1
	for r, pe := range partials {
		if pe != nil {
			degraded = r
		}
	}
	if degraded < 0 {
		t.Fatal("no rank degraded despite the severed link")
	}
	pe := partials[degraded]
	if len(pe.LostPeers) == 0 {
		t.Fatalf("rank %d degraded without lost peers: %v", degraded, pe)
	}

	dump := out.String()
	if !strings.Contains(dump, fmt.Sprintf("lost peers %v", pe.LostPeers)) {
		t.Errorf("flight dump does not name lost peers %v:\n%s", pe.LostPeers, dump)
	}
	if !strings.Contains(dump, "degraded") {
		t.Errorf("flight dump missing degradation reason:\n%s", dump)
	}
	// The ring preserved the exchange markers leading up to the failure.
	var sawStart, sawEnd bool
	for _, ev := range flights[degraded].Snapshot() {
		switch ev.Kind {
		case obs.FlightExchangeStart:
			sawStart = true
		case obs.FlightExchangeEnd:
			sawEnd = true
		}
	}
	if !sawStart || !sawEnd {
		t.Errorf("degraded rank's ring missing exchange markers (start=%v end=%v)", sawStart, sawEnd)
	}
}

// TestTracingDetachedZeroAlloc is the observability cost guard: with no
// tracer, metrics, or flight recorder attached, steady-state
// ReorganizeData must not allocate — exchange-ID minting stays, but the
// context push and span stamping are gated off entirely.
func TestTracingDetachedZeroAlloc(t *testing.T) {
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		t.Run(mode.String(), func(t *testing.T) {
			array := grid.Box2(0, 0, 8, 8)
			need := grid.Box2(1, 1, 6, 6)
			err := mpi.Launch(1, func(c *mpi.Comm) error {
				desc, err := NewDescriptor(1, Layout2D, Float32, WithExchangeMode(mode))
				if err != nil {
					return err
				}
				if err := desc.SetupDataMapping(c, []grid.Box{array}, need); err != nil {
					return err
				}
				src := fillBox(array, 4)
				dst := make([]byte, need.Volume()*4)
				for i := 0; i < 3; i++ { // reach steady state
					if err := desc.ReorganizeData(c, [][]byte{src}, dst); err != nil {
						return err
					}
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				allocs := testing.AllocsPerRun(50, func() {
					if err := desc.ReorganizeData(c, [][]byte{src}, dst); err != nil {
						t.Error(err)
					}
				})
				if allocs != 0 {
					t.Errorf("mode %v: %.1f allocs per detached ReorganizeData, want 0", mode, allocs)
				}
				// Exchange IDs are minted even when detached, so a later
				// postmortem attach can correlate with peers.
				if desc.LastExchangeID() == 0 {
					t.Error("detached exchange minted no exchange ID")
				}
				return checkBox(dst, need, 4, nil, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
