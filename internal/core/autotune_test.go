package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// stripGeometry returns a transpose layout for 4 ranks over a 16x16
// domain: horizontal owned strips redistributed into vertical need
// strips. Every send region is strided in the owned buffer (4-wide rows
// of a 16-wide array), exercising the gather paths the autotuner
// chooses between; receives land contiguously. transposed swaps the
// roles so receives are the strided side instead.
func stripGeometry(rank int, transposed bool) (own []grid.Box, need grid.Box) {
	horizontal := grid.Box2(0, 4*rank, 16, 4)
	vertical := grid.Box2(4*rank, 0, 4, 16)
	if transposed {
		return []grid.Box{vertical}, horizontal
	}
	return []grid.Box{horizontal}, vertical
}

// TestPackStrategiesByteIdentical proves the three pack strategies (and
// the measured auto selection) produce byte-identical results: every
// element of the need buffer matches the canonical pattern regardless
// of how regions were gathered and scattered, across both exchange modes
// and both strided directions.
func TestPackStrategiesByteIdentical(t *testing.T) {
	strategies := []PackStrategy{StrategyAuto, StrategyZeroCopy, StrategyPack, StrategyDatatype}
	for _, mode := range []ExchangeMode{ModeAlltoallw, ModePointToPoint} {
		for _, strat := range strategies {
			for _, transposed := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/transposed=%v", mode, strat, transposed)
				t.Run(name, func(t *testing.T) {
					err := mpi.Launch(4, func(c *mpi.Comm) error {
						own, need := stripGeometry(c.Rank(), transposed)
						desc, err := NewDescriptor(4, Layout2D, Float32,
							WithExchangeMode(mode), withPackStrategy(strat))
						if err != nil {
							return err
						}
						if err := desc.SetupDataMapping(c, own, need); err != nil {
							return err
						}
						ownBufs := [][]byte{fillBox(own[0], 4)}
						needBuf := make([]byte, need.Volume()*4)
						if err := desc.ReorganizeData(c, ownBufs, needBuf); err != nil {
							return err
						}
						return checkBox(needBuf, need, 4, nil, 0)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestForcedStrategyResolves checks withPackStrategy pins both
// directions and that compiled run lists replace the strided entries
// only under the pack strategy.
func TestForcedStrategyResolves(t *testing.T) {
	for _, strat := range []PackStrategy{StrategyZeroCopy, StrategyPack, StrategyDatatype} {
		err := mpi.Launch(2, func(c *mpi.Comm) error {
			own := []grid.Box{grid.Box2(0, 4*c.Rank(), 8, 4)}
			need := grid.Box2(4*c.Rank(), 0, 4, 8)
			desc, err := NewDescriptor(2, Layout2D, Uint8, withPackStrategy(strat))
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, own, need); err != nil {
				return err
			}
			needBuf := make([]byte, need.Volume())
			if err := desc.ReorganizeData(c, [][]byte{fillBox(own[0], 1)}, needBuf); err != nil {
				return err
			}
			s, r := desc.PackDecision()
			if s != strat || r != strat {
				return fmt.Errorf("decision (%v,%v), want %v", s, r, strat)
			}
			zc := strat != StrategyDatatype
			if desc.ex.zcSend != zc || desc.ex.zcRecv != zc {
				return fmt.Errorf("gates (%v,%v) for %v", desc.ex.zcSend, desc.ex.zcRecv, strat)
			}
			return checkBox(needBuf, need, 1, nil, 0)
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
	}
}

// TestForcedStrategySkipsProbe verifies withPackStrategy pins the choice
// statically: no microprobe runs for a forced strategy.
func TestForcedStrategySkipsProbe(t *testing.T) {
	ResetAutotuneCache()
	before := AutotuneProbeCount()
	err := mpi.Launch(2, func(c *mpi.Comm) error {
		ownB := []grid.Box{grid.Box2(0, 8*c.Rank(), 16, 8)}
		needB := grid.Box2(8*c.Rank(), 0, 8, 16)
		for _, want := range []PackStrategy{StrategyZeroCopy, StrategyDatatype} {
			desc, err := NewDescriptor(2, Layout2D, Uint8, withPackStrategy(want))
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, ownB, needB); err != nil {
				return err
			}
			needBuf := make([]byte, needB.Volume())
			if err := desc.ReorganizeData(c, [][]byte{fillBox(ownB[0], 1)}, needBuf); err != nil {
				return err
			}
			if s, r := desc.PackDecision(); s != want || r != want {
				return fmt.Errorf("forced %v resolved (%v,%v)", want, s, r)
			}
			if err := checkBox(needBuf, needB, 1, nil, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := AutotuneProbeCount() - before; got != 0 {
		t.Fatalf("forced selection ran %d probes", got)
	}
}

// TestAutotuneProbesOnce asserts the acceptance property: the microprobe
// runs at most once per (geometry, transport, direction), no matter how
// many ranks share the process, how many exchanges replay the plan, or
// how many descriptors map the same geometry — and the decision is
// visible in the metrics registry.
func TestAutotuneProbesOnce(t *testing.T) {
	ResetAutotuneCache()
	before := AutotuneProbeCount()
	reg := obs.NewRegistry()
	run := func() error {
		return mpi.Launch(4, func(c *mpi.Comm) error {
			own, need := stripGeometry(c.Rank(), false)
			desc, err := NewDescriptor(4, Layout2D, Float32, WithMetrics(reg))
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, own, need); err != nil {
				return err
			}
			ownBufs := [][]byte{fillBox(own[0], 4)}
			needBuf := make([]byte, need.Volume()*4)
			for i := 0; i < 3; i++ { // replays must not re-probe
				if err := desc.ReorganizeData(c, ownBufs, needBuf); err != nil {
					return err
				}
			}
			if s, r := desc.PackDecision(); s == StrategyAuto || r == StrategyAuto {
				return fmt.Errorf("exchange left strategies unresolved (%v,%v)", s, r)
			}
			return checkBox(needBuf, need, 4, nil, 0)
		})
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	probes := AutotuneProbeCount() - before
	if probes > 2 {
		t.Fatalf("first use ran %d probes, want at most 2 (one per direction)", probes)
	}
	// A second world mapping the same geometry over the same transport
	// reuses every decision.
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if again := AutotuneProbeCount() - before; again != probes {
		t.Fatalf("replayed geometry re-probed: %d -> %d", probes, again)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ddr_pack_strategy_selected_total") {
		t.Error("pack-strategy decisions missing from metrics output")
	}
}

// TestTopologyKeyedPlanFingerprint proves the plan-cache key includes
// the node topology: one geometry mapped on a flat world and on a
// hierarchical two-node world must fingerprint differently, while two
// identical placements agree.
func TestTopologyKeyedPlanFingerprint(t *testing.T) {
	fpFor := func(launch func(int, func(*mpi.Comm) error) error) uint64 {
		t.Helper()
		var fp uint64
		err := launch(4, func(c *mpi.Comm) error {
			own, need := stripGeometry(c.Rank(), false)
			desc, err := NewDescriptor(4, Layout2D, Float32)
			if err != nil {
				return err
			}
			if err := desc.SetupDataMapping(c, own, need); err != nil {
				return err
			}
			if c.Rank() == 0 {
				fp = desc.plan.fp
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	flat := fpFor(mpi.RunShm)
	hier := fpFor(func(n int, body func(*mpi.Comm) error) error {
		return mpi.RunHier(n, mpi.NodesOf(n, 2), body)
	})
	hier2 := fpFor(func(n int, body func(*mpi.Comm) error) error {
		return mpi.RunHier(n, mpi.NodesOf(n, 2), body)
	})
	if flat == hier {
		t.Fatalf("flat and hierarchical placements share fingerprint %016x", flat)
	}
	if hier != hier2 {
		t.Fatalf("identical placements disagree: %016x vs %016x", hier, hier2)
	}
}
