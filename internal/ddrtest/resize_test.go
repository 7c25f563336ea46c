package ddrtest

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"ddr/internal/chaos"
	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// resizeSchedule pairs a chaos configuration with how the harness judges
// a resize outcome, mirroring the redistribution schedules.
type resizeSchedule struct {
	name     string
	build    func(rc *ResizeCase) mpi.FaultInjector
	deadline time.Duration
	lossy    bool
}

func resizeSchedules() []resizeSchedule {
	return []resizeSchedule{
		{name: "clean", build: func(*ResizeCase) mpi.FaultInjector { return nil }},
		{name: "drop", build: func(rc *ResizeCase) mpi.FaultInjector {
			return chaos.New(chaos.Options{Seed: rc.Seed, DropProb: 0.08})
		}},
		{name: "dup-delay", build: func(rc *ResizeCase) mpi.FaultInjector {
			return chaos.New(chaos.Options{
				Seed: rc.Seed, DupProb: 0.15, DelayProb: 0.2, DelayMax: 500 * time.Microsecond,
			})
		}},
		{name: "sever", lossy: true, deadline: 5 * time.Second, build: func(rc *ResizeCase) mpi.FaultInjector {
			from := int(rc.Seed % uint64(rc.NProcs))
			to := int((rc.Seed / 7) % uint64(rc.NProcs))
			if to == from {
				to = (to + 1) % rc.NProcs
			}
			return chaos.New(chaos.Options{
				Seed:     rc.Seed,
				TagFloor: core.ExchangeTagBase,
				Severs:   []chaos.Sever{{From: from, To: to, After: rc.Seed % 2}},
			})
		}},
	}
}

// TestResizeProperty sweeps seeded random resize cases through every
// schedule: the resize exchange must satisfy the fill invariant on all
// surviving ranks, degrading only under lossy schedules.
func TestResizeProperty(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 20
	}
	defer checkGoroutines(t)
	for _, sc := range resizeSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			for i := 0; i < cases && !t.Failed(); i++ {
				seed := uint64(i)*2654435761 + uint64(i) + 17
				rc := GenResizeCase(seed, *flagMaxProcs, *flagMaxExtent)
				tc := rc.Case()
				// Every eighth case rides loopback sockets, every eighth (on
				// an offset stride) shared-memory rings.
				tr := TransportInproc
				switch i % 8 {
				case 0:
					tr = TransportTCP
				case 4:
					tr = TransportShm
				}
				results, err := tc.Run(RunOptions{
					Transport: tr,
					Injector:  sc.build(&rc),
					Deadline:  sc.deadline,
				})
				if err != nil {
					t.Fatalf("%v schedule %q (transport=%q): world error: %v", &rc, sc.name, tr, err)
				}
				for rank, res := range results {
					switch {
					case res.Err != nil:
						t.Fatalf("%v schedule %q (transport=%q): rank %d exchange failed: %v", &rc, sc.name, tr, rank, res.Err)
					case res.CheckErr != nil:
						t.Fatalf("%v schedule %q (transport=%q): rank %d invariant violated: %v", &rc, sc.name, tr, rank, res.CheckErr)
					case res.Partial != nil && !sc.lossy:
						t.Fatalf("%v schedule %q (transport=%q): rank %d degraded under a lossless schedule: %v", &rc, sc.name, tr, rank, res.Partial)
					}
				}
			}
		})
	}
}

// TestResizeSeverLeavingRank is the satellite scenario: a rank leaving
// the group is severed mid-handoff, and the surviving N′ ranks must
// still satisfy the fill invariant — the leaver's undelivered regions
// surface as reported-missing (sentinel or value, never garbage), while
// everything from healthy ranks lands intact.
func TestResizeSeverLeavingRank(t *testing.T) {
	const leaver = 3
	domain := grid.Box2(0, 0, 32, 16)
	oldSlabs := grid.Slabs(domain, 0, 4) // 4 ranks hold vertical slabs
	newSlabs := grid.Slabs(domain, 1, 3) // survivors re-tile horizontally
	empty := grid.Box2(0, 0, 0, 0)

	rc := ResizeCase{
		Seed:     42,
		NProcs:   4,
		Layout:   core.Layout2D,
		ElemSize: 4,
		Domain:   domain,
		OldNeeds: oldSlabs,
		NewNeeds: []grid.Box{newSlabs[0], newSlabs[1], newSlabs[2], empty},
	}

	// The leaver hands one message to each survivor; cutting
	// its links to ranks 1 and 2 on the first exchange delivery (and
	// sparing rank 0) kills the handoff partway through.
	severs := []chaos.Sever{
		{From: leaver, To: 1, After: 0},
		{From: leaver, To: 2, After: 0},
	}
	inj := chaos.New(chaos.Options{Seed: 42, TagFloor: core.ExchangeTagBase, Severs: severs})

	tc := rc.Case()
	for _, tr := range []string{TransportInproc, TransportTCP, TransportShm} {
		results, err := tc.Run(RunOptions{
			Transport: tr,
			Injector:  inj,
			Deadline:  5 * time.Second,
		})
		if err != nil {
			t.Fatalf("transport=%q: world error: %v", tr, err)
		}
		degraded := false
		for rank := 0; rank < 3; rank++ {
			res := results[rank]
			if res.Err != nil {
				t.Fatalf("transport=%q: surviving rank %d aborted instead of degrading: %v", tr, rank, res.Err)
			}
			if res.CheckErr != nil {
				t.Fatalf("transport=%q: surviving rank %d invariant violated: %v", tr, rank, res.CheckErr)
			}
			if res.Partial != nil {
				degraded = true
				for _, lost := range res.Partial.LostPeers {
					if lost != leaver {
						t.Fatalf("transport=%q: rank %d reported healthy peer %d lost", tr, rank, lost)
					}
				}
			}
		}
		if !degraded {
			t.Fatalf("transport=%q: severing the leaver degraded no survivor — the schedule cut nothing", tr)
		}
	}
}

// TestResizeCatchesPlantedBug proves the resize harness has teeth, on
// every transport: an off-by-one perturbation of a compiled resize
// receive region must surface as an invariant violation on some seed.
func TestResizeCatchesPlantedBug(t *testing.T) {
	for _, tr := range []string{TransportInproc, TransportTCP, TransportShm} {
		caught, perturbed := false, false
		for seed := uint64(1); seed <= 40 && !caught; seed++ {
			rc := GenResizeCase(seed, *flagMaxProcs, *flagMaxExtent)
			tc := rc.Case()
			applied := false
			results, err := tc.Run(RunOptions{
				Transport: tr,
				Mutate:    func(p *core.Plan) { applied = p.PerturbPlanForTest() },
			})
			if err != nil {
				t.Fatalf("transport=%q seed %d: world error: %v", tr, seed, err)
			}
			if !applied {
				continue // rank 0 had no shiftable receive region in this case
			}
			perturbed = true
			for _, res := range results {
				if res.CheckErr != nil {
					caught = true
				}
				if res.Err != nil {
					t.Fatalf("transport=%q seed %d: exchange error instead of invariant violation: %v", tr, seed, res.Err)
				}
			}
		}
		if !perturbed {
			t.Fatalf("transport=%q: no generated case offered a perturbable resize plan", tr)
		}
		if !caught {
			t.Fatalf("transport=%q: planted resize-compile bug escaped the harness", tr)
		}
	}
}

// TestResizeWireBytes holds the resize to the bytes the incremental
// compiler it replaced moved. testdata/resize_wire_bytes.json was
// recorded from that compiler, before its removal: for every
// TestResizeProperty seed at the default -ddr-max-procs 5 and
// -ddr-max-extent 20, each rank's bytes received over the wire and kept
// by the local copy. The offline compile (CompileDelta) and every rank's
// SetupDataMapping plan must reproduce them byte for byte.
func TestResizeWireBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/resize_wire_bytes.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture []struct {
		Seed     uint64  `json:"seed"`
		Received []int64 `json:"received"`
		Retained []int64 `json:"retained"`
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	if len(fixture) != 120 {
		t.Fatalf("fixture holds %d cases, TestResizeProperty sweeps 120", len(fixture))
	}
	for i, want := range fixture {
		seed := uint64(i)*2654435761 + uint64(i) + 17
		if want.Seed != seed {
			t.Fatalf("fixture case %d is seed %d, the sweep's is %d", i, want.Seed, seed)
		}
		rc := GenResizeCase(seed, 5, 20)
		check := func(path string, rank int, p *core.Plan) error {
			if got, got2 := p.ReceivedBytes(), p.RetainedBytes(); got != want.Received[rank] || got2 != want.Retained[rank] {
				return fmt.Errorf("%v: %s plan of rank %d receives %d and retains %d bytes, the fixture %d and %d",
					&rc, path, rank, got, got2, want.Received[rank], want.Retained[rank])
			}
			return nil
		}
		plans, err := core.CompileDelta(rc.ElemSize, rc.OldNeeds, rc.NewNeeds)
		if err != nil {
			t.Fatal(err)
		}
		for r, p := range plans {
			if err := check("CompileDelta", r, p); err != nil {
				t.Fatal(err)
			}
		}
		err = mpi.Launch(rc.NProcs, func(c *mpi.Comm) error {
			r := c.Rank()
			d, err := core.NewDescriptor(rc.NProcs, rc.Layout, core.Uint8, core.WithElemSize(rc.ElemSize))
			if err != nil {
				return err
			}
			if err := d.SetupDataMapping(c, rc.OldNeeds[r:r+1], rc.NewNeeds[r]); err != nil {
				return err
			}
			return check("SetupDataMapping", r, d.Plan())
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
