package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// messages is this rank's transport message count, both directions.
// Every send and receive a collective makes on a rank completes before
// the collective returns there, so deltas of it are exact per rank.
func messages(c *mpi.Comm) int64 {
	s := c.Traffic()
	return s.MessagesSent + s.MessagesRecv
}

// TestAgreementCollectiveCounts pins what agreement costs on the wire, in
// units of a bare Allgather measured in the same world (so no tree shape
// is assumed): a warm SetupDataMapping is one, and so is a cold one, whose
// votes carry every rank's geometry because no rank can hit. A miss where
// one rank's cache offers a plan for its large contribution while the
// others are cold is two — that rank's vote leaves its geometry out, so
// the compile gathers it — and every rank misses together. A geometry
// small enough to ride in every vote — a resize's, one old and one new
// box a rank — is one whatever the caches hold.
func TestAgreementCollectiveCounts(t *testing.T) {
	const n = 5
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		at := messages(c)
		if _, err := c.Allgather([]byte("unit")); err != nil {
			return err
		}
		unit := messages(c) - at
		if unit == 0 {
			return fmt.Errorf("rank %d: a bare allgather moved no messages", r)
		}
		cost := func(what string, want int64, op func() error) error {
			at := messages(c)
			if err := op(); err != nil {
				return fmt.Errorf("rank %d %s: %w", r, what, err)
			}
			if got := messages(c) - at; got != want*unit {
				return fmt.Errorf("rank %d: %s moved %d messages, want %d allgathers of %d", r, what, got, want, unit)
			}
			return nil
		}

		mine := grid.Box1(64*r, 64)
		for _, tc := range []struct {
			name  string
			mixed int64 // allgathers when only rank 0's cache offers a plan
			carry bool  // a warm vote carries the geometry
			own   []grid.Box
			other []grid.Box // a new contribution, for every rank but 0
		}{
			{"resize-sized", 1, true, []grid.Box{mine}, grid.Slabs(mine, 0, 2)},
			{"chunked", 2, false, grid.Slabs(mine, 0, 32), grid.Slabs(mine, 0, 16)},
		} {
			desc, err := NewDescriptor(n, Layout1D, Uint8)
			if err != nil {
				return err
			}
			need := grid.Box1(64*(n-1-r), 64)
			setup := func(own []grid.Box) func() error {
				return func() error { return desc.SetupDataMapping(c, own, need) }
			}
			if err := cost("cold "+tc.name+" SetupDataMapping", 1, setup(tc.own)); err != nil {
				return err
			}
			if err := cost("warm "+tc.name+" SetupDataMapping", 1, setup(tc.own)); err != nil {
				return err
			}
			enc := encodeGeometry(need, tc.own)
			vote := desc.cache.vote(enc, desc.fpSalt(), r, func(p *Plan) bool { return planMatchesLocal(p, r, tc.own, need) })
			geom, rest, err := splitVote(vote)
			switch {
			case err != nil:
				return fmt.Errorf("rank %d %s: warm vote: %w", r, tc.name, err)
			case len(rest) != 16:
				return fmt.Errorf("rank %d %s: warm vote holds %d bytes of hash and offers, want one hash and one offer", r, tc.name, len(rest))
			case tc.carry != (string(geom) == string(enc)) || !tc.carry && len(geom) != 0:
				return fmt.Errorf("rank %d %s: warm vote carries %d geometry bytes of %d, want carried=%v", r, tc.name, len(geom), len(enc), tc.carry)
			}
			mixed := tc.own
			if r != 0 {
				mixed = tc.other
			}
			if err := cost("mixed "+tc.name+" SetupDataMapping", tc.mixed, setup(mixed)); err != nil {
				return err
			}
			if hits, misses := desc.PlanCacheStats(); hits != 1 || misses != 2 {
				return fmt.Errorf("rank %d %s: %d hits / %d misses, want 1 / 2", r, tc.name, hits, misses)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheDissent: one rank's cache holds a single plan, so when the
// world returns to a geometry the others still hold, that rank has
// evicted it. Its vote lacks the fingerprint, every rank reads the same
// gathered votes, and all miss and recompile together — nobody replays a
// plan while a peer waits in the compile path's allgather.
func TestPlanCacheDissent(t *testing.T) {
	const n = 4
	err := mpi.Launch(n, func(c *mpi.Comm) error {
		r := c.Rank()
		capacity := 8
		if r == 2 {
			capacity = 1
		}
		desc, err := NewDescriptor(n, Layout2D, Float32, WithPlanCache(capacity))
		if err != nil {
			return err
		}
		for pass, transposed := range []bool{false, true, false, false} {
			ownAll, needAll := stripGeometry(transposed)
			own, need := ownAll[r], needAll[r]
			if err := desc.SetupDataMapping(c, own, need); err != nil {
				return fmt.Errorf("rank %d pass %d: %w", r, pass, err)
			}
			src := fillBox(own[0], 4)
			dst := make([]byte, need.Volume()*4)
			if err := desc.ReorganizeData(c, [][]byte{src}, dst); err != nil {
				return fmt.Errorf("rank %d pass %d: %w", r, pass, err)
			}
			if want := fillBox(need, 4); string(dst) != string(want) {
				return fmt.Errorf("rank %d pass %d: need buffer wrong after exchange", r, pass)
			}
		}
		// Pass 2 revisits pass 0's geometry: a hit for three ranks' caches,
		// evicted on the fourth, so a miss for all. Pass 3 repeats it and
		// everyone holds it again.
		if hits, misses := desc.PlanCacheStats(); hits != 1 || misses != 3 {
			return fmt.Errorf("rank %d: %d hits / %d misses, want 1 / 3 on every rank", r, hits, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheCollisionDefence drives the agreement directly: all ranks
// hold a plan under the global fingerprint, but on one rank the match
// callback says the plan was not compiled from the current contribution
// (what a fingerprint collision looks like locally). That rank must not
// list the fingerprint, which turns the lookup into a miss everywhere.
func TestPlanCacheCollisionDefence(t *testing.T) {
	err := mpi.Launch(3, func(c *mpi.Comm) error {
		pc := newPlanCache(4)
		enc := []byte{geomVersion, byte(c.Rank())}
		lookup := func(matches bool) (*Plan, cacheKey, error) {
			hit, key, _, err := pc.lookup(c, enc, 0, func(*Plan) bool { return matches })
			return hit, key, err
		}
		hit, key, err := lookup(true)
		if err != nil || hit != nil {
			return fmt.Errorf("empty cache: hit=%p err=%v", hit, err)
		}
		plan := &Plan{}
		pc.put(key, plan)
		if hit, _, err := lookup(c.Rank() != 1); err != nil || hit != nil {
			return fmt.Errorf("rank 1's contribution differs from its cached plan, yet hit=%p err=%v", hit, err)
		}
		if hit, _, err := lookup(true); err != nil || hit != plan {
			return fmt.Errorf("unanimous lookup: got %p err=%v", hit, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheMalformedVote: a contribution that is not a geometry, a
// hash and whole fingerprints is an error on every rank that reads it —
// never a panic, never a hit.
func TestPlanCacheMalformedVote(t *testing.T) {
	for _, size := range []int{0, 5, 12} {
		err := mpi.Launch(3, func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				_, err := c.Allgather(make([]byte, size))
				return err
			}
			pc := newPlanCache(4)
			hit, _, _, err := pc.lookup(c, []byte{geomVersion}, 0, func(*Plan) bool { return true })
			if err == nil || hit != nil || !strings.Contains(err.Error(), "from rank 2") {
				return fmt.Errorf("%d-byte vote: hit=%p err=%v, want an error naming rank 2", size, hit, err)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

// TestPlanCacheReplayAfterScratchReuse: a miss decodes into the
// descriptor's reused table and discovers into its reused job list, and
// the plan it compiles keeps only copies of its own boxes and the gathered
// encodings. Mapping A, then B — a smaller world that overwrites A's
// decoded boxes and jobs in place — and then A again from the cache must
// replay A's exchange exactly, and the replayed plan must still describe
// A: its Stats and Geometry equal those of A's offline plan. On every
// transport, since each delivers the gathered bytes differently.
func TestPlanCacheReplayAfterScratchReuse(t *testing.T) {
	const procs, side = 4, 64
	ownA, needA := stripWorld(procs, side, 12, true)
	ownB, needB := stripWorld(procs, side, 6, false)
	for _, tr := range []struct {
		name string
		opts []mpi.LaunchOption
	}{
		{"inproc", nil},
		{"tcp", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportTCP)}},
		{"shm", []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				r := c.Rank()
				d, err := NewDescriptor(procs, Layout2D, Float32)
				if err != nil {
					return err
				}
				mapAndMove := func(step string, own [][]grid.Box, need []grid.Box) error {
					if err := d.SetupDataMapping(c, own[r], need[r]); err != nil {
						return fmt.Errorf("rank %d %s: %w", r, step, err)
					}
					src := make([][]byte, len(own[r]))
					for i, b := range own[r] {
						src[i] = fillBox(b, 4)
					}
					dst := make([]byte, need[r].Volume()*4)
					if err := d.ReorganizeData(c, src, dst); err != nil {
						return fmt.Errorf("rank %d %s: %w", r, step, err)
					}
					if !bytes.Equal(dst, fillBox(need[r], 4)) {
						return fmt.Errorf("rank %d %s: need buffer wrong after exchange", r, step)
					}
					return nil
				}
				if err := mapAndMove("A", ownA, needA); err != nil {
					return err
				}
				first := d.Plan()
				if err := mapAndMove("B", ownB, needB); err != nil {
					return err
				}
				if err := mapAndMove("A again", ownA, needA); err != nil {
					return err
				}
				if hits, misses := d.PlanCacheStats(); hits != 1 || misses != 2 || d.Plan() != first {
					return fmt.Errorf("rank %d: %d hits / %d misses, same plan %v; want 1 / 2 and A's plan replayed", r, hits, misses, d.Plan() == first)
				}
				offline, err := NewPlanFromGeometry(r, 4, ownA, needA)
				if err != nil {
					return err
				}
				if got, want := d.Plan().Stats(), offline.Stats(); got != want {
					return fmt.Errorf("rank %d: replayed plan's stats %+v, offline %+v", r, got, want)
				}
				if got, want := d.Plan().Geometry(), offline.Geometry(); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("rank %d: replayed plan's geometry differs from the offline plan's", r)
				}
				return nil
			}, tr.opts...)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
