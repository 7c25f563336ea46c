package core

import (
	"fmt"
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
// is assumed): a cold SetupDataMapping is two and a warm one is one,
// except that a geometry small enough to ride in the agreement's votes —
// a resize's, one old and one new box a rank — is one either way.
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

		for _, tc := range []struct {
			name string
			cold int64
			own  []grid.Box
		}{
			{"resize-sized", 1, []grid.Box{grid.Box1(64*r, 64)}},
			{"chunked", 2, grid.Slabs(grid.Box1(64*r, 64), 0, 32)},
		} {
			desc, err := NewDescriptor(n, Layout1D, Uint8)
			if err != nil {
				return err
			}
			need := grid.Box1(64*(n-1-r), 64)
			setup := func() error { return desc.SetupDataMapping(c, tc.own, need) }
			if err := cost("cold "+tc.name+" SetupDataMapping", tc.cold, setup); err != nil {
				return err
			}
			if err := cost("warm "+tc.name+" SetupDataMapping", 1, setup); err != nil {
				return err
			}
			if hits, misses := desc.PlanCacheStats(); hits != 1 || misses != 1 {
				return fmt.Errorf("rank %d %s: %d hits / %d misses, want 1 / 1", r, tc.name, hits, misses)
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
